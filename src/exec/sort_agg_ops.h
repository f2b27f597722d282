#ifndef WSQ_EXEC_SORT_AGG_OPS_H_
#define WSQ_EXEC_SORT_AGG_OPS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/memory.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"
#include "storage/spill.h"

namespace wsq {

/// ORDER BY: materializes the child and stable-sorts on the key
/// expressions (precomputed per row).
///
/// Memory governance: every buffered (keys, row) pair is charged to the
/// query's MemoryBudget through a MemoryReservation. When a reservation
/// fails (tier 1 of the degradation ladder), the current batch is
/// stable-sorted and written as a sorted run to a spill temp file
/// (checksummed pages via the DiskManager layer); Next() then k-way
/// merges the runs. Run batches partition the input in order and ties
/// prefer the lower run index, so spilled output is byte-identical to
/// the in-memory stable sort. Without a SpillManager in the
/// ExecContext, a failed reservation fails the query with
/// kResourceExhausted instead.
class SortOperator : public Operator {
 public:
  SortOperator(const SortNode* node, OperatorPtr child, ExecContext* ctx)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)),
        ctx_(ctx) {
    AddChild(child_.get());
  }

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

  /// Runs written to the spill file (0 = the sort fit in memory).
  size_t spill_runs() const { return runs_.size(); }

 private:
  using Keyed = std::pair<std::vector<Value>, Row>;

  /// Stable-sorts `batch` with the node's key ordering.
  void SortBatch(std::vector<Keyed>* batch) const;
  /// True iff `a` orders strictly before `b` under the sort keys.
  bool KeyLess(const std::vector<Value>& a,
               const std::vector<Value>& b) const;
  /// Sorts the batch, writes it as one spill run, and releases its
  /// reservation. No-op on an empty batch.
  Status SpillBatch(std::vector<Keyed>* batch);
  /// Advances a merge source to its next record; marks it done at end
  /// of run.
  Status AdvanceSource(size_t i);

  const SortNode* node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  MemoryReservation mem_;
  std::vector<Row> rows_;
  size_t next_ = 0;
  // True while the child is open. Open() closes the child after a full
  // drain; if the drain errors out, Close() must cascade instead so a
  // ReqSync below cancels its outstanding calls.
  bool child_open_ = false;

  struct MergeSource {
    std::unique_ptr<SpillReader> reader;
    std::vector<Value> keys;
    Row row;
    bool done = false;
  };
  std::unique_ptr<SpillFile> spill_file_;
  std::vector<SpillRun> runs_;
  std::vector<MergeSource> merge_;
};

/// GROUP BY + aggregate evaluation; groups ordered deterministically
/// by key. NULL arguments are skipped (except COUNT(*)); a global
/// aggregate over empty input yields one row.
///
/// Memory governance: each group (key + accumulators) is charged to
/// the query budget at insertion. On a failed reservation the group
/// map — already key-sorted — is serialized as a sorted run of
/// (key, accumulators) records and cleared; at the end of the drain
/// Next() streams a k-way merge of the runs, combining accumulators of
/// equal keys, so group order (and, for integer aggregates, every
/// byte) matches the in-memory path. Floating-point SUM/AVG may
/// differ by reassociation when spilled.
class AggregateOperator : public Operator {
 public:
  AggregateOperator(const AggregateNode* node, OperatorPtr child,
                    ExecContext* ctx)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)),
        ctx_(ctx) {
    AddChild(child_.get());
  }

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

  /// Runs written to the spill file (0 = the build fit in memory).
  size_t spill_runs() const { return runs_.size(); }

 private:
  struct Accumulator {
    int64_t count = 0;       // rows seen (non-null arg for kCount)
    int64_t sum_int = 0;
    double sum_double = 0;
    bool sum_is_double = false;
    Value min;
    Value max;
    bool has_value = false;
  };

  using GroupMap = std::map<Row, std::vector<Accumulator>,
                            bool (*)(const Row&, const Row&)>;

  Status Accumulate(const Row& input, std::vector<Accumulator>* accs);
  Result<Value> Finalize(const AggregateNode::AggSpec& spec,
                         const Accumulator& acc) const;

  /// Serializes the (sorted) group map as one spill run, clears it,
  /// and releases its reservation. No-op on an empty map.
  Status SpillGroups(GroupMap* groups);
  /// Folds `from` into `into` (counts add, sums add with double
  /// widening, min/max recompare, has_value ORs).
  static void MergeAccumulator(const Accumulator& from, Accumulator* into);
  Status AdvanceSource(size_t i);
  /// Builds the output row for one merged group.
  Result<Row> FinalizeGroup(const Row& key,
                            const std::vector<Accumulator>& accs) const;

  const AggregateNode* node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  MemoryReservation mem_;
  std::vector<Row> results_;
  size_t next_ = 0;
  bool child_open_ = false;  // see SortOperator::child_open_

  struct MergeSource {
    std::unique_ptr<SpillReader> reader;
    Row key;
    std::vector<Accumulator> accs;
    bool done = false;
  };
  std::unique_ptr<SpillFile> spill_file_;
  std::vector<SpillRun> runs_;
  std::vector<MergeSource> merge_;
  bool merging_ = false;
};

}  // namespace wsq

#endif  // WSQ_EXEC_SORT_AGG_OPS_H_
