#ifndef WSQ_EXEC_BASIC_OPS_H_
#define WSQ_EXEC_BASIC_OPS_H_

#include <unordered_set>
#include <vector>

#include "common/memory.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace wsq {

/// Selection σ: emits child rows satisfying the predicate.
class FilterOperator : public Operator {
 public:
  FilterOperator(const FilterNode* node, OperatorPtr child)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)) {
    AddChild(child_.get());
  }

  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  const FilterNode* node_;
  OperatorPtr child_;
};

/// Projection π: evaluates one expression per output column.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(const ProjectNode* node, OperatorPtr child)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)) {
    AddChild(child_.get());
  }

  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  const ProjectNode* node_;
  OperatorPtr child_;
};

/// LIMIT n: stops after n rows.
class LimitOperator : public Operator {
 public:
  LimitOperator(const LimitNode* node, OperatorPtr child)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)) {
    AddChild(child_.get());
  }

  Status OpenImpl() override {
    emitted_ = 0;
    return child_->Open();
  }
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  const LimitNode* node_;
  OperatorPtr child_;
  int64_t emitted_ = 0;
};

/// Duplicate elimination via row hashing. The seen-set is charged to
/// the query memory budget (TryAdd with ForceAdd fallback: there is no
/// spill path for hash dedup, so growth past an exhausted budget is
/// admitted as a tracked overage and surfaced in the stats rather than
/// failing the query).
class DistinctOperator : public Operator {
 public:
  DistinctOperator(const DistinctNode* node, OperatorPtr child,
                   ExecContext* ctx)
      : Operator(&node->schema()),
        child_(std::move(child)),
        ctx_(ctx) {
    AddChild(child_.get());
  }

  Status OpenImpl() override {
    seen_.clear();
    mem_.ReleaseAll();
    mem_.Bind(ctx_->memory);
    return child_->Open();
  }
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override {
    seen_.clear();
    RecordPeakBytes(mem_.peak_bytes());
    mem_.ReleaseAll();
    return child_->Close();
  }

 private:
  struct RowHash {
    size_t operator()(const Row& r) const { return r.Hash(); }
  };

  OperatorPtr child_;
  ExecContext* ctx_;
  MemoryReservation mem_;
  std::unordered_set<Row, RowHash> seen_;
};

}  // namespace wsq

#endif  // WSQ_EXEC_BASIC_OPS_H_
