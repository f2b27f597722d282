#ifndef WSQ_PLAN_LOGICAL_PLAN_H_
#define WSQ_PLAN_LOGICAL_PLAN_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/expr.h"
#include "types/schema.h"
#include "vtab/virtual_table.h"

namespace wsq {

/// Operator tree produced by the binder and transformed by the
/// asynchronous-iteration rewriter. The executor interprets this tree
/// directly (one physical implementation per node kind, paper-style
/// iterator model).
class PlanNode {
 public:
  enum class Kind {
    kScan,           ///< stored-table sequential scan
    kIndexScan,      ///< stored-table equality lookup through a B+ tree
    kEVScan,         ///< external virtual table scan (sync or async)
    kFilter,         ///< selection σ
    kProject,        ///< projection π (with computed expressions)
    kNestedLoopJoin, ///< inner join with predicate
    kCrossProduct,   ///< ×
    kDependentJoin,  ///< binds left-side values into a right EVScan
    kSort,           ///< ORDER BY
    kDistinct,       ///< duplicate elimination
    kAggregate,      ///< GROUP BY + aggregate functions
    kLimit,          ///< LIMIT n
    kReqSync,        ///< asynchronous-iteration synchronizer (paper §4.1)
  };

  virtual ~PlanNode() = default;

  Kind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  const std::vector<std::unique_ptr<PlanNode>>& children() const {
    return children_;
  }
  std::vector<std::unique_ptr<PlanNode>>& children() { return children_; }
  PlanNode* child(size_t i) const { return children_[i].get(); }
  size_t num_children() const { return children_.size(); }

  /// One-line description used by the plan printer, e.g.
  /// "Dependent Join: Sigs.Name -> WebCount.T1".
  virtual std::string Label() const = 0;

  /// Multi-line indented tree rendering (EXPLAIN output and the
  /// Figure 2–8 golden tests).
  std::string ToString() const;

 protected:
  PlanNode(Kind kind, Schema schema)
      : kind_(kind), schema_(std::move(schema)) {}

  void AppendTo(std::string* out, int indent) const;

  Kind kind_;
  Schema schema_;
  std::vector<std::unique_ptr<PlanNode>> children_;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

class ScanNode : public PlanNode {
 public:
  ScanNode(TableInfo* table, std::string effective_name)
      : PlanNode(Kind::kScan,
                 table->schema().WithQualifier(effective_name)),
        table_(table),
        effective_name_(std::move(effective_name)) {}

  TableInfo* table() const { return table_; }
  const std::string& effective_name() const { return effective_name_; }

  std::string Label() const override;

 private:
  TableInfo* table_;
  std::string effective_name_;
};

/// Equality or range lookup through a secondary index (the Redbase IX
/// access path).
class IndexScanNode : public PlanNode {
 public:
  /// One side of a range restriction on the indexed column.
  struct Bound {
    std::optional<Value> value;  // nullopt = unbounded
    bool inclusive = true;
  };

  /// Equality scan.
  IndexScanNode(TableInfo* table, IndexInfo* index,
                std::string effective_name, const Value& key)
      : IndexScanNode(table, index, std::move(effective_name),
                      Bound{key, true}, Bound{key, true}) {}

  /// Range scan.
  IndexScanNode(TableInfo* table, IndexInfo* index,
                std::string effective_name, Bound lo, Bound hi)
      : PlanNode(Kind::kIndexScan,
                 table->schema().WithQualifier(effective_name)),
        table_(table),
        index_(index),
        effective_name_(std::move(effective_name)),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}

  TableInfo* table() const { return table_; }
  IndexInfo* index() const { return index_; }
  const std::string& effective_name() const { return effective_name_; }
  const Bound& lo() const { return lo_; }
  const Bound& hi() const { return hi_; }

  /// True when lo == hi and both are inclusive.
  bool IsEquality() const {
    return lo_.value.has_value() && hi_.value.has_value() &&
           lo_.inclusive && hi_.inclusive &&
           lo_.value->Compare(*hi_.value) == 0;
  }

  std::string Label() const override;

 private:
  TableInfo* table_;
  IndexInfo* index_;
  std::string effective_name_;
  Bound lo_;
  Bound hi_;
};

/// External virtual table scan. Input columns (SearchExp, T1..Tn) are
/// bound by constants stored here and/or by a parent DependentJoin.
/// `async` distinguishes AEVScan (paper §4.1) from blocking EVScan.
class EVScanNode : public PlanNode {
 public:
  EVScanNode(VirtualTable* table, std::string effective_name,
             size_t num_terms)
      : PlanNode(Kind::kEVScan, table->SchemaForTerms(num_terms)
                                    .WithQualifier(effective_name)),
        table_(table),
        effective_name_(std::move(effective_name)),
        num_terms_(num_terms) {}

  VirtualTable* table() const { return table_; }
  const std::string& effective_name() const { return effective_name_; }
  size_t num_terms() const { return num_terms_; }

  /// Term index (1-based) → constant value, for WHERE Ti = 'literal'.
  std::map<size_t, Value> constant_terms;
  /// SearchExp override; empty uses the table default template.
  std::string search_exp;
  /// Max Rank to fetch (paper default: Rank < 20).
  int64_t rank_limit = 19;
  /// True after the asynchronous-iteration rewrite (AEVScan).
  bool async = false;

  /// Indices (within this node's schema) of the table's output columns.
  std::vector<size_t> OutputColumnIndices() const;

  std::string Label() const override;

 private:
  VirtualTable* table_;
  std::string effective_name_;
  size_t num_terms_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr child, BoundExprPtr predicate)
      : PlanNode(Kind::kFilter, child->schema()),
        predicate_(std::move(predicate)) {
    children_.push_back(std::move(child));
  }

  const BoundExpr& predicate() const { return *predicate_; }
  BoundExpr* mutable_predicate() { return predicate_.get(); }

  std::string Label() const override;

 private:
  BoundExprPtr predicate_;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanNodePtr child, std::vector<BoundExprPtr> exprs,
              Schema output_schema)
      : PlanNode(Kind::kProject, std::move(output_schema)),
        exprs_(std::move(exprs)) {
    children_.push_back(std::move(child));
  }

  const std::vector<BoundExprPtr>& exprs() const { return exprs_; }
  std::vector<BoundExprPtr>& mutable_exprs() { return exprs_; }

  std::string Label() const override;

 private:
  std::vector<BoundExprPtr> exprs_;
};

class NestedLoopJoinNode : public PlanNode {
 public:
  NestedLoopJoinNode(PlanNodePtr left, PlanNodePtr right,
                     BoundExprPtr predicate)
      : PlanNode(Kind::kNestedLoopJoin,
                 Schema::Concat(left->schema(), right->schema())),
        predicate_(std::move(predicate)) {
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  /// Predicate over the concatenated schema; never null (predicate-free
  /// joins are CrossProductNode).
  const BoundExpr& predicate() const { return *predicate_; }
  BoundExprPtr TakePredicate() { return std::move(predicate_); }

  std::string Label() const override;

 private:
  BoundExprPtr predicate_;
};

class CrossProductNode : public PlanNode {
 public:
  CrossProductNode(PlanNodePtr left, PlanNodePtr right)
      : PlanNode(Kind::kCrossProduct,
                 Schema::Concat(left->schema(), right->schema())) {
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  std::string Label() const override { return "Cross-Product"; }
};

/// Supplies left-row values to the term columns of a right-side EVScan
/// (paper §4: "we rely on dependent joins to supply bindings to our
/// virtual tables").
class DependentJoinNode : public PlanNode {
 public:
  struct Binding {
    /// Column index within the LEFT child's schema.
    size_t left_column;
    /// 1-based term index (T1..Tn) of the right EVScan.
    size_t term_index;
  };

  DependentJoinNode(PlanNodePtr left, PlanNodePtr right,
                    std::vector<Binding> bindings)
      : PlanNode(Kind::kDependentJoin,
                 Schema::Concat(left->schema(), right->schema())),
        bindings_(std::move(bindings)) {
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  const std::vector<Binding>& bindings() const { return bindings_; }

  std::string Label() const override;

 private:
  std::vector<Binding> bindings_;
};

class SortNode : public PlanNode {
 public:
  struct SortKey {
    BoundExprPtr expr;
    bool descending = false;
  };

  SortNode(PlanNodePtr child, std::vector<SortKey> keys)
      : PlanNode(Kind::kSort, child->schema()), keys_(std::move(keys)) {
    children_.push_back(std::move(child));
  }

  const std::vector<SortKey>& keys() const { return keys_; }
  std::vector<SortKey>& mutable_keys() { return keys_; }

  std::string Label() const override;

 private:
  std::vector<SortKey> keys_;
};

class DistinctNode : public PlanNode {
 public:
  explicit DistinctNode(PlanNodePtr child)
      : PlanNode(Kind::kDistinct, child->schema()) {
    children_.push_back(std::move(child));
  }

  std::string Label() const override { return "Distinct"; }
};

enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

std::string_view AggFuncToString(AggFunc f);

class AggregateNode : public PlanNode {
 public:
  struct AggSpec {
    AggFunc func;
    /// Argument over the child schema; null for COUNT(*).
    BoundExprPtr arg;
  };

  AggregateNode(PlanNodePtr child, std::vector<BoundExprPtr> group_by,
                std::vector<AggSpec> aggs, Schema output_schema)
      : PlanNode(Kind::kAggregate, std::move(output_schema)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {
    children_.push_back(std::move(child));
  }

  const std::vector<BoundExprPtr>& group_by() const { return group_by_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }

  std::string Label() const override;

 private:
  std::vector<BoundExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
};

class LimitNode : public PlanNode {
 public:
  LimitNode(PlanNodePtr child, int64_t limit)
      : PlanNode(Kind::kLimit, child->schema()), limit_(limit) {
    children_.push_back(std::move(child));
  }

  int64_t limit() const { return limit_; }

  std::string Label() const override;

 private:
  int64_t limit_;
};

/// What ReqSync does with a tuple whose external call fails (or times
/// out). The paper assumes a perfect Web; real engines hang, drop
/// requests, and return errors, so degradation must be a per-query
/// choice.
enum class OnCallError {
  /// Abort the whole query with the call's error (strict; default).
  kFailQuery,
  /// Cancel every tuple waiting on the failed call, as if the call had
  /// returned zero rows; the query answers from whatever succeeded.
  kDropTuple,
  /// Complete waiting tuples with NULL in the columns the call would
  /// have filled; the row count is preserved, gaps are visible.
  kNullPad,
};

std::string_view OnCallErrorToString(OnCallError policy);

/// Request synchronizer (paper §4.1): buffers incomplete tuples and
/// patches placeholders as their ReqPump calls complete, performing
/// tuple cancellation / completion / proliferation (§4.3–4.4).
class ReqSyncNode : public PlanNode {
 public:
  ReqSyncNode(PlanNodePtr child, std::vector<size_t> patched_columns)
      : PlanNode(Kind::kReqSync, child->schema()),
        patched_columns_(std::move(patched_columns)) {
    children_.push_back(std::move(child));
  }

  /// Streaming mode (paper §4.1: "it might make sense for ReqSync to
  /// make completed tuples available to its parent before exhausting
  /// execution of its child subplan"): Next() interleaves child pulls
  /// with completion processing instead of full-buffering at Open().
  /// Improves time-to-first-row; calls still launch as the child is
  /// drained, which now happens under the parent's demand.
  bool streaming = false;

  /// Degradation policy for failed external calls (deadline exceeded,
  /// engine unavailable, hard error after retries).
  OnCallError on_call_error = OnCallError::kFailQuery;

  /// "ReqSync.A" (paper §4.5.2): indices of columns whose values this
  /// operator fills in; maintained through percolation for clash
  /// analysis.
  const std::vector<size_t>& patched_columns() const {
    return patched_columns_;
  }
  std::vector<size_t>* mutable_patched_columns() {
    return &patched_columns_;
  }

  std::string Label() const override;

 private:
  std::vector<size_t> patched_columns_;
};

}  // namespace wsq

#endif  // WSQ_PLAN_LOGICAL_PLAN_H_
