#ifndef WSQ_EXEC_JOIN_OPS_H_
#define WSQ_EXEC_JOIN_OPS_H_

#include <vector>

#include "common/memory.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace wsq {

/// Nested-loop join with the right side materialized at Open (the only
/// join technique in Redbase, paper §5). The materialized build side
/// is charged to the query memory budget (TryAdd with ForceAdd
/// fallback — no spill path, so overages are tracked, not fatal).
class NestedLoopJoinOperator : public Operator {
 public:
  NestedLoopJoinOperator(const NestedLoopJoinNode* node, OperatorPtr left,
                         OperatorPtr right, ExecContext* ctx)
      : Operator(&node->schema()),
        node_(node),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {
    AddChild(left_.get());
    AddChild(right_.get());
  }

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

 private:
  const NestedLoopJoinNode* node_;  // null for cross product
  OperatorPtr left_;
  OperatorPtr right_;
  ExecContext* ctx_;
  MemoryReservation mem_;
  std::vector<Row> right_rows_;
  Row left_row_;
  bool have_left_ = false;
  size_t right_pos_ = 0;

 protected:
  NestedLoopJoinOperator(const Schema* schema, OperatorPtr left,
                         OperatorPtr right, ExecContext* ctx)
      : Operator(schema),
        node_(nullptr),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {
    AddChild(left_.get());
    AddChild(right_.get());
  }
};

/// Cross product: a nested-loop join without a predicate.
class CrossProductOperator : public NestedLoopJoinOperator {
 public:
  CrossProductOperator(const CrossProductNode* node, OperatorPtr left,
                       OperatorPtr right, ExecContext* ctx)
      : NestedLoopJoinOperator(&node->schema(), std::move(left),
                               std::move(right), ctx) {}
};

/// Dependent join (paper §4): for every left tuple, binds the right
/// virtual scan's term columns and re-opens it. The right child is
/// always a (A)EVScan by plan construction.
class DependentJoinOperator : public Operator {
 public:
  DependentJoinOperator(const DependentJoinNode* node, OperatorPtr left,
                        std::unique_ptr<VScanOperator> right)
      : Operator(&node->schema()),
        node_(node),
        left_(std::move(left)),
        right_(std::move(right)) {
    AddChild(left_.get());
    AddChild(right_.get());
  }

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

 private:
  const DependentJoinNode* node_;
  OperatorPtr left_;
  std::unique_ptr<VScanOperator> right_;
  Row left_row_;
  bool have_left_ = false;
  bool right_open_ = false;
};

}  // namespace wsq

#endif  // WSQ_EXEC_JOIN_OPS_H_
