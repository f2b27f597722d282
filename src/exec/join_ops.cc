#include "exec/join_ops.h"

#include "common/macros.h"

namespace wsq {

Status NestedLoopJoinOperator::OpenImpl() {
  WSQ_RETURN_IF_ERROR(left_->Open());
  WSQ_RETURN_IF_ERROR(right_->Open());
  right_rows_.clear();
  mem_.ReleaseAll();
  mem_.Bind(ctx_->memory);
  Row row;
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_ASSIGN_OR_RETURN(bool more, right_->Next(&row));
    if (!more) break;
    size_t delta = row.ApproxBytes() + sizeof(Row);
    if (!mem_.TryAdd(delta)) mem_.ForceAdd(delta);
    right_rows_.push_back(row);
  }
  WSQ_RETURN_IF_ERROR(right_->Close());
  have_left_ = false;
  right_pos_ = 0;
  RecordPeakBytes(mem_.peak_bytes());
  return Status::OK();
}

Result<bool> NestedLoopJoinOperator::NextImpl(Row* row) {
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    if (!have_left_) {
      WSQ_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
      if (!more) return false;
      have_left_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      Row candidate = Row::Concat(left_row_, right_rows_[right_pos_]);
      ++right_pos_;
      if (node_ != nullptr) {
        WSQ_ASSIGN_OR_RETURN(bool pass,
                             EvalPredicate(node_->predicate(), candidate));
        if (!pass) continue;
      }
      *row = std::move(candidate);
      return true;
    }
    have_left_ = false;
  }
}

Status NestedLoopJoinOperator::CloseImpl() {
  right_rows_.clear();
  mem_.ReleaseAll();
  return left_->Close();
}

Status DependentJoinOperator::OpenImpl() {
  WSQ_RETURN_IF_ERROR(left_->Open());
  have_left_ = false;
  right_open_ = false;
  return Status::OK();
}

Result<bool> DependentJoinOperator::NextImpl(Row* row) {
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    if (!have_left_) {
      WSQ_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
      if (!more) return false;
      have_left_ = true;

      std::vector<std::pair<size_t, Value>> bindings;
      bindings.reserve(node_->bindings().size());
      for (const DependentJoinNode::Binding& b : node_->bindings()) {
        if (b.left_column >= left_row_.size()) {
          return Status::Internal(
              "dependent join binding out of range");
        }
        // Bounded by the plan's binding count, consumed immediately.
        // wsqcheck: allow(unbounded-op-growth)
        bindings.emplace_back(b.term_index,
                              left_row_.value(b.left_column));
      }
      right_->BindTerms(std::move(bindings));
      WSQ_RETURN_IF_ERROR(right_->Open());
      right_open_ = true;
    }
    Row right_row;
    WSQ_ASSIGN_OR_RETURN(bool more, right_->Next(&right_row));
    if (!more) {
      WSQ_RETURN_IF_ERROR(right_->Close());
      right_open_ = false;
      have_left_ = false;
      continue;
    }
    *row = Row::Concat(left_row_, right_row);
    return true;
  }
}

Status DependentJoinOperator::CloseImpl() {
  if (right_open_) {
    WSQ_RETURN_IF_ERROR(right_->Close());
    right_open_ = false;
  }
  return left_->Close();
}

}  // namespace wsq
