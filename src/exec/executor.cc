#include "exec/executor.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/basic_ops.h"
#include "exec/join_ops.h"
#include "exec/req_sync_op.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"

namespace wsq {

namespace {

Result<std::unique_ptr<VScanOperator>> BuildVScan(const EVScanNode& node,
                                                  ExecContext* ctx) {
  if (ctx->pump == nullptr) {
    return Status::InvalidArgument(
        "plan contains an external scan but no ReqPump was supplied");
  }
  ctx->issued_calls_charge.Bind(ctx->memory);
  std::unique_ptr<VScanOperator> scan;
  if (node.async) {
    scan = std::make_unique<AEVScanOperator>(&node, ctx);
  } else {
    scan = std::make_unique<EVScanOperator>(&node, ctx);
  }
  scan->SetCancelToken(ctx->token);
  scan->SetObservability(ctx->tracer, ctx->profile, node.Label());
  return scan;
}

// Closes the tree, then resolves every call its scans registered that
// nothing consumed. Once an AEVScan emits its placeholder tuple the
// call belongs to that tuple's consumer, so a call whose tuple a join
// or filter below the ReqSync discarded has no taker, and neither has
// one registered but never emitted, nor one an EVScan stopped waiting
// for when the query was cancelled or ran out of budget. Cancelling and
// taking what is left keeps the shared ReqPumpHash clean without
// waiting on the network. A plan with no external scan has no calls
// and may have no pump.
Status CloseTree(Operator* root, ExecContext* ctx) {
  Status closed = root->Close();
  if (!ctx->issued_calls.empty()) {
    ctx->stats.cancelled_calls +=
        ctx->pump->CancelAndTake(ctx->issued_calls);
  }
  ctx->issued_calls.clear();
  ctx->issued_calls_charge.ReleaseAll();
  return closed;
}

}  // namespace

Result<OperatorPtr> BuildOperatorTree(const PlanNode& plan,
                                      ExecContext* ctx) {
  OperatorPtr op;
  switch (plan.kind()) {
    case PlanNode::Kind::kScan:
      op = std::make_unique<SeqScanOperator>(
          static_cast<const ScanNode*>(&plan));
      break;

    case PlanNode::Kind::kIndexScan:
      op = std::make_unique<IndexScanOperator>(
          static_cast<const IndexScanNode*>(&plan));
      break;

    case PlanNode::Kind::kEVScan: {
      WSQ_ASSIGN_OR_RETURN(
          std::unique_ptr<VScanOperator> scan,
          BuildVScan(static_cast<const EVScanNode&>(plan), ctx));
      op = std::move(scan);
      break;
    }

    case PlanNode::Kind::kFilter: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperatorTree(*plan.child(0), ctx));
      op = std::make_unique<FilterOperator>(
          static_cast<const FilterNode*>(&plan), std::move(child));
      break;
    }

    case PlanNode::Kind::kProject: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperatorTree(*plan.child(0), ctx));
      op = std::make_unique<ProjectOperator>(
          static_cast<const ProjectNode*>(&plan), std::move(child));
      break;
    }

    case PlanNode::Kind::kNestedLoopJoin: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr left,
                           BuildOperatorTree(*plan.child(0), ctx));
      WSQ_ASSIGN_OR_RETURN(OperatorPtr right,
                           BuildOperatorTree(*plan.child(1), ctx));
      op = std::make_unique<NestedLoopJoinOperator>(
          static_cast<const NestedLoopJoinNode*>(&plan), std::move(left),
          std::move(right), ctx);
      break;
    }

    case PlanNode::Kind::kCrossProduct: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr left,
                           BuildOperatorTree(*plan.child(0), ctx));
      WSQ_ASSIGN_OR_RETURN(OperatorPtr right,
                           BuildOperatorTree(*plan.child(1), ctx));
      op = std::make_unique<CrossProductOperator>(
          static_cast<const CrossProductNode*>(&plan), std::move(left),
          std::move(right), ctx);
      break;
    }

    case PlanNode::Kind::kDependentJoin: {
      if (plan.child(1)->kind() != PlanNode::Kind::kEVScan) {
        return Status::Internal(
            "dependent join requires an EVScan as its right child "
            "(plan rewrite produced: " +
            plan.child(1)->Label() + ")");
      }
      WSQ_ASSIGN_OR_RETURN(OperatorPtr left,
                           BuildOperatorTree(*plan.child(0), ctx));
      WSQ_ASSIGN_OR_RETURN(
          std::unique_ptr<VScanOperator> right,
          BuildVScan(static_cast<const EVScanNode&>(*plan.child(1)),
                     ctx));
      op = std::make_unique<DependentJoinOperator>(
          static_cast<const DependentJoinNode*>(&plan), std::move(left),
          std::move(right));
      break;
    }

    case PlanNode::Kind::kSort: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperatorTree(*plan.child(0), ctx));
      op = std::make_unique<SortOperator>(
          static_cast<const SortNode*>(&plan), std::move(child), ctx);
      break;
    }

    case PlanNode::Kind::kDistinct: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperatorTree(*plan.child(0), ctx));
      op = std::make_unique<DistinctOperator>(
          static_cast<const DistinctNode*>(&plan), std::move(child), ctx);
      break;
    }

    case PlanNode::Kind::kAggregate: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperatorTree(*plan.child(0), ctx));
      op = std::make_unique<AggregateOperator>(
          static_cast<const AggregateNode*>(&plan), std::move(child), ctx);
      break;
    }

    case PlanNode::Kind::kLimit: {
      WSQ_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperatorTree(*plan.child(0), ctx));
      op = std::make_unique<LimitOperator>(
          static_cast<const LimitNode*>(&plan), std::move(child));
      break;
    }

    case PlanNode::Kind::kReqSync: {
      if (ctx->pump == nullptr) {
        return Status::InvalidArgument(
            "plan contains a ReqSync but no ReqPump was supplied");
      }
      WSQ_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperatorTree(*plan.child(0), ctx));
      op = std::make_unique<ReqSyncOperator>(
          static_cast<const ReqSyncNode*>(&plan), std::move(child), ctx);
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown plan node kind");
  op->SetCancelToken(ctx->token);
  op->SetObservability(ctx->tracer, ctx->profile, plan.Label());
  return op;
}

Result<ResultSet> ExecutePlan(const PlanNode& plan, ExecContext* ctx,
                              PlanProfileNode* profile_out) {
  if (profile_out != nullptr) ctx->profile = true;
  WSQ_ASSIGN_OR_RETURN(OperatorPtr root, BuildOperatorTree(plan, ctx));
  ResultSet result;
  result.schema = plan.schema();

  Status opened = root->Open();
  if (!opened.ok()) {
    // A blocking operator (e.g. Sort) drains its child inside Open, so
    // a degraded-call error can surface here too: close anyway so the
    // calls already issued are cancelled instead of leaking. The Open
    // error is the one the caller needs to see.
    WSQ_IGNORE_STATUS(CloseTree(root.get(), ctx));
    return opened;
  }
  Row row;
  while (true) {
    auto more = root->Next(&row);
    if (!more.ok()) {
      // Cancel outstanding calls even on error; the Next error wins.
      WSQ_IGNORE_STATUS(CloseTree(root.get(), ctx));
      return more.status();
    }
    if (!*more) break;
    result.rows.push_back(std::move(row));
  }
  WSQ_RETURN_IF_ERROR(CloseTree(root.get(), ctx));
  if (profile_out != nullptr) *profile_out = root->BuildProfileTree();
  return result;
}

std::string ResultSet::ToString(size_t max_rows) const {
  size_t n = rows.size();
  if (max_rows > 0) n = std::min(n, max_rows);

  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  header.reserve(schema.NumColumns());
  for (const Column& c : schema.columns()) {
    header.push_back(c.QualifiedName());
  }
  cells.push_back(header);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> line;
    line.reserve(rows[r].size());
    for (const Value& v : rows[r].values()) {
      line.push_back(v.is_string() ? v.AsString() : v.ToString());
    }
    cells.push_back(std::move(line));
  }

  std::vector<size_t> widths(schema.NumColumns(), 0);
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
  }

  std::string out;
  for (size_t i = 0; i < cells.size(); ++i) {
    for (size_t c = 0; c < cells[i].size(); ++c) {
      out += cells[i][c];
      if (c + 1 < cells[i].size()) {
        out.append(widths[c] - cells[i][c].size() + 2, ' ');
      }
    }
    out += '\n';
    if (i == 0) {
      size_t total = 0;
      for (size_t c = 0; c < widths.size(); ++c) {
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
      }
      out.append(total, '-');
      out += '\n';
    }
  }
  if (n < rows.size()) {
    out += StrFormat("... (%zu more rows)\n", rows.size() - n);
  }
  return out;
}

}  // namespace wsq
