#include "plan/async_rewriter.h"

#include <algorithm>
#include <set>

#include "common/macros.h"

namespace wsq {

namespace {

bool ExprReferencesAny(const BoundExpr& expr,
                       const std::vector<size_t>& columns) {
  std::vector<size_t> refs;
  expr.CollectColumns(&refs);
  for (size_t r : refs) {
    if (std::find(columns.begin(), columns.end(), r) != columns.end()) {
      return true;
    }
  }
  return false;
}

std::vector<size_t> OffsetColumns(const std::vector<size_t>& columns,
                                  size_t offset) {
  std::vector<size_t> out;
  out.reserve(columns.size());
  for (size_t c : columns) out.push_back(c + offset);
  return out;
}

/// For a Project above a ReqSync with attribute set A (child coords):
/// returns the output positions of A if every use of an A-column is a
/// bare column reference and none is dropped; nullopt on clash.
std::optional<std::vector<size_t>> MapThroughProject(
    const ProjectNode& project, const std::vector<size_t>& a) {
  std::set<size_t> a_set(a.begin(), a.end());
  std::set<size_t> preserved;
  std::vector<size_t> out;
  for (size_t j = 0; j < project.exprs().size(); ++j) {
    const BoundExpr& e = *project.exprs()[j];
    if (e.kind() == BoundExpr::Kind::kColumnRef) {
      size_t idx = static_cast<const BoundColumnRef&>(e).index();
      if (a_set.count(idx) > 0) {
        preserved.insert(idx);
        out.push_back(j);
      }
      continue;
    }
    // Computed expression: must not touch A (clash case 1).
    if (ExprReferencesAny(e, a)) return std::nullopt;
  }
  // Dropping an A column breaks cancellation/proliferation (case 2).
  if (preserved.size() != a_set.size()) return std::nullopt;
  return out;
}

/// Insertion (§4.5.1): converts every EVScan to an AEVScan and places a
/// ReqSync at the lowest *executable* position above it: directly above
/// the scan for a leaf, or above the enclosing dependent join / cross
/// product when the scan is a join's right child (a dependent join must
/// keep its scan as the immediate right child so it can rebind it).
void InsertReqSyncs(PlanNodePtr* slot) {
  PlanNode* node = slot->get();

  if (node->kind() == PlanNode::Kind::kEVScan) {
    auto* scan = static_cast<EVScanNode*>(node);
    scan->async = true;
    std::vector<size_t> patched = scan->OutputColumnIndices();
    *slot = std::make_unique<ReqSyncNode>(std::move(*slot),
                                          std::move(patched));
    return;
  }

  bool joins_scan_right =
      (node->kind() == PlanNode::Kind::kDependentJoin ||
       node->kind() == PlanNode::Kind::kCrossProduct) &&
      node->num_children() == 2 &&
      node->child(1)->kind() == PlanNode::Kind::kEVScan;

  if (joins_scan_right) {
    InsertReqSyncs(&node->children()[0]);
    auto* scan = static_cast<EVScanNode*>(node->child(1));
    scan->async = true;
    size_t left_width = node->child(0)->schema().NumColumns();
    std::vector<size_t> patched =
        OffsetColumns(scan->OutputColumnIndices(), left_width);
    *slot = std::make_unique<ReqSyncNode>(std::move(*slot),
                                          std::move(patched));
    return;
  }

  for (auto& child : node->children()) {
    InsertReqSyncs(&child);
  }
}

/// Can a clashing Filter `f` (child slot `cf` of `g`) be hoisted above
/// `g`? If so fills `remap` with the column mapping for f's predicate
/// (old index → new index; identity when empty).
bool CanHoistFilter(const PlanNode& g, size_t cf,
                    const FilterNode& f, std::vector<int>* remap) {
  remap->clear();
  switch (g.kind()) {
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kDistinct:
      // σ commutes with σ and with duplicate elimination.
      return true;
    case PlanNode::Kind::kNestedLoopJoin:
    case PlanNode::Kind::kCrossProduct:
    case PlanNode::Kind::kDependentJoin: {
      if (cf == 0) return true;  // left columns keep their indices
      size_t left_width = g.child(0)->schema().NumColumns();
      size_t in_width = f.schema().NumColumns();
      remap->assign(in_width, -1);
      for (size_t i = 0; i < in_width; ++i) {
        (*remap)[i] = static_cast<int>(i + left_width);
      }
      return true;
    }
    case PlanNode::Kind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(g);
      std::vector<size_t> used;
      f.predicate().CollectColumns(&used);
      size_t in_width = f.schema().NumColumns();
      remap->assign(in_width, -1);
      for (size_t j = 0; j < project.exprs().size(); ++j) {
        const BoundExpr& e = *project.exprs()[j];
        if (e.kind() == BoundExpr::Kind::kColumnRef) {
          size_t idx = static_cast<const BoundColumnRef&>(e).index();
          if (idx < in_width && (*remap)[idx] < 0) {
            (*remap)[idx] = static_cast<int>(j);
          }
        }
      }
      for (size_t u : used) {
        if (u >= in_width || (*remap)[u] < 0) return false;
      }
      return true;
    }
    default:
      // Sort (order), Limit (cardinality), Aggregate (grouping) do not
      // commute with a selection hoist.
      return false;
  }
}

/// One rewrite step anywhere in the tree; returns true if it changed.
bool TryRewriteOnce(PlanNodePtr* slot, const RewriteOptions& options,
                    Status* error) {
  PlanNode* node = slot->get();

  // Pattern 1: this node has a ReqSync child — try to pull it above us.
  for (size_t ci = 0; ci < node->num_children(); ++ci) {
    if (node->child(ci)->kind() != PlanNode::Kind::kReqSync) continue;
    if (node->kind() == PlanNode::Kind::kReqSync) break;  // consolidation
    auto* rs = static_cast<ReqSyncNode*>(node->child(ci));
    const std::vector<size_t>& a = rs->patched_columns();

    // Attribute set in this node's coordinate space.
    size_t left_width =
        ci == 1 ? node->child(0)->schema().NumColumns() : 0;
    std::vector<size_t> a_here = OffsetColumns(a, left_width);

    bool clash = false;
    bool join_pred_clash = false;
    std::vector<size_t> a_after;  // A in this node's output coords

    switch (node->kind()) {
      case PlanNode::Kind::kFilter: {
        const auto& f = static_cast<const FilterNode&>(*node);
        clash = ExprReferencesAny(f.predicate(), a_here);
        a_after = a_here;
        break;
      }
      case PlanNode::Kind::kProject: {
        const auto& p = static_cast<const ProjectNode&>(*node);
        auto mapped = MapThroughProject(p, a_here);
        clash = !mapped.has_value();
        if (!clash) a_after = std::move(*mapped);
        break;
      }
      case PlanNode::Kind::kNestedLoopJoin: {
        const auto& j = static_cast<const NestedLoopJoinNode&>(*node);
        if (ExprReferencesAny(j.predicate(), a_here)) {
          clash = true;
          join_pred_clash = true;
        }
        a_after = a_here;
        break;
      }
      case PlanNode::Kind::kCrossProduct:
        a_after = a_here;
        break;
      case PlanNode::Kind::kDependentJoin: {
        const auto& dj = static_cast<const DependentJoinNode&>(*node);
        if (ci == 0) {
          for (const auto& b : dj.bindings()) {
            if (std::find(a.begin(), a.end(), b.left_column) !=
                a.end()) {
              clash = true;  // the join depends on a pending value
            }
          }
        }
        a_after = a_here;
        break;
      }
      case PlanNode::Kind::kSort:
        // ReqSync emits in completion order; pulling it above a Sort
        // would destroy the ordering even when the keys are complete.
        clash = true;
        break;
      case PlanNode::Kind::kDistinct:
      case PlanNode::Kind::kAggregate:
      case PlanNode::Kind::kLimit:
        clash = true;  // §4.5.2 case 3 (tuple-count sensitivity)
        break;
      default:
        clash = true;
        break;
    }

    if (!clash) {
      // Swap: ReqSync moves above this node.
      PlanNodePtr rs_owned = std::move(node->children()[ci]);
      auto* rs_node = static_cast<ReqSyncNode*>(rs_owned.get());
      node->children()[ci] = std::move(rs_node->children()[0]);
      rs_node->children()[0] = std::move(*slot);
      *rs_node->mutable_schema() = rs_node->child(0)->schema();
      *rs_node->mutable_patched_columns() = std::move(a_after);
      *slot = std::move(rs_owned);
      return true;
    }

    if (join_pred_clash && options.rewrite_clashing_joins) {
      // join(p) → σ_p(×) (§4.5.2); column indices are unchanged.
      auto* join = static_cast<NestedLoopJoinNode*>(node);
      BoundExprPtr pred = join->TakePredicate();
      auto cross = std::make_unique<CrossProductNode>(
          std::move(join->children()[0]), std::move(join->children()[1]));
      *slot = std::make_unique<FilterNode>(std::move(cross),
                                           std::move(pred));
      return true;
    }
  }

  // Pattern 2: grandparent view — a clashing Filter sitting on a
  // ReqSync is hoisted above this node so the ReqSync can continue.
  for (size_t cf = 0; cf < node->num_children(); ++cf) {
    if (node->child(cf)->kind() != PlanNode::Kind::kFilter) continue;
    auto* filter = static_cast<FilterNode*>(node->child(cf));
    if (filter->child(0)->kind() != PlanNode::Kind::kReqSync) continue;
    auto* rs = static_cast<ReqSyncNode*>(filter->child(0));
    if (!ExprReferencesAny(filter->predicate(),
                           rs->patched_columns())) {
      continue;  // not clashing; pattern 1 will move the ReqSync
    }
    // If this node is itself a filter clashing with the same ReqSync,
    // both filters belong above it — hoisting between them would cycle.
    if (node->kind() == PlanNode::Kind::kFilter &&
        ExprReferencesAny(
            static_cast<const FilterNode*>(node)->predicate(),
            rs->patched_columns())) {
      continue;
    }
    std::vector<int> remap;
    if (!CanHoistFilter(*node, cf, *filter, &remap)) continue;

    PlanNodePtr f_owned = std::move(node->children()[cf]);
    auto* f = static_cast<FilterNode*>(f_owned.get());
    node->children()[cf] = std::move(f->children()[0]);
    if (!remap.empty()) {
      Status s = f->mutable_predicate()->RemapColumns(remap);
      if (!s.ok()) {
        *error = s;
        return false;
      }
    }
    f->children()[0] = std::move(*slot);
    *f->mutable_schema() = f->child(0)->schema();
    *slot = std::move(f_owned);
    return true;
  }

  // Recurse.
  for (auto& child : node->children()) {
    if (TryRewriteOnce(&child, options, error)) return true;
    if (!error->ok()) return false;
  }
  return false;
}

/// Consolidation (§4.5.3): merge directly-adjacent ReqSyncs.
bool ConsolidateOnce(PlanNodePtr* slot) {
  PlanNode* node = slot->get();
  if (node->kind() == PlanNode::Kind::kReqSync &&
      node->child(0)->kind() == PlanNode::Kind::kReqSync) {
    auto* upper = static_cast<ReqSyncNode*>(node);
    auto* lower = static_cast<ReqSyncNode*>(node->child(0));
    std::set<size_t> merged(upper->patched_columns().begin(),
                            upper->patched_columns().end());
    merged.insert(lower->patched_columns().begin(),
                  lower->patched_columns().end());
    *upper->mutable_patched_columns() =
        std::vector<size_t>(merged.begin(), merged.end());
    upper->children()[0] = std::move(lower->children()[0]);
    return true;
  }
  for (auto& child : node->children()) {
    if (ConsolidateOnce(&child)) return true;
  }
  return false;
}

}  // namespace

size_t CountReqSyncs(const PlanNode& plan) {
  size_t n = plan.kind() == PlanNode::Kind::kReqSync ? 1 : 0;
  for (const auto& child : plan.children()) {
    n += CountReqSyncs(*child);
  }
  return n;
}

size_t CountAsyncScans(const PlanNode& plan) {
  size_t n = 0;
  if (plan.kind() == PlanNode::Kind::kEVScan &&
      static_cast<const EVScanNode&>(plan).async) {
    n = 1;
  }
  for (const auto& child : plan.children()) {
    n += CountAsyncScans(*child);
  }
  return n;
}

namespace {
void SetStreaming(PlanNode* node) {
  if (node->kind() == PlanNode::Kind::kReqSync) {
    static_cast<ReqSyncNode*>(node)->streaming = true;
  }
  for (auto& child : node->children()) SetStreaming(child.get());
}

void SetOnCallError(PlanNode* node, OnCallError policy) {
  if (node->kind() == PlanNode::Kind::kReqSync) {
    static_cast<ReqSyncNode*>(node)->on_call_error = policy;
  }
  for (auto& child : node->children()) {
    SetOnCallError(child.get(), policy);
  }
}
}  // namespace

Result<PlanNodePtr> ApplyAsyncIteration(PlanNodePtr plan,
                                        RewriteOptions options) {
  InsertReqSyncs(&plan);

  if (!options.insert_only) {
    Status error;
    while (TryRewriteOnce(&plan, options, &error)) {
    }
    WSQ_RETURN_IF_ERROR(error);
  }

  if (options.consolidate) {
    while (ConsolidateOnce(&plan)) {
    }
  }
  if (options.streaming_reqsync) {
    SetStreaming(plan.get());
  }
  if (options.on_call_error != OnCallError::kFailQuery) {
    SetOnCallError(plan.get(), options.on_call_error);
  }
  return plan;
}

}  // namespace wsq
