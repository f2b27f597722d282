#ifndef WSQ_EXEC_SCAN_OPS_H_
#define WSQ_EXEC_SCAN_OPS_H_

#include <optional>
#include <vector>

#include "async/req_pump.h"
#include "catalog/catalog.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace wsq {

struct ExecContext;  // exec/executor.h

/// Stored-table sequential scan.
class SeqScanOperator : public Operator {
 public:
  explicit SeqScanOperator(const ScanNode* node)
      : Operator(&node->schema()), node_(node) {}

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

 private:
  const ScanNode* node_;
  std::optional<TableScanner> scanner_;
};

/// Equality lookup through a B+ tree index.
class IndexScanOperator : public Operator {
 public:
  explicit IndexScanOperator(const IndexScanNode* node)
      : Operator(&node->schema()), node_(node) {}

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

 private:
  const IndexScanNode* node_;
  std::vector<Rid> rids_;
  size_t next_ = 0;
};

/// Shared logic for external virtual table scans: assembling the
/// VTableRequest from constants plus dependent bindings (and the
/// query's shard policy, ExecContext::shard), and counting each issued
/// call in ExecContext::stats.
class VScanBase : public VScanOperator {
 public:
  VScanBase(const EVScanNode* node, ExecContext* ctx)
      : VScanOperator(&node->schema()), node_(node), ctx_(ctx) {}

  void BindTerms(
      std::vector<std::pair<size_t, Value>> bindings) override {
    bound_terms_ = std::move(bindings);
  }

 protected:
  /// Builds the request; fails if any term is missing or NULL.
  Result<VTableRequest> BuildRequest() const;

  /// Leading (input-column) values shared by every emitted row.
  Result<std::vector<Value>> InputValues(
      const VTableRequest& request) const;

  /// Counts one issued external call in the query's stats and the
  /// operator profile.
  void CountExternalCall();

  const EVScanNode* node_;
  ExecContext* ctx_;
  std::vector<std::pair<size_t, Value>> bound_terms_;
};

/// Blocking external scan: one synchronous call per Open (paper's
/// baseline execution).
class EVScanOperator : public VScanBase {
 public:
  EVScanOperator(const EVScanNode* node, ExecContext* ctx)
      : VScanBase(node, ctx) {}

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

 private:
  std::vector<Row> rows_;
  size_t next_ = 0;
};

/// Asynchronous external scan (paper §4.1): Open registers the call
/// with ctx->pump and records its id in ExecContext::issued_calls; Next
/// immediately returns ONE provisional tuple whose output attributes
/// are placeholders naming the call. A ReqSync operator above patches,
/// cancels, or proliferates it later.
class AEVScanOperator : public VScanBase {
 public:
  AEVScanOperator(const EVScanNode* node, ExecContext* ctx)
      : VScanBase(node, ctx) {}

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

 private:
  CallId call_ = kInvalidCallId;
  std::vector<Value> inputs_;
  bool emitted_ = false;
};

}  // namespace wsq

#endif  // WSQ_EXEC_SCAN_OPS_H_
