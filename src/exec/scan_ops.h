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

/// The one call path to an external virtual table, shared by both
/// scans: IssueCall builds the VTableRequest from constants plus
/// dependent bindings (and the query's shard policy,
/// ExecContext::shard), clamps the call's timeout to the query's
/// remaining budget, registers it on ExecContext::pump, records its id
/// in ExecContext::issued_calls and counts it in ExecContext::stats.
class VScanBase : public VScanOperator {
 public:
  VScanBase(const EVScanNode* node, ExecContext* ctx)
      : VScanOperator(&node->schema()), node_(node), ctx_(ctx) {}

  void BindTerms(
      std::vector<std::pair<size_t, Value>> bindings) override {
    bound_terms_ = std::move(bindings);
  }

 protected:
  /// Issues this Open's call; `*inputs` receives the input-column values
  /// (SearchExp, T1..Tn) that every row the scan emits starts with.
  /// Fails without issuing anything once the query is cancelled or out
  /// of budget, or when a term is missing or NULL.
  Result<CallId> IssueCall(Row* inputs);

  const EVScanNode* node_;
  ExecContext* ctx_;

 private:
  Result<VTableRequest> BuildRequest() const;

  std::vector<std::pair<size_t, Value>> bound_terms_;
};

/// Sequential external scan (the paper's baseline execution): Open
/// issues one call and waits for it in ReqPump::TakeBlocking under the
/// query's token, so deadlines, pump limits, retries, the breaker and
/// the shard policy apply exactly as for AEVScan. A failed call fails
/// the query.
class EVScanOperator : public VScanBase {
 public:
  EVScanOperator(const EVScanNode* node, ExecContext* ctx)
      : VScanBase(node, ctx) {}

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

 private:
  Row inputs_;
  /// The call's output rows; Next prefixes each with `inputs_`.
  std::vector<Row> outputs_;
  size_t next_ = 0;
};

/// Asynchronous external scan (paper §4.1): Open issues the call; Next
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
  Row inputs_;
  bool emitted_ = false;
};

}  // namespace wsq

#endif  // WSQ_EXEC_SCAN_OPS_H_
