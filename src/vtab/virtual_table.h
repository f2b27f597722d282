#ifndef WSQ_VTAB_VIRTUAL_TABLE_H_
#define WSQ_VTAB_VIRTUAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "async/req_pump.h"
#include "common/result.h"
#include "net/shard_policy.h"
#include "types/row.h"
#include "types/schema.h"

namespace wsq {

/// Bound inputs for one access to a virtual table (paper §3): the
/// parameterized search expression, the term bindings T1..Tn, and the
/// rank cutoff for ranked tables.
struct VTableRequest {
  /// Parameterized expression ("%1 near %2"); empty selects the table's
  /// default template for `terms.size()` bound terms.
  std::string search_exp;
  std::vector<std::string> terms;
  /// Maximum Rank to return (WebPages); the binder injects the paper's
  /// default (Rank < 20 ⇒ limit 19) when the query has no restriction.
  int64_t rank_limit = 19;
  /// Per-query partial-result policy, forwarded to sharded backends
  /// (ExecOptions::shard → ExecContext → here → SearchRequest::shard).
  ShardOptions shard = {};
};

/// A table-valued external source: "a program that looks like a table
/// to a query processor, but returns dynamically-generated tuples"
/// (paper §1).
///
/// The schema is a *family*: the number of term columns T1..Tn is fixed
/// per query, not per table (paper §3: "an infinite family of
/// infinitely large virtual tables"). Input columns are
/// [SearchExp, T1..Tn]; output columns follow.
class VirtualTable {
 public:
  virtual ~VirtualTable() = default;

  virtual const std::string& name() const = 0;

  /// ReqPump resource-limit destination (e.g. the engine name); several
  /// virtual tables may share one destination.
  virtual const std::string& destination() const = 0;

  /// Schema instance for `n` bound terms. Columns are qualified with
  /// the table name; the binder re-qualifies for aliases.
  virtual Schema SchemaForTerms(size_t n) const = 0;

  /// Number of trailing output columns in every schema instance.
  virtual size_t NumOutputColumns() const = 0;

  /// True when exactly one output row per request is guaranteed
  /// (WebCount); false when 0..k rows are possible (WebPages).
  virtual bool SingleRowOutput() const = 0;

  /// Name of the rank output column whose `<= k` restrictions the
  /// binder pushes into VTableRequest::rank_limit; empty when the table
  /// has no rank semantics (WebCount).
  virtual std::string RankColumn() const { return ""; }

  /// The SearchExp actually used for `request` — the explicit expression
  /// or, when empty, this table's default template (paper §3: "%1 near
  /// %2 near ... near %n"). Scans use this to fill the SearchExp column.
  virtual std::string EffectiveSearchExp(
      const VTableRequest& request) const {
    return request.search_exp;
  }

  /// The one access path: registers an external call with `pump` and
  /// returns its id immediately. The call's CallResult rows carry the
  /// OUTPUT columns only; the scans prefix them with the already-known
  /// input values (EVScan after waiting for the call, AEVScan via
  /// placeholders). `timeout_micros` > 0 sets an explicit per-call
  /// deadline (the query governor passes the remaining query budget
  /// here so no call outlives its query); <= 0 keeps the pump's
  /// default timeout.
  virtual CallId SubmitAsync(const VTableRequest& request, ReqPump* pump,
                             int64_t timeout_micros) = 0;

  /// Convenience: submit with the pump's default timeout.
  CallId SubmitAsync(const VTableRequest& request, ReqPump* pump) {
    return SubmitAsync(request, pump, 0);
  }
};

/// Name → virtual table registry (kept apart from Catalog because
/// virtual tables have no storage and are owned by the database facade).
class VirtualTableRegistry {
 public:
  VirtualTableRegistry() = default;
  VirtualTableRegistry(const VirtualTableRegistry&) = delete;
  VirtualTableRegistry& operator=(const VirtualTableRegistry&) = delete;

  /// Fails with AlreadyExists on duplicate names (case-insensitive).
  Status Register(std::unique_ptr<VirtualTable> table);

  Result<VirtualTable*> Get(const std::string& name) const;
  bool Has(const std::string& name) const { return Get(name).ok(); }

  /// Names in registration order.
  std::vector<std::string> List() const;

 private:
  std::vector<std::unique_ptr<VirtualTable>> tables_;
};

}  // namespace wsq

#endif  // WSQ_VTAB_VIRTUAL_TABLE_H_
