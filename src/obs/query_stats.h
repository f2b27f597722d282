#ifndef WSQ_OBS_QUERY_STATS_H_
#define WSQ_OBS_QUERY_STATS_H_

#include <cstdint>

namespace wsq {

/// Observability for one executed query: the only copy of its counters.
/// Operators bump them through ExecContext::stats on the executor
/// thread; Execute returns them in QueryExecution::stats and the query
/// log renders them (obs/query_log.h).
struct QueryStats {
  /// Process-unique query id (also tags the query log's records).
  uint64_t query_id = 0;
  int64_t elapsed_micros = 0;
  /// External (search engine) calls issued by this query.
  uint64_t external_calls = 0;
  /// Whether asynchronous iteration was used.
  bool async_iteration = false;
  /// External calls that completed with an error (including deadline
  /// timeouts): handled by a ReqSync, or failing a sequential EVScan.
  uint64_t failed_calls = 0;
  /// Tuples cancelled under OnCallError::kDropTuple.
  uint64_t dropped_tuples = 0;
  /// Tuples completed with NULLs under OnCallError::kNullPad.
  uint64_t null_padded_tuples = 0;
  /// Outstanding external calls cancelled because no tuple would use
  /// their answers: still awaited when a ReqSync closed (its tuples
  /// already cancelled, an early stop under LIMIT, an error, a deadline
  /// or an explicit cancel), or whose tuples were dropped below it.
  uint64_t cancelled_calls = 0;
  /// Peak pending tuples / approximate bytes buffered by any ReqSync
  /// (max across operators).
  uint64_t peak_buffered_rows = 0;
  uint64_t peak_buffered_bytes = 0;
  /// External calls that answered OK but from a strict subset of their
  /// backend's shards (quorum / best-effort degradation), and the total
  /// shards missing across those calls. Nonzero means counts in the
  /// result are lower bounds.
  uint64_t partial_results = 0;
  uint64_t degraded_shards = 0;
  /// External calls the pump sent a second time (a hedge or a failover;
  /// see ReqPump::Register), and those the second dispatch answered.
  uint64_t hedged_calls = 0;
  uint64_t hedge_wins = 0;
  /// Memory governor: bytes written to spill runs (Sort/Aggregate
  /// degrading to external algorithms) and the number of runs.
  uint64_t spilled_bytes = 0;
  uint64_t spill_runs = 0;
  /// High-water mark of the query's tracked reservations.
  uint64_t peak_memory_bytes = 0;
  /// Bytes freed by pressure callbacks (result cache / buffer pool
  /// shedding) on behalf of this query's reservations.
  uint64_t pressure_released_bytes = 0;

  /// Tuples dropped or NULL-padded by a degradation policy.
  uint64_t degraded_tuples() const {
    return dropped_tuples + null_padded_tuples;
  }
  /// True when the answer is degraded: partial shard results or
  /// degraded tuples.
  bool degraded() const {
    return partial_results > 0 || degraded_tuples() > 0;
  }
};

}  // namespace wsq

#endif  // WSQ_OBS_QUERY_STATS_H_
