#ifndef WSQ_NET_SEARCH_SERVICE_H_
#define WSQ_NET_SEARCH_SERVICE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/shard_policy.h"
#include "search/search_engine.h"

namespace wsq {

/// A request to a (remote) search engine.
struct SearchRequest {
  enum class Kind {
    kCount,  ///< WebCount: total hits only.
    kTopK,   ///< WebPages: ranked URLs up to `k`.
  };

  Kind kind = Kind::kCount;
  std::string query;
  size_t k = 20;

  /// Partial-result policy for sharded backends; ignored (harmlessly)
  /// by single-node services. Not part of CacheKey, which identifies
  /// the *work* (kind, k, query): a sharded service keys its shard legs
  /// by it, so requests with different policies share those legs, and
  /// each judges the merged answer by its own policy.
  ShardOptions shard;

  /// Cache key: kind + k + query.
  std::string CacheKey() const;
};

struct SearchResponse {
  Status status;
  int64_t count = 0;             // kCount
  std::vector<SearchHit> hits;   // kTopK
  /// Sharded backends report coverage: how many shards the logical call
  /// fanned out to and how many failed to answer. `partial` is set when
  /// the response was merged from a strict subset of shards (quorum /
  /// best-effort degradation) — counts are then lower bounds.
  int shards_total = 0;
  int shards_failed = 0;
  bool partial = false;

  /// Approximate heap footprint of the payload (struct + hit strings);
  /// what the result cache charges against its byte bound and the
  /// process memory budget.
  size_t ApproxBytes() const;
};

using SearchCallback = std::function<void(SearchResponse)>;

/// Asynchronous interface to one search engine "across the network".
///
/// Submit returns immediately; the callback fires from a service thread
/// once the simulated round-trip elapses. Implementations must eventually
/// complete every accepted request, including during shutdown.
class SearchService {
 public:
  virtual ~SearchService() = default;

  virtual const std::string& name() const = 0;

  virtual void Submit(SearchRequest request, SearchCallback done) = 0;

  /// Blocking convenience wrapper around Submit for tests and benches;
  /// the query engine reaches services only through ReqPump calls.
  SearchResponse Execute(SearchRequest request);
};

}  // namespace wsq

#endif  // WSQ_NET_SEARCH_SERVICE_H_
