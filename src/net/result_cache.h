#ifndef WSQ_NET_RESULT_CACHE_H_
#define WSQ_NET_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/memory.h"
#include "common/thread_annotations.h"
#include "net/search_service.h"

namespace wsq {

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Responses refused admission: non-OK, or OK-but-partial (a degraded
  /// sharded answer must not masquerade as the full answer for the
  /// cache TTL).
  uint64_t rejected = 0;
  /// Entries shed by a MemoryBudget pressure callback (a subset of
  /// `evictions`).
  uint64_t pressure_shed = 0;
};

/// LRU cache of search responses keyed by request
/// (paper §4: "caching techniques [HN96] are important for avoiding
/// repeated external calls").
///
/// Bounded by entry count AND by payload bytes (key + response
/// footprint); the LRU tail is evicted past either bound. With a
/// MemoryBudget attached, resident bytes are charged to it
/// (ForceReserve — the cache is shared across queries, so backpressure
/// is not an option) and a pressure hook sheds LRU entries when any
/// budget client fails a reservation: tier 2 of the degradation ladder.
class ResultCache {
 public:
  /// `capacity` entries; `ttl_micros` <= 0 disables expiry;
  /// `max_bytes` 0 = no byte bound.
  explicit ResultCache(size_t capacity, int64_t ttl_micros = 0,
                       size_t max_bytes = 0);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Unhooks the stats collector and any budget pressure hook.
  ~ResultCache();

  /// Charges resident bytes to `budget` and registers a pressure hook
  /// that sheds LRU entries on demand. Call once, before concurrent
  /// use; the budget must outlive this cache or be detached first.
  void AttachBudget(MemoryBudget* budget);

  /// Releases all charges and unhooks from the budget. Required when
  /// the budget's owner is destroyed before this cache.
  void DetachBudget();

  std::optional<SearchResponse> Get(const std::string& key);
  void Put(const std::string& key, SearchResponse response);

  /// Counts a response CachingSearchService refused to admit (for the
  /// wsq_result_cache_rejected_total series).
  void CountRejected();

  size_t size() const;
  /// Payload bytes currently resident.
  size_t bytes() const;
  ResultCacheStats stats() const;
  void Clear();

 private:
  struct Entry {
    std::string key;
    SearchResponse response;
    int64_t inserted_micros;
    /// key.size() + response.ApproxBytes() at insertion.
    size_t bytes;
  };

  /// Evicts LRU entries while over the entry or byte bound.
  void EvictToBoundsLocked() WSQ_REQUIRES(mu_);
  /// Drops the LRU tail entry, releasing its budget charge.
  void EvictBackLocked() WSQ_REQUIRES(mu_);
  /// Pressure hook body: sheds LRU entries until `wanted` bytes are
  /// freed (or the cache is empty); returns bytes freed.
  size_t ShedForPressure(size_t wanted);

  mutable Mutex mu_;
  /// Immutable after construction (read without mu_).
  size_t capacity_;
  int64_t ttl_micros_;
  size_t max_bytes_;
  std::list<Entry> lru_ WSQ_GUARDED_BY(mu_);  // front = MRU
  std::unordered_map<std::string, std::list<Entry>::iterator> map_
      WSQ_GUARDED_BY(mu_);
  size_t bytes_ WSQ_GUARDED_BY(mu_) = 0;
  ResultCacheStats stats_ WSQ_GUARDED_BY(mu_);
  /// Set once by AttachBudget before concurrent use.
  MemoryBudget* budget_ = nullptr;
  uint64_t pressure_hook_id_ = 0;
  uint64_t collector_id_ = 0;
};

/// SearchService decorator that answers repeated requests from a
/// ResultCache. Cache hits complete synchronously (zero latency), which
/// reproduces the paper's observation that "repeated searches with
/// identical keyword expressions may run far faster the second time".
class CachingSearchService : public SearchService {
 public:
  CachingSearchService(SearchService* wrapped, ResultCache* cache)
      : wrapped_(wrapped), cache_(cache) {}

  const std::string& name() const override { return wrapped_->name(); }

  void Submit(SearchRequest request, SearchCallback done) override;

 private:
  SearchService* wrapped_;
  ResultCache* cache_;
};

}  // namespace wsq

#endif  // WSQ_NET_RESULT_CACHE_H_
