#include "net/result_cache.h"

#include "common/clock.h"
#include "obs/metrics.h"

namespace wsq {

ResultCache::ResultCache(size_t capacity, int64_t ttl_micros,
                         size_t max_bytes)
    : capacity_(capacity == 0 ? 1 : capacity),
      ttl_micros_(ttl_micros),
      max_bytes_(max_bytes) {
  collector_id_ = MetricsRegistry::Global()->AddCollector(
      [this](MetricsEmitter* emitter) {
        ResultCacheStats s;
        size_t entries;
        size_t bytes;
        {
          MutexLock lock(&mu_);
          s = stats_;
          entries = lru_.size();
          bytes = bytes_;
        }
        emitter->EmitCounter("wsq_result_cache_hits_total",
                             "Search responses served from cache", {},
                             s.hits);
        emitter->EmitCounter("wsq_result_cache_misses_total",
                             "Cache lookups that went to the engine", {},
                             s.misses);
        emitter->EmitCounter(
            "wsq_result_cache_evicted_total",
            "Entries evicted (LRU entry/byte bound or memory pressure)",
            {}, s.evictions);
        emitter->EmitCounter(
            "wsq_result_cache_pressure_shed_total",
            "Entries shed by a memory-budget pressure callback", {},
            s.pressure_shed);
        emitter->EmitCounter(
            "wsq_result_cache_rejected_total",
            "Responses refused admission (non-OK or partial)", {},
            s.rejected);
        emitter->EmitGauge("wsq_result_cache_entries",
                           "Entries currently cached", {},
                           static_cast<int64_t>(entries));
        emitter->EmitGauge("wsq_result_cache_bytes",
                           "Payload bytes currently cached", {},
                           static_cast<int64_t>(bytes));
      });
}

ResultCache::~ResultCache() {
  MetricsRegistry::Global()->RemoveCollector(collector_id_);
  DetachBudget();
}

void ResultCache::DetachBudget() {
  if (budget_ == nullptr) return;
  budget_->RemovePressureHook(pressure_hook_id_);
  MutexLock lock(&mu_);
  budget_->Release(bytes_);
  budget_ = nullptr;
}

void ResultCache::AttachBudget(MemoryBudget* budget) {
  {
    MutexLock lock(&mu_);
    budget_ = budget;
    budget_->ForceReserve(bytes_);
  }
  pressure_hook_id_ = budget->AddPressureHook(
      [this](size_t wanted) { return ShedForPressure(wanted); });
}

size_t ResultCache::ShedForPressure(size_t wanted) {
  MutexLock lock(&mu_);
  size_t freed = 0;
  while (freed < wanted && !lru_.empty()) {
    freed += lru_.back().bytes;
    ++stats_.pressure_shed;
    EvictBackLocked();
  }
  return freed;
}

void ResultCache::EvictBackLocked() {
  Entry& victim = lru_.back();
  bytes_ -= victim.bytes;
  if (budget_ != nullptr) budget_->Release(victim.bytes);
  map_.erase(victim.key);
  lru_.pop_back();
  ++stats_.evictions;
}

void ResultCache::EvictToBoundsLocked() {
  while (!lru_.empty() &&
         (lru_.size() > capacity_ ||
          (max_bytes_ > 0 && bytes_ > max_bytes_))) {
    EvictBackLocked();
  }
}

std::optional<SearchResponse> ResultCache::Get(const std::string& key) {
  MutexLock lock(&mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (ttl_micros_ > 0 &&
      NowMicros() - it->second->inserted_micros > ttl_micros_) {
    bytes_ -= it->second->bytes;
    if (budget_ != nullptr) budget_->Release(it->second->bytes);
    lru_.erase(it->second);
    map_.erase(it);
    ++stats_.misses;
    return std::nullopt;
  }
  // Move to MRU.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->response;
}

void ResultCache::Put(const std::string& key, SearchResponse response) {
  MutexLock lock(&mu_);
  size_t new_bytes = key.size() + response.ApproxBytes();
  auto it = map_.find(key);
  if (it != map_.end()) {
    bytes_ += new_bytes - it->second->bytes;
    if (budget_ != nullptr) {
      // Re-charge the delta; ForceReserve because a shared cache cannot
      // backpressure its writers (the pressure hook sheds instead).
      budget_->Release(it->second->bytes);
      budget_->ForceReserve(new_bytes);
    }
    it->second->response = std::move(response);
    it->second->inserted_micros = NowMicros();
    it->second->bytes = new_bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictToBoundsLocked();
    return;
  }
  lru_.push_front(Entry{key, std::move(response), NowMicros(), new_bytes});
  map_[key] = lru_.begin();
  bytes_ += new_bytes;
  if (budget_ != nullptr) budget_->ForceReserve(new_bytes);
  EvictToBoundsLocked();
}

size_t ResultCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

size_t ResultCache::bytes() const {
  MutexLock lock(&mu_);
  return bytes_;
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void ResultCache::CountRejected() {
  MutexLock lock(&mu_);
  ++stats_.rejected;
}

void ResultCache::Clear() {
  MutexLock lock(&mu_);
  if (budget_ != nullptr) budget_->Release(bytes_);
  bytes_ = 0;
  lru_.clear();
  map_.clear();
}

void CachingSearchService::Submit(SearchRequest request,
                                  SearchCallback done) {
  // Key includes the engine name: different engines answer the same
  // query differently (NEAR support, ranking), and one ResultCache may
  // sit in front of several engines.
  std::string key = wrapped_->name() + "\x1f" + request.CacheKey();
  if (auto cached = cache_->Get(key)) {
    done(std::move(*cached));
    return;
  }
  ResultCache* cache = cache_;
  wrapped_->Submit(std::move(request),
                   [cache, key, done = std::move(done)](
                       SearchResponse resp) {
                     // Admit only complete successes: a failure is not
                     // an answer, and a partial (degraded-shard) merge
                     // would poison every later query with a silently
                     // truncated count/top-k for the whole TTL.
                     if (resp.status.ok() && !resp.partial) {
                       cache->Put(key, resp);
                     } else {
                       cache->CountRejected();
                     }
                     done(std::move(resp));
                   });
}

}  // namespace wsq
