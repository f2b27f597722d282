#include "net/fault_service.h"

#include <thread>

#include "common/random.h"

namespace wsq {

namespace {

/// FNV-1a, then a SplitMix64 finalizer: stable across runs (unlike
/// std::hash) so fault decisions reproduce from the seed alone.
uint64_t StableHash(uint64_t seed, const std::string& key) {
  uint64_t h = 14695981039346656037ull ^ seed;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Mix64(h + kSplitMixGamma);
}

}  // namespace

FaultInjectingSearchService::FaultInjectingSearchService(
    SearchService* wrapped, FaultPlan plan)
    : wrapped_(wrapped), plan_(plan) {}

FaultInjectingSearchService::~FaultInjectingSearchService() {
  ReleaseHung();
  MutexLock lock(&mu_);
  // Bounded: ReleaseHung() above resolved every parked call, so the
  // remaining completions are already running to their finish.
  // wsqcheck: allow(cancel-blind-wait)
  while (outstanding_ != 0) cv_.Wait(mu_);
}

FaultInjectingSearchService::FaultKind
FaultInjectingSearchService::Classify(const std::string& key) const {
  double u = UnitDouble(StableHash(plan_.seed, key));
  if (u < plan_.permanent_rate) return FaultKind::kPermanent;
  u -= plan_.permanent_rate;
  if (u < plan_.hang_rate) return FaultKind::kHang;
  u -= plan_.hang_rate;
  if (u < plan_.transient_rate) return FaultKind::kTransient;
  return FaultKind::kNone;
}

bool FaultInjectingSearchService::ShouldDelay(
    const std::string& key) const {
  if (plan_.delay_rate <= 0.0) return false;
  // Independent draw: decorate the seed so delay and fault bands don't
  // correlate.
  double u = UnitDouble(StableHash(plan_.seed ^ 0xde1a9ull, key));
  return u < plan_.delay_rate;
}

void FaultInjectingSearchService::TrackStart() {
  MutexLock lock(&mu_);
  ++outstanding_;
}

void FaultInjectingSearchService::TrackFinish() {
  // Notify while still holding mu_: the destructor destroys cv_ the
  // moment it observes outstanding_ == 0, so a notify after unlocking
  // would race with that destruction (caught by TSan).
  MutexLock lock(&mu_);
  --outstanding_;
  cv_.NotifyAll();
}

void FaultInjectingSearchService::Submit(SearchRequest request,
                                         SearchCallback done) {
  const std::string key = request.CacheKey();
  FaultKind kind = Classify(key);
  bool outage = false;
  {
    MutexLock lock(&mu_);
    uint64_t arrival = ++stats_.requests;
    if (plan_.outage_length > 0 && arrival >= plan_.outage_start &&
        arrival < plan_.outage_start + plan_.outage_length) {
      outage = true;
      ++stats_.outage_failures;
    } else if (kind == FaultKind::kTransient) {
      // Transient faults clear after `transient_tries` sightings so a
      // retry layer can succeed.
      if (transient_seen_[key]++ >= plan_.transient_tries) {
        kind = FaultKind::kNone;
      } else {
        ++stats_.injected_transient;
      }
    } else if (kind == FaultKind::kPermanent) {
      ++stats_.injected_permanent;
    } else if (kind == FaultKind::kHang) {
      ++stats_.injected_hangs;
      hung_.push_back(std::move(done));
    }
    if (kind == FaultKind::kNone && !outage) ++stats_.passed_through;
  }

  if (outage) {
    done(SearchResponse{
        Status::Unavailable("injected outage window at " + name()), 0,
        {}});
    return;
  }
  switch (kind) {
    case FaultKind::kPermanent:
      done(SearchResponse{
          Status::ExecutionError("injected permanent fault for: " + key),
          0,
          {}});
      return;
    case FaultKind::kTransient:
      done(SearchResponse{
          Status::Unavailable("injected transient fault for: " + key), 0,
          {}});
      return;
    case FaultKind::kHang:
      // Callback parked in hung_ above; ReleaseHung / the destructor
      // completes it.
      return;
    case FaultKind::kNone:
      break;
  }

  if (ShouldDelay(key)) {
    {
      MutexLock lock(&mu_);
      ++stats_.injected_delays;
    }
    TrackStart();
    int64_t delay = plan_.delay_micros;
    SearchService* wrapped = wrapped_;
    std::thread([this, wrapped, delay, request = std::move(request),
                 done = std::move(done)]() mutable {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      wrapped->Submit(std::move(request), std::move(done));
      TrackFinish();
    }).detach();
    return;
  }
  wrapped_->Submit(std::move(request), std::move(done));
}

FaultStats FaultInjectingSearchService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t FaultInjectingSearchService::hung_requests() const {
  MutexLock lock(&mu_);
  return hung_.size();
}

void FaultInjectingSearchService::ReleaseHung() {
  std::vector<SearchCallback> held;
  {
    MutexLock lock(&mu_);
    held.swap(hung_);
  }
  for (SearchCallback& done : held) {
    done(SearchResponse{
        Status::Unavailable("hung request released by " + name()), 0,
        {}});
  }
}

}  // namespace wsq
