#include "net/simulated_service.h"

#include <algorithm>

#include "common/clock.h"

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

bool InjectsFaults(const FaultPlan& plan) {
  return plan.permanent_rate > 0 || plan.hang_rate > 0 ||
         plan.transient_rate > 0 || plan.delay_rate > 0 ||
         plan.outage_length > 0;
}

}  // namespace

SimulatedSearchService::SimulatedSearchService(const SearchEngine* engine,
                                               Options options)
    : engine_(engine),
      options_(options),
      faulty_(InjectsFaults(options.faults)),
      rng_(options.seed ^ 0xcafe),
      timer_([this] { TimerLoop(); }) {}

SimulatedSearchService::~SimulatedSearchService() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  timer_.join();
  ReleaseHung();
}

SimulatedSearchService::Fault SimulatedSearchService::InjectLocked(
    const std::string& key, uint64_t arrival, Status* failure,
    int64_t* delay_micros) {
  const FaultPlan& plan = options_.faults;
  if (plan.outage_length > 0 && arrival >= plan.outage_start &&
      arrival < plan.outage_start + plan.outage_length) {
    ++stats_.outage_failures;
    *failure = Status::Unavailable("injected outage window at " + name());
    return Fault::kFail;
  }
  double u = UnitDouble(StableHash(plan.seed, key));
  if (u < plan.permanent_rate) {
    ++stats_.injected_permanent;
    *failure = Status::ExecutionError("injected permanent fault for: " + key);
    return Fault::kFail;
  }
  u -= plan.permanent_rate;
  if (u < plan.hang_rate) {
    ++stats_.injected_hangs;
    return Fault::kHang;
  }
  u -= plan.hang_rate;
  // Transient faults clear after `transient_tries` sightings so a
  // retrying caller can succeed.
  if (u < plan.transient_rate &&
      transient_seen_[key]++ < plan.transient_tries) {
    ++stats_.injected_transient;
    *failure = Status::Unavailable("injected transient fault for: " + key);
    return Fault::kFail;
  }
  // Independent draw: decorate the seed so delay and fault bands don't
  // correlate.
  if (plan.delay_rate > 0 &&
      UnitDouble(StableHash(plan.seed ^ 0xde1a9ull, key)) < plan.delay_rate) {
    ++stats_.injected_delays;
    *delay_micros = plan.delay_micros;
  }
  return Fault::kNone;
}

void SimulatedSearchService::Submit(SearchRequest request,
                                    SearchCallback done) {
  int64_t now = NowMicros();
  bool earliest = false;
  Status failure;
  {
    MutexLock lock(&mu_);
    const uint64_t arrival = ++stats_.total_requests;
    int64_t delay = 0;
    const Fault fault =
        faulty_ ? InjectLocked(request.CacheKey(), arrival, &failure, &delay)
                : Fault::kNone;
    if (fault == Fault::kHang) {
      // Parked: ReleaseHung or the destructor completes it.
      hung_.push_back(std::move(done));
      return;
    }
    if (fault == Fault::kNone) {
      int64_t latency = options_.latency.SampleMicros(rng_) + delay;
      int64_t start = now;
      if (options_.server_capacity > 0) {
        // All slots busy: the request starts when the earliest slot
        // frees.
        while (!slot_free_times_.empty() && slot_free_times_.top() <= now) {
          slot_free_times_.pop();
        }
        if (slot_free_times_.size() >= options_.server_capacity) {
          start = slot_free_times_.top();
          slot_free_times_.pop();
        }
        slot_free_times_.push(start + latency);
      }
      Pending p;
      p.deadline_micros = start + latency;
      p.seq = next_seq_++;
      p.request = std::move(request);
      p.done = std::move(done);
      uint64_t seq = p.seq;
      heap_.push(std::move(p));
      earliest = heap_.top().seq == seq;
      ++in_flight_;
      stats_.max_concurrent = std::max(stats_.max_concurrent, in_flight_);
    }
  }
  // Immediate faults complete inline, outside the lock.
  if (!failure.ok()) {
    done(SearchResponse{std::move(failure), 0, {}});
    return;
  }
  // Wake the timer only if it must re-arm for an earlier deadline.
  if (earliest) cv_.NotifyAll();
}

SimulatedServiceStats SimulatedSearchService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t SimulatedSearchService::hung_requests() const {
  MutexLock lock(&mu_);
  return hung_.size();
}

void SimulatedSearchService::ReleaseHung() {
  std::vector<SearchCallback> held;
  {
    MutexLock lock(&mu_);
    held.swap(hung_);
  }
  for (SearchCallback& done : held) {
    done(SearchResponse{
        Status::Unavailable("hung request released by " + name()), 0, {}});
  }
}

void SimulatedSearchService::Quiesce() {
  MutexLock lock(&mu_);
  // Bounded: the delivery thread keeps draining the heap while we
  // wait. wsqcheck: allow(cancel-blind-wait)
  while (in_flight_ != 0) cv_.Wait(mu_);
}

SearchResponse SimulatedSearchService::Evaluate(
    const SearchRequest& request) const {
  SearchResponse resp;
  if (request.kind == SearchRequest::Kind::kCount) {
    auto r = engine_->Count(request.query);
    if (!r.ok()) {
      resp.status = r.status();
    } else {
      resp.count = *r;
    }
  } else {
    auto r = engine_->Search(request.query, request.k);
    if (!r.ok()) {
      resp.status = r.status();
    } else {
      resp.hits = std::move(*r);
    }
  }
  return resp;
}

void SimulatedSearchService::TimerLoop() {
  MutexLock lock(&mu_);
  while (true) {
    if (heap_.empty()) {
      if (stopping_) return;
      while (!stopping_ && heap_.empty()) cv_.Wait(mu_);
      continue;
    }
    int64_t now = NowMicros();
    int64_t deadline = heap_.top().deadline_micros;
    // During shutdown pending requests still complete — just without
    // waiting out their remaining simulated latency.
    if (now < deadline && !stopping_) {
      cv_.WaitForMicros(mu_, deadline - now);
      continue;
    }
    Pending p = std::move(const_cast<Pending&>(heap_.top()));
    heap_.pop();
    lock.Unlock();
    // Evaluate and deliver outside the lock: callbacks may re-enter
    // Submit (e.g. a ReqPump dispatching queued calls).
    SearchResponse resp = Evaluate(p.request);
    p.done(std::move(resp));
    lock.Lock();
    --in_flight_;
    ++stats_.completed_requests;
    if (in_flight_ == 0) cv_.NotifyAll();
  }
}

}  // namespace wsq
