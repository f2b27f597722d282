#include "net/simulated_service.h"

#include <algorithm>

#include "common/clock.h"

namespace wsq {

SimulatedSearchService::SimulatedSearchService(const SearchEngine* engine,
                                               Options options)
    : engine_(engine),
      options_(options),
      rng_(options.seed ^ 0xcafe),
      timer_([this] { TimerLoop(); }) {}

SimulatedSearchService::~SimulatedSearchService() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  timer_.join();
}

void SimulatedSearchService::Submit(SearchRequest request,
                                    SearchCallback done) {
  int64_t now = NowMicros();
  bool earliest = false;
  {
    MutexLock lock(&mu_);
    int64_t latency = options_.latency.SampleMicros(rng_);
    int64_t start = now;
    if (options_.server_capacity > 0) {
      // All slots busy: the request starts when the earliest slot frees.
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
    ++stats_.total_requests;
    ++in_flight_;
    stats_.max_concurrent = std::max(stats_.max_concurrent, in_flight_);
  }
  // Wake the timer only if it must re-arm for an earlier deadline.
  if (earliest) cv_.NotifyAll();
}

SimulatedServiceStats SimulatedSearchService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
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
