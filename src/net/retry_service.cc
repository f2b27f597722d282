#include "net/retry_service.h"

#include <algorithm>
#include <thread>

namespace wsq {

RetryingSearchService::RetryingSearchService(SearchService* wrapped,
                                             RetryPolicy policy)
    : wrapped_(wrapped), policy_(policy), rng_(policy.seed) {
  if (policy_.max_attempts < 1) policy_.max_attempts = 1;
}

RetryingSearchService::~RetryingSearchService() {
  MutexLock lock(&mu_);
  // Bounded: the wrapped service resolves every started call, and no
  // new calls can start during destruction.
  // wsqcheck: allow(cancel-blind-wait)
  while (outstanding_ != 0) cv_.Wait(mu_);
}

void RetryingSearchService::TrackStart() {
  MutexLock lock(&mu_);
  ++outstanding_;
}

void RetryingSearchService::TrackFinish() {
  // Notify while still holding mu_: the destructor destroys cv_ the
  // moment it observes outstanding_ == 0, so a notify after unlocking
  // would race with that destruction (caught by TSan).
  MutexLock lock(&mu_);
  --outstanding_;
  cv_.NotifyAll();
}

int64_t RetryingSearchService::SleepForBackoff(int64_t base) {
  int64_t sleep = base;
  if (policy_.decorrelated_jitter && base > 0) {
    MutexLock lock(&mu_);
    // Decorrelated: uniform in [base, 3 * base]. The deterministic
    // schedule stays the lower bound, so backoff never shrinks.
    sleep = rng_.UniformRange(base, 3 * base);
  }
  if (policy_.max_backoff_micros > 0) {
    sleep = std::min(sleep, policy_.max_backoff_micros);
  }
  return sleep;
}

void RetryingSearchService::Submit(SearchRequest request,
                                   SearchCallback done) {
  TrackStart();
  Attempt(std::move(request), std::move(done), 1,
          policy_.initial_backoff_micros);
}

void RetryingSearchService::Attempt(SearchRequest request,
                                    SearchCallback done, int attempt,
                                    int64_t backoff_micros) {
  {
    MutexLock lock(&mu_);
    ++stats_.attempts;
  }
  SearchRequest retry_copy = request;
  wrapped_->Submit(
      std::move(request),
      [this, retry_copy = std::move(retry_copy),
       done = std::move(done), attempt,
       backoff_micros](SearchResponse resp) mutable {
        bool retryable =
            !resp.status.ok() && IsTransient(resp.status.code());
        if (resp.status.ok() || !retryable ||
            attempt >= policy_.max_attempts) {
          if (!resp.status.ok()) {
            MutexLock lock(&mu_);
            if (!retryable) {
              ++stats_.non_transient;
            } else {
              ++stats_.gave_up;
            }
          }
          done(std::move(resp));
          TrackFinish();
          return;
        }
        {
          MutexLock lock(&mu_);
          ++stats_.retries;
        }
        // Back off on a scheduler thread, then resubmit. Detached is
        // safe: TrackFinish gates our destructor on its completion.
        // The extra TrackStart MUST happen before the spawn — after
        // .detach() the thread may have already run TrackFinish, let
        // the destructor observe outstanding_ == 0, and freed us.
        int64_t next_backoff = static_cast<int64_t>(
            static_cast<double>(backoff_micros) *
            policy_.backoff_multiplier);
        int64_t sleep_micros = SleepForBackoff(backoff_micros);
        TrackStart();
        std::thread([this, retry_copy = std::move(retry_copy),
                     done = std::move(done), attempt, sleep_micros,
                     next_backoff]() mutable {
          std::this_thread::sleep_for(
              std::chrono::microseconds(sleep_micros));
          Attempt(std::move(retry_copy), std::move(done), attempt + 1,
                  next_backoff);
          TrackFinish();  // balances the TrackStart before the spawn
        }).detach();
      });
}

RetryStats RetryingSearchService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

uint64_t RetryingSearchService::outstanding() const {
  MutexLock lock(&mu_);
  return outstanding_;
}

}  // namespace wsq
