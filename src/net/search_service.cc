#include "net/search_service.h"

#include "common/strings.h"
#include "common/thread_annotations.h"

namespace wsq {

std::string SearchRequest::CacheKey() const {
  return StrFormat("%c:%zu:", kind == Kind::kCount ? 'c' : 't', k) + query;
}

size_t SearchResponse::ApproxBytes() const {
  size_t bytes = sizeof(SearchResponse);
  for (const SearchHit& h : hits) {
    bytes += sizeof(SearchHit) + h.url.size() + h.date.size();
  }
  return bytes;
}

SearchResponse SearchService::Execute(SearchRequest request) {
  // Stack-local rendezvous with the completion callback. The capability
  // analysis cannot track locals captured by reference, so the guarded
  // state lives in one heap-free struct and the callback is the only
  // other accessor.
  struct Rendezvous {
    Mutex mu;
    CondVar cv;
    bool done WSQ_GUARDED_BY(mu) = false;
    SearchResponse out WSQ_GUARDED_BY(mu);
  } r;
  Submit(std::move(request), [&r](SearchResponse resp) {
    MutexLock lock(&r.mu);
    r.out = std::move(resp);
    r.done = true;
    r.cv.NotifyOne();
  });
  MutexLock lock(&r.mu);
  // Bounded by the async call itself completing; this sync bridge has
  // no reachable token. wsqcheck: allow(cancel-blind-wait)
  while (!r.done) r.cv.Wait(r.mu);
  return std::move(r.out);
}

}  // namespace wsq
