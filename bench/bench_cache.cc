// E12: search-result caching. Reproduces two observations:
//  1. §5: "repeated searches with identical keyword expressions may run
//     far faster the second (and subsequent) times" — a client-side
//     ResultCache answers repeats locally.
//  2. §4.5.4 Example 2: a cross-product between dependent joins sends
//     |R| identical calls per Sig, so "incorporating a local cache of
//     search engine results is very important for such a plan". The
//     cache absorbs the sequential plan's repeats. Asynchronous
//     iteration fires all duplicates before the first completes, so the
//     cache cannot absorb them; the ReqPump joins them instead, since
//     identical calls in flight share one dispatch. Each strategy runs
//     on a fresh deployment, so both start with a cold cache.

#include <cstdio>

#include "wsq/demo.h"

namespace {

double RunSecs(wsq::DemoEnv& env, const char* sql, bool async,
               uint64_t* calls = nullptr) {
  auto r = env.Run(sql, async);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  if (calls != nullptr) *calls = r->stats.external_calls;
  return r->stats.elapsed_micros * 1e-6;
}

}  // namespace

int main() {
  const char* kQuery =
      "Select Name, Count From Sigs, WebCount "
      "Where Name = T1 and T2 = 'computer' Order By Count Desc";

  std::printf("Part 1: repeated identical query, client cache on\n\n");
  {
    wsq::DemoOptions options;
    options.corpus.num_documents = 4000;
    options.latency = wsq::LatencyModel::Fixed(20000);
    options.client_cache_entries = 4096;
    wsq::DemoEnv env(options);

    double first = RunSecs(env, kQuery, /*async=*/true);
    double second = RunSecs(env, kQuery, /*async=*/true);
    auto stats = env.client_cache()->stats();
    std::printf("  first run:  %7.3fs (cold cache)\n", first);
    std::printf("  second run: %7.3fs (cache hits: %llu)\n", second,
                (unsigned long long)stats.hits);
    std::printf("  repeat speedup: %.1fx\n\n", first / second);
  }

  std::printf("Part 2: Figure 7 plan — cross-product with R sends |R| "
              "duplicate searches per Sig\n\n");
  std::printf("%6s %10s %12s %12s %12s %12s\n", "|R|", "cache", "sync(s)",
              "sync calls", "async(s)", "async calls");
  for (size_t cache_entries : {size_t{0}, size_t{4096}}) {
    for (int r_size : {1, 4, 8}) {
      double secs[2];
      uint64_t backend[2];
      for (bool async : {false, true}) {
        wsq::DemoOptions options;
        options.corpus.num_documents = 4000;
        options.latency = wsq::LatencyModel::Fixed(20000);
        options.client_cache_entries = cache_entries;
        wsq::DemoEnv env(options);

        WSQ_IGNORE_STATUS(env.db().Execute("CREATE TABLE R (X INT)"));
        for (int i = 0; i < r_size; ++i) {
          WSQ_IGNORE_STATUS(env.db().Execute("INSERT INTO R VALUES (" +
                                             std::to_string(i) + ")"));
        }
        const char* fig7 =
            "Select Sigs.Name, AV.Count, G.Count "
            "From Sigs, WebCount_AV AV, R, WebCount_Google G "
            "Where Sigs.Name = AV.T1 and Sigs.Name = G.T1";
        secs[async] = RunSecs(env, fig7, async);
        backend[async] = env.altavista_service().stats().total_requests +
                         env.google_service().stats().total_requests;
      }
      std::printf("%6d %10s %11.3fs %12llu %11.3fs %12llu\n", r_size,
                  cache_entries == 0 ? "off" : "on", secs[0],
                  (unsigned long long)backend[0], secs[1],
                  (unsigned long long)backend[1]);
    }
  }
  std::printf(
      "\nExpected shape: without the cache, the sequential plan's backend "
      "calls grow\nwith |R| (duplicates); the cache absorbs them. The "
      "asynchronous plan sends one\ncall per distinct search with or "
      "without the cache: its duplicates are in\nflight together and "
      "join one dispatch in the ReqPump.\n");
  return 0;
}
