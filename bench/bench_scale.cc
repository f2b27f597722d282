// Scalability of asynchronous iteration with the driving table's size:
// per-query Web calls grow linearly with |T|, so sequential time grows
// linearly while the asynchronous plan stays near one latency wave
// (until concurrency limits or server capacity bite — see
// bench_concurrency for those knobs).

#include <cstdio>

#include "common/strings.h"
#include "wsq/demo.h"

int main() {
  const int kLatencyMs = 20;
  wsq::DemoOptions options;
  options.corpus.num_documents = 6000;
  options.latency = wsq::LatencyModel::Fixed(kLatencyMs * 1000);
  wsq::DemoEnv env(options);

  std::printf("Driving-table size sweep — WebCount join, %d ms "
              "latency\n\n", kLatencyMs);
  std::printf("%8s %12s %12s %12s %10s\n", "|T|", "sync(s)", "async(s)",
              "improvement", "calls");

  const auto& vocab = env.corpus().vocabulary();
  for (int n : {5, 10, 25, 50, 100, 200}) {
    std::string table = wsq::StrFormat("T%d", n);
    if (!env.db()
             .Execute("CREATE TABLE " + table + " (Name STRING)")
             .ok()) {
      return 1;
    }
    wsq::TableInfo* t = *env.db().catalog()->GetTable(table);
    for (int i = 0; i < n; ++i) {
      // Draw terms from the background vocabulary so most lookups hit.
      WSQ_IGNORE_STATUS(t->Insert(wsq::Row(
          {wsq::Value::Str(vocab[(i * 37) % vocab.size()])})));
    }

    std::string sql = wsq::StrFormat(
        "Select Name, Count From %s, WebCount Where Name = T1",
        table.c_str());
    auto sync = env.Run(sql, /*async_iteration=*/false);
    auto async = env.Run(sql, /*async_iteration=*/true);
    if (!sync.ok() || !async.ok()) {
      std::fprintf(stderr, "query failed\n");
      return 1;
    }
    std::printf("%8d %12.3f %12.3f %11.1fx %10llu\n", n,
                sync->stats.elapsed_micros * 1e-6,
                async->stats.elapsed_micros * 1e-6,
                static_cast<double>(sync->stats.elapsed_micros) /
                    static_cast<double>(async->stats.elapsed_micros),
                (unsigned long long)async->stats.external_calls);
  }

  std::printf("\nExpected shape: sequential time grows linearly with "
              "|T|; asynchronous time stays near one %d ms wave, so "
              "the improvement factor itself grows ~linearly — the "
              "paper's Web-crawler argument (§4.2) at query scale.\n",
              kLatencyMs);
  return 0;
}
