// E15: substrate microbenchmarks (google-benchmark). These are not
// paper experiments; they characterize the building blocks so the
// macro results can be sanity-checked (e.g. local per-call processing
// cost vs simulated network latency).

#include <benchmark/benchmark.h>

#include "catalog/catalog.h"
#include "storage/bplus_tree.h"
#include "data/datasets.h"
#include "exec/executor.h"
#include "parser/parser.h"
#include "plan/async_rewriter.h"
#include "plan/binder.h"
#include "search/search_engine.h"
#include "storage/serde.h"
#include "web/inverted_index.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

void BM_ValueCompare(benchmark::State& state) {
  Value a = Value::Str("California");
  Value b = Value::Str("Colorado");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Compare(b));
  }
}
BENCHMARK(BM_ValueCompare);

void BM_RowSerde(benchmark::State& state) {
  Row row({Value::Str("California"), Value::Int(32667000),
           Value::Str("Sacramento")});
  for (auto _ : state) {
    auto bytes = SerializeRow(row);
    auto back = DeserializeRow(*bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RowSerde);

void BM_HeapFileInsertScan(benchmark::State& state) {
  for (auto _ : state) {
    InMemoryDiskManager disk;
    BufferPool pool(64, &disk);
    HeapFile file(&pool);
    for (int i = 0; i < 256; ++i) {
      WSQ_IGNORE_STATUS(file.Insert("record-" + std::to_string(i)));
    }
    HeapFileScanner scanner(&file);
    std::string rec;
    int n = 0;
    while (*scanner.Next(nullptr, &rec)) ++n;
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_HeapFileInsertScan);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  Page* p = *pool.NewPage();
  WSQ_IGNORE_STATUS(pool.UnpinPage(p->page_id(), false));
  for (auto _ : state) {
    Page* page = *pool.FetchPage(0);
    benchmark::DoNotOptimize(page);
    WSQ_IGNORE_STATUS(pool.UnpinPage(0, false));
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_ParseSelect(benchmark::State& state) {
  const char* sql =
      "Select Capital, C.Count, Name, S.Count "
      "From States, WebCount C, WebCount S "
      "Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count "
      "Order By Capital Desc LIMIT 10";
  for (auto _ : state) {
    auto stmt = Parser::ParseSelect(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseSelect);

const Corpus& MicroCorpus() {
  static const Corpus* const kCorpus = [] {
    CorpusConfig cfg = DefaultPaperCorpusConfig();
    cfg.num_documents = 4000;
    return new Corpus(MakePaperCorpus(cfg));
  }();
  return *kCorpus;
}

void BM_IndexBuild(benchmark::State& state) {
  // A full build over every document, as Corpus::Generate does once.
  for (auto _ : state) {
    InvertedIndex index(MicroCorpus());
    benchmark::DoNotOptimize(&index);
  }
}
BENCHMARK(BM_IndexBuild);

void BM_ShardSlice(benchmark::State& state) {
  // The four slices of a 4-shard cluster: windows onto the corpus's one
  // index, so each costs O(1) whatever the corpus size.
  for (auto _ : state) {
    for (size_t s = 0; s < 4; ++s) {
      Corpus slice = Corpus::ShardSlice(MicroCorpus(), s, 4);
      benchmark::DoNotOptimize(&slice.index());
    }
  }
}
BENCHMARK(BM_ShardSlice);

const SearchEngine& MicroEngine() {
  static const SearchEngine* const kEngine = [] {
    SearchEngineConfig cfg;
    cfg.name = "bench";
    return new SearchEngine(&MicroCorpus(), cfg);
  }();
  return *kEngine;
}

void BM_EngineCountSingleTerm(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(*MicroEngine().Count("california"));
  }
}
BENCHMARK(BM_EngineCountSingleTerm);

void BM_EngineCountNearPhrase(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *MicroEngine().Count("colorado near four corners"));
  }
}
BENCHMARK(BM_EngineCountNearPhrase);

void BM_EngineTopK(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(*MicroEngine().Search("california", 10));
  }
}
BENCHMARK(BM_EngineTopK);

DemoEnv& MicroEnv() {
  static DemoEnv* const kEnv = [] {
    DemoOptions opt;
    opt.corpus.num_documents = 2000;
    opt.latency = LatencyModel::Instant();
    return new DemoEnv(opt);
  }();
  return *kEnv;
}

void BM_BindAndRewrite(benchmark::State& state) {
  auto stmt = Parser::ParseSelect(
                  "Select Name, AV.URL From States, WebPages_AV AV, "
                  "WebPages_Google G Where Name = AV.T1 and Name = G.T1 "
                  "and AV.Rank <= 5 and G.Rank <= 5 and AV.URL = G.URL")
                  .value();
  Binder binder(MicroEnv().db().catalog(), MicroEnv().db().vtables());
  for (auto _ : state) {
    auto plan = binder.Bind(*stmt);
    auto rewritten = ApplyAsyncIteration(std::move(plan).value());
    benchmark::DoNotOptimize(rewritten);
  }
}
BENCHMARK(BM_BindAndRewrite);

WsqDatabase& IndexedDb() {
  static WsqDatabase* const kDb = [] {
    auto* db = new WsqDatabase();
    WSQ_IGNORE_STATUS(db->Execute("CREATE TABLE Big (K STRING, V INT)"));
    TableInfo* t = *db->catalog()->GetTable("Big");
    for (int i = 0; i < 20000; ++i) {
      WSQ_IGNORE_STATUS(t->Insert(Row({Value::Str("key" + std::to_string(i % 2000)),
                           Value::Int(i)})));
    }
    WSQ_IGNORE_STATUS(db->Execute("CREATE INDEX ix_big ON Big (K)"));
    return db;
  }();
  return *kDb;
}

void BM_SeqScanFilter20k(benchmark::State& state) {
  // Force a sequential scan by filtering on the unindexed column pair.
  for (auto _ : state) {
    auto r = IndexedDb().Execute(
        "SELECT V FROM Big WHERE K = 'key777' AND V >= 0");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SeqScanFilter20k);

void BM_IndexScan20k(benchmark::State& state) {
  for (auto _ : state) {
    auto r = IndexedDb().Execute("SELECT V FROM Big WHERE K = 'key777'");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IndexScan20k);

void BM_BTreeInsertLookup(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(512, &disk);
  BPlusTree tree(&pool);
  int64_t next = 0;
  for (auto _ : state) {
    WSQ_IGNORE_STATUS(tree.Insert(Value::Int(next), Rid{0, static_cast<uint16_t>(
                                               next % 1000)}));
    benchmark::DoNotOptimize(tree.SearchEqual(Value::Int(next / 2)));
    ++next;
  }
}
BENCHMARK(BM_BTreeInsertLookup);

void BM_StoredOnlyQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto r = MicroEnv().Run(
        "SELECT Capital, COUNT(*) FROM States GROUP BY Capital "
        "ORDER BY Capital LIMIT 5");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_StoredOnlyQuery);

void BM_WsqQueryZeroLatency(benchmark::State& state) {
  // Full WSQ pipeline cost with the network removed: parser + binder +
  // rewriter + 37 async calls + ReqSync patching.
  for (auto _ : state) {
    auto r = MicroEnv().Run(
        "Select Name, Count From Sigs, WebCount Where Name = T1 and "
        "T2 = 'computer' Order By Count Desc");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WsqQueryZeroLatency);

}  // namespace
}  // namespace wsq

BENCHMARK_MAIN();
