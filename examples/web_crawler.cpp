// The paper's §4.2 second scenario: "asynchronous iteration could be
// used to implement a Web crawler: given a table of thousands of URLs,
// a query over that table could be used to fetch the HTML for each URL".
//
// This example defines a custom FetchPage virtual table over the
// synthetic Web — demonstrating that the VirtualTable interface is open
// to user-defined external sources, not just search engines — and
// crawls a URL frontier with one SQL query.

#include <cstdio>
#include <map>
#include <thread>

#include "common/strings.h"
#include "wsq/demo.h"

namespace wsq {
namespace {

/// FetchPage(SearchExp, T1=url, Words, FirstTerms, FetchedDate): fetch
/// one page by URL. SearchExp is unused but keeps the standard virtual
/// table input convention.
class FetchPageTable : public VirtualTable {
 public:
  FetchPageTable(const Corpus* corpus, int64_t latency_micros)
      : corpus_(corpus), latency_micros_(latency_micros) {
    for (const Document& d : corpus->documents()) {
      by_url_[d.url] = &d;
    }
  }

  const std::string& name() const override { return name_; }
  const std::string& destination() const override { return dest_; }

  Schema SchemaForTerms(size_t n) const override {
    Schema s;
    s.AddColumn(Column("SearchExp", TypeId::kString, name_));
    for (size_t i = 1; i <= n; ++i) {
      s.AddColumn(Column(StrFormat("T%zu", i), TypeId::kString, name_));
    }
    s.AddColumn(Column("Words", TypeId::kInt64, name_));
    s.AddColumn(Column("FirstTerms", TypeId::kString, name_));
    s.AddColumn(Column("FetchedDate", TypeId::kString, name_));
    return s;
  }

  size_t NumOutputColumns() const override { return 3; }
  bool SingleRowOutput() const override { return false; }  // 404 -> 0 rows
  std::string EffectiveSearchExp(const VTableRequest&) const override {
    return "fetch %1";
  }

  using VirtualTable::SubmitAsync;
  CallId SubmitAsync(const VTableRequest& request, ReqPump* pump,
                     int64_t timeout_micros) override {
    Row outputs = FetchOutputs(request);
    int64_t latency = latency_micros_;
    AsyncCallFn fn = [outputs = std::move(outputs), latency](
                         CallCompletion done) mutable {
      std::thread([outputs = std::move(outputs), latency,
                   done = std::move(done)]() mutable {
        std::this_thread::sleep_for(
            std::chrono::microseconds(latency));
        CallResult result;
        if (!outputs.empty()) {
          result.rows.push_back(std::move(outputs));
        }
        done(std::move(result));
      }).detach();
    };
    return timeout_micros > 0
               ? pump->Register(dest_, std::move(fn), timeout_micros)
               : pump->Register(dest_, std::move(fn));
  }

 private:
  /// Output column values for the requested URL; empty row if 404.
  Row FetchOutputs(const VTableRequest& request) const {
    if (request.terms.empty()) return Row();
    auto it = by_url_.find(request.terms[0]);
    if (it == by_url_.end()) return Row();
    const Document& d = *it->second;
    std::string first;
    for (size_t i = 0; i < 3 && i < d.terms.size(); ++i) {
      if (i > 0) first += " ";
      first += corpus_->term(d.terms[i]);
    }
    return Row({Value::Int(static_cast<int64_t>(d.terms.size())),
                Value::Str(first), Value::Str(d.date)});
  }

  const Corpus* corpus_;
  int64_t latency_micros_;
  std::string name_ = "FetchPage";
  std::string dest_ = "crawler";
  std::map<std::string, const Document*> by_url_;
};

}  // namespace
}  // namespace wsq

int main() {
  using namespace wsq;

  DemoOptions options;
  options.corpus.num_documents = 6000;
  options.latency = LatencyModel{15000, 5000, 0.0, 1.0};
  DemoEnv env(options);

  // Register the crawler's virtual table alongside the search tables.
  Status s = env.db().vtables()->Register(
      std::make_unique<FetchPageTable>(&env.corpus(), 15000));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Build the frontier: top URLs for every state (one WSQ query).
  if (!env.db().Execute("CREATE TABLE Frontier (Url STRING)").ok()) {
    return 1;
  }
  auto seeds = env.Run(
      "Select URL From States, WebPages Where Name = T1 and Rank <= 3");
  if (!seeds.ok()) return 1;
  TableInfo* frontier = *env.db().catalog()->GetTable("Frontier");
  for (const Row& row : seeds->result.rows) {
    (void)frontier->Insert(Row({row.value(0)}));
  }
  std::printf("frontier: %zu URLs (top 3 per state)\n",
              seeds->result.rows.size());

  // Crawl: one dependent join = one fetch per URL, all concurrent.
  const char* crawl =
      "Select T1, Words, FirstTerms, FetchedDate "
      "From Frontier, FetchPage Where Url = T1 Order By Words Desc";

  auto async = env.Run(crawl, /*async_iteration=*/true);
  if (!async.ok()) {
    std::fprintf(stderr, "%s\n", async.status().ToString().c_str());
    return 1;
  }
  auto sync = env.Run(crawl, /*async_iteration=*/false);
  if (!sync.ok()) return 1;

  std::printf("%s\n", async->result.ToString(8).c_str());
  std::printf("crawled %zu pages\n", async->result.rows.size());
  std::printf("sequential crawl: %6.3fs\n",
              sync->stats.elapsed_micros * 1e-6);
  std::printf("async crawl:      %6.3fs (%.1fx)\n",
              async->stats.elapsed_micros * 1e-6,
              static_cast<double>(sync->stats.elapsed_micros) /
                  static_cast<double>(async->stats.elapsed_micros));
  return 0;
}
