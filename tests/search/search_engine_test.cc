#include "search/search_engine.h"

#include <gtest/gtest.h>

#include <set>

namespace wsq {
namespace {

class SearchEngineTest : public ::testing::Test {
 protected:
  static const Corpus& TestCorpus() {
    static const Corpus* const kCorpus = [] {
      CorpusConfig cfg;
      cfg.num_documents = 1500;
      cfg.min_doc_length = 30;
      cfg.max_doc_length = 120;
      cfg.vocab_size = 400;
      cfg.seed = 23;
      cfg.cooc_rate = 0.15;
      return new Corpus(Corpus::Generate(
          cfg,
          {{"california", 10.0},
           {"colorado", 4.0},
           {"utah", 2.0},
           {"wyoming", 0.5},
           {"new mexico", 3.0}},
          {{"colorado", "four corners", 3.0, ""},
           {"utah", "four corners", 2.0, ""},
           {"california", "beaches", 4.0, ""}}));
    }();
    return *kCorpus;
  }

  static SearchEngineConfig AvConfig() {
    SearchEngineConfig cfg;
    cfg.name = "AltaVista";
    cfg.supports_near = true;
    cfg.rank_seed = 101;
    return cfg;
  }
};

TEST_F(SearchEngineTest, CountReflectsEntityWeights) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  int64_t california = *engine.Count("california");
  int64_t colorado = *engine.Count("colorado");
  int64_t wyoming = *engine.Count("wyoming");
  EXPECT_GT(california, colorado);
  EXPECT_GT(colorado, wyoming);
  EXPECT_GT(wyoming, 0);
}

TEST_F(SearchEngineTest, CountMatchesBruteForce) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  int64_t counted = *engine.Count("utah");
  int64_t brute = 0;
  for (const Document& d : TestCorpus().documents()) {
    for (const std::string& t : d.terms) {
      if (t == "utah") {
        ++brute;
        break;
      }
    }
  }
  EXPECT_EQ(counted, brute);
}

TEST_F(SearchEngineTest, UnknownTermCountsZero) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  EXPECT_EQ(*engine.Count("qqqqnotaword"), 0);
  EXPECT_TRUE(engine.Search("qqqqnotaword", 5)->empty());
}

TEST_F(SearchEngineTest, EmptyQueryFails) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  EXPECT_FALSE(engine.Count("").ok());
}

TEST_F(SearchEngineTest, NearQueryNarrowsResults) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  int64_t base = *engine.Count("colorado");
  int64_t near = *engine.Count("colorado near four corners");
  EXPECT_LT(near, base);
  EXPECT_GT(near, 0);
}

TEST_F(SearchEngineTest, FourCornersShapeMatchesPlantedWeights) {
  // Reproduces the shape of paper Query 3: entities planted near the
  // phrase score above entities that merely co-occur by chance.
  SearchEngine engine(&TestCorpus(), AvConfig());
  int64_t colorado = *engine.Count("colorado near four corners");
  int64_t utah = *engine.Count("utah near four corners");
  int64_t california = *engine.Count("california near four corners");
  EXPECT_GT(colorado, utah);
  EXPECT_GT(utah, california);
}

TEST_F(SearchEngineTest, NearFallsBackToAndWhenUnsupported) {
  SearchEngineConfig google = AvConfig();
  google.name = "Google";
  google.supports_near = false;
  SearchEngine g(&TestCorpus(), google);
  SearchEngine av(&TestCorpus(), AvConfig());
  // Without NEAR support the same query returns conjunction counts,
  // which can only be larger or equal.
  EXPECT_GE(*g.Count("colorado near four corners"),
            *av.Count("colorado near four corners"));
}

TEST_F(SearchEngineTest, SearchRanksAreDenseFromOne) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  auto hits = *engine.Search("california", 10);
  ASSERT_EQ(hits.size(), 10u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].rank, static_cast<int>(i + 1));
    EXPECT_FALSE(hits[i].url.empty());
    EXPECT_FALSE(hits[i].date.empty());
  }
  // Scores are non-increasing.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST_F(SearchEngineTest, SearchKLargerThanMatchesReturnsAll) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  int64_t total = *engine.Count("wyoming");
  auto hits = *engine.Search("wyoming", 100000);
  EXPECT_EQ(static_cast<int64_t>(hits.size()), total);
}

TEST_F(SearchEngineTest, SearchIsDeterministic) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  auto a = *engine.Search("colorado", 5);
  auto b = *engine.Search("colorado", 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url);
    EXPECT_EQ(a[i].doc, b[i].doc);
  }
}

TEST_F(SearchEngineTest, TwoEnginesOverlapButDiffer) {
  // Paper Query 6: engines over the same Web agree on some top URLs.
  SearchEngine av(&TestCorpus(), AvConfig());
  SearchEngineConfig gcfg = AvConfig();
  gcfg.name = "Google";
  gcfg.rank_seed = 999;
  gcfg.supports_near = false;
  SearchEngine g(&TestCorpus(), gcfg);

  auto av_hits = *av.Search("california", 5);
  auto g_hits = *g.Search("california", 5);
  std::set<std::string> av_urls, g_urls;
  for (const auto& h : av_hits) av_urls.insert(h.url);
  for (const auto& h : g_hits) g_urls.insert(h.url);
  size_t common = 0;
  for (const auto& u : av_urls) common += g_urls.count(u);
  // Different static-rank salts ⇒ not identical; shared content signal
  // ⇒ some overlap.
  EXPECT_GT(common, 0u);
  EXPECT_LT(common, 5u);
}

TEST_F(SearchEngineTest, PhraseQueryViaTemplateExpansion) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  auto expanded = *ExpandSearchTemplate(
      DefaultSearchTemplate(2, true), {"new mexico", "four corners"});
  EXPECT_EQ(expanded, "new mexico near four corners");
  EXPECT_TRUE(engine.Count(expanded).ok());
}

TEST_F(SearchEngineTest, QuotedPhraseNarrowsAndModeQueries) {
  // A Google-style engine (no NEAR): quoting binds the words into an
  // adjacency phrase instead of independent conjuncts.
  SearchEngineConfig gcfg = AvConfig();
  gcfg.supports_near = false;
  SearchEngine g(&TestCorpus(), gcfg);
  int64_t loose = *g.Count("four corners");
  int64_t phrase = *g.Count("\"four corners\"");
  EXPECT_LE(phrase, loose);
  EXPECT_GT(phrase, 0);
}

TEST_F(SearchEngineTest, TopHitActuallyContainsQueryTerm) {
  SearchEngine engine(&TestCorpus(), AvConfig());
  auto hits = *engine.Search("colorado", 3);
  ASSERT_FALSE(hits.empty());
  for (const auto& h : hits) {
    const Document& d = TestCorpus().document(h.doc);
    bool found = false;
    for (const std::string& t : d.terms) {
      if (t == "colorado") found = true;
    }
    EXPECT_TRUE(found) << "rank " << h.rank;
  }
}

}  // namespace
}  // namespace wsq
