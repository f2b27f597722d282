#include "search/search_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/strings.h"

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
    for (TermId t : d.terms) {
      if (TestCorpus().term(t) == "utah") {
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
    // Each hit carries its own document's URL and date.
    const Document& doc = TestCorpus().document(hits[i].doc);
    EXPECT_EQ(hits[i].url, doc.url);
    EXPECT_EQ(hits[i].date, doc.date);
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

TEST_F(SearchEngineTest, TopKIsAPrefixOfTheFullRanking) {
  // The full ranking orders by score descending, then doc ascending,
  // and every top k is its first k hits, ranks included.
  SearchEngine engine(&TestCorpus(), AvConfig());
  for (const char* q : {"colorado", "california", "new mexico", "utah"}) {
    std::vector<SearchHit> all = *engine.Search(q, TestCorpus().size());
    ASSERT_GT(all.size(), 3u) << q;
    for (size_t i = 1; i < all.size(); ++i) {
      EXPECT_TRUE(all[i - 1].score > all[i].score ||
                  (all[i - 1].score == all[i].score &&
                   all[i - 1].doc < all[i].doc))
          << q << " at " << i;
    }
    for (size_t k : {1u, 2u, 3u, 10u}) {
      std::vector<SearchHit> top = *engine.Search(q, k);
      ASSERT_EQ(top.size(), std::min(k, all.size())) << q;
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].doc, all[i].doc) << q << " k=" << k;
        EXPECT_EQ(top[i].rank, all[i].rank);
        EXPECT_EQ(top[i].score, all[i].score);
        EXPECT_EQ(top[i].url, all[i].url);
      }
    }
  }
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
    for (TermId t : d.terms) {
      if (TestCorpus().term(t) == "colorado") found = true;
    }
    EXPECT_TRUE(found) << "rank " << h.rank;
  }
}

// --- Generated queries checked against a brute-force scan -------------

/// A small corpus for the differential tests: a short vocabulary so
/// random conjunctions and phrases often match, entities, and planted
/// NEAR co-occurrences (one of them a triple).
const Corpus& DifferentialCorpus() {
  static const Corpus* const kCorpus = [] {
    CorpusConfig cfg;
    cfg.num_documents = 600;
    cfg.min_doc_length = 20;
    cfg.max_doc_length = 60;
    cfg.vocab_size = 120;
    cfg.seed = 5;
    cfg.cooc_rate = 0.3;
    return new Corpus(Corpus::Generate(
        cfg,
        {{"colorado", 4.0},
         {"utah", 2.0},
         {"new mexico", 3.0},
         {"four corners", 1.0}},
        {{"colorado", "four corners", 2.0, ""},
         {"utah", "scuba diving", 1.0, "salt lake city"}}));
  }();
  return *kCorpus;
}

enum QueryKind { kTerm, kPhrase, kNear, kAnd, kQuoted, kAbsent, kNumKinds };

/// A generated query: its text and the phrases the oracle evaluates.
struct GeneratedQuery {
  QueryKind kind = kTerm;
  std::vector<std::vector<std::string>> phrases;
  bool use_near = false;
  std::string text;
};

/// Seeded query generator. Each query is anchored at a random token of
/// a random document, and its phrases are mostly runs of tokens within
/// a few positions of the anchor, so that phrases, conjunctions and
/// NEAR chains match often and NEAR windows are sometimes exceeded.
class QueryGenerator {
 public:
  QueryGenerator(const Corpus* corpus, uint64_t seed)
      : corpus_(corpus), rng_(seed) {}

  GeneratedQuery Next() {
    return Make(static_cast<QueryKind>(rng_.Uniform(kNumKinds)));
  }

 private:
  GeneratedQuery Make(QueryKind kind) {
    if (kind == kAbsent) {
      // Another kind, with one term swapped for a word no document has.
      GeneratedQuery q = Make(static_cast<QueryKind>(rng_.Uniform(kAbsent)));
      std::vector<std::string>& phrase =
          q.phrases[rng_.Uniform(q.phrases.size())];
      phrase[rng_.Uniform(phrase.size())] = "qqzzabsent";
      q.kind = kAbsent;
      q.text = Render(q);
      return q;
    }
    GeneratedQuery q;
    q.kind = kind;
    do {
      doc_ = &corpus_->document(
          static_cast<DocId>(rng_.Uniform(corpus_->size())));
    } while (doc_->terms.empty());
    anchor_ = static_cast<int64_t>(rng_.Uniform(doc_->terms.size()));
    switch (kind) {
      case kTerm:
        q.phrases.push_back(Phrase(1));
        break;
      case kPhrase:
        q.phrases.push_back(Phrase(2 + rng_.Uniform(2)));
        break;
      case kNear:
        q.use_near = true;
        for (uint64_t n = 2 + rng_.Uniform(2); n > 0; --n) {
          q.phrases.push_back(Phrase(1 + rng_.Uniform(2)));
        }
        break;
      case kAnd:
        for (uint64_t n = 2 + rng_.Uniform(2); n > 0; --n) {
          q.phrases.push_back(Phrase(1));
        }
        break;
      case kQuoted:
        q.phrases.push_back(Phrase(2 + rng_.Uniform(2)));
        for (uint64_t n = 1 + rng_.Uniform(2); n > 0; --n) {
          q.phrases.insert(
              q.phrases.begin() + static_cast<ptrdiff_t>(
                                      rng_.Uniform(q.phrases.size() + 1)),
              Phrase(1));
        }
        break;
      default:  // kAbsent is made above
        break;
    }
    q.text = Render(q);
    return q;
  }

  /// `len` terms: usually a run of the anchor document's tokens that
  /// starts within kSpread positions of the anchor, padded or replaced
  /// by random dictionary terms.
  std::vector<std::string> Phrase(size_t len) {
    static constexpr int64_t kSpread = 14;
    const std::vector<TermId>& terms = doc_->terms;
    std::vector<std::string> out;
    if (rng_.Bernoulli(0.8)) {
      int64_t last = std::max<int64_t>(
          0, static_cast<int64_t>(terms.size()) - static_cast<int64_t>(len));
      size_t start = static_cast<size_t>(std::clamp<int64_t>(
          anchor_ + rng_.UniformRange(-kSpread, kSpread), 0, last));
      for (size_t i = start; i < terms.size() && out.size() < len; ++i) {
        out.push_back(corpus_->term(terms[i]));
      }
    }
    while (out.size() < len) {
      out.push_back(corpus_->term(
          static_cast<TermId>(rng_.Uniform(corpus_->num_terms()))));
    }
    return out;
  }

  /// NEAR queries join phrases with "near"; otherwise multi-word
  /// phrases are quoted and single words stand alone as conjuncts.
  static std::string Render(const GeneratedQuery& q) {
    std::string text;
    for (const std::vector<std::string>& phrase : q.phrases) {
      if (!text.empty()) text += q.use_near ? " near " : " ";
      bool quote = !q.use_near && phrase.size() > 1;
      if (quote) text += '"';
      text += Join(phrase, " ");
      if (quote) text += '"';
    }
    return text;
  }

  const Corpus* corpus_;
  Rng rng_;
  const Document* doc_ = nullptr;
  int64_t anchor_ = 0;
};

/// The brute-force answer: ids of the documents of `corpus` matching
/// `q`, found by scanning Document::terms. A phrase matches where its
/// terms are adjacent. With `near` (a NEAR query on an engine that
/// supports it), consecutive phrases must have starts at most
/// `near_window` plus the longer phrase's length apart; otherwise the
/// phrases form a plain conjunction.
std::vector<DocId> OracleMatches(const Corpus& corpus,
                                 const GeneratedQuery& q, bool near,
                                 size_t near_window) {
  // Text to ids by scanning the dictionary, not through FindTerm.
  std::vector<std::vector<TermId>> phrases;
  for (const std::vector<std::string>& phrase : q.phrases) {
    std::vector<TermId> ids;
    for (const std::string& word : phrase) {
      TermId id = 0;
      while (id < corpus.num_terms() && corpus.term(id) != word) ++id;
      if (id == corpus.num_terms()) return {};
      ids.push_back(id);
    }
    phrases.push_back(std::move(ids));
  }

  std::vector<DocId> matches;
  for (const Document& d : corpus.documents()) {
    std::vector<std::vector<size_t>> starts(phrases.size());
    bool all_present = true;
    for (size_t i = 0; i < phrases.size() && all_present; ++i) {
      const std::vector<TermId>& phrase = phrases[i];
      for (size_t p = 0; p + phrase.size() <= d.terms.size(); ++p) {
        if (std::equal(phrase.begin(), phrase.end(),
                       d.terms.begin() + static_cast<ptrdiff_t>(p))) {
          starts[i].push_back(p);
        }
      }
      all_present = !starts[i].empty();
    }
    if (!all_present) continue;
    bool close = true;
    for (size_t i = 0; near && close && i + 1 < phrases.size(); ++i) {
      size_t closest = SIZE_MAX;
      for (size_t a : starts[i]) {
        for (size_t b : starts[i + 1]) {
          closest = std::min(closest, a > b ? a - b : b - a);
        }
      }
      close = closest <= near_window + std::max(phrases[i].size(),
                                                phrases[i + 1].size());
    }
    if (close) matches.push_back(d.id);
  }
  return matches;
}

/// Checks `engine`'s Count and Search(text, corpus size) against the
/// oracle's document list; `got` receives Search's documents, sorted.
void ExpectOracleAnswer(const SearchEngine& engine, size_t corpus_size,
                        const std::string& text,
                        const std::vector<DocId>& expected,
                        std::vector<DocId>* got) {
  Result<int64_t> count = engine.Count(text);
  Result<std::vector<SearchHit>> hits = engine.Search(text, corpus_size);
  ASSERT_TRUE(count.ok()) << engine.name() << ": " << text;
  ASSERT_TRUE(hits.ok()) << engine.name() << ": " << text;
  got->clear();
  for (const SearchHit& h : *hits) got->push_back(h.doc);
  std::sort(got->begin(), got->end());
  EXPECT_EQ(*count, static_cast<int64_t>(expected.size()))
      << engine.name() << ": " << text;
  EXPECT_EQ(*got, expected) << engine.name() << ": " << text;
}

TEST_F(SearchEngineTest, GeneratedQueriesMatchBruteForce) {
  constexpr size_t kShards = 4;
  constexpr int kQueries = 600;
  const Corpus& corpus = DifferentialCorpus();
  std::vector<Corpus> slices;
  for (size_t s = 0; s < kShards; ++s) {
    slices.push_back(Corpus::ShardSlice(corpus, s, kShards));
  }

  size_t nonempty[kNumKinds] = {};
  size_t near_filtered = 0;
  for (bool supports_near : {true, false}) {
    SearchEngineConfig cfg = AvConfig();
    cfg.name = supports_near ? "AltaVista" : "Google";
    cfg.supports_near = supports_near;
    SearchEngine engine(&corpus, cfg);
    std::vector<std::unique_ptr<SearchEngine>> shard_engines;
    for (const Corpus& slice : slices) {
      shard_engines.push_back(std::make_unique<SearchEngine>(&slice, cfg));
    }

    QueryGenerator generator(&corpus, 2024);
    for (int n = 0; n < kQueries; ++n) {
      GeneratedQuery q = generator.Next();
      std::vector<DocId> expected =
          OracleMatches(corpus, q, q.use_near && supports_near,
                        cfg.near_window);
      std::vector<DocId> full;
      ExpectOracleAnswer(engine, corpus.size(), q.text, expected, &full);

      std::vector<DocId> merged;
      for (size_t s = 0; s < kShards; ++s) {
        std::vector<DocId> owned;
        for (DocId d : expected) {
          if (corpus.ShardOf(d, kShards) == s) owned.push_back(d);
        }
        std::vector<DocId> got;
        ExpectOracleAnswer(*shard_engines[s], corpus.size(), q.text, owned,
                           &got);
        merged.insert(merged.end(), got.begin(), got.end());
      }
      std::sort(merged.begin(), merged.end());
      EXPECT_EQ(merged, full) << "shard union: " << q.text;
      if (HasFailure()) return;

      if (!expected.empty()) ++nonempty[q.kind];
      if (q.use_near && supports_near &&
          expected.size() <
              OracleMatches(corpus, q, false, cfg.near_window).size()) {
        ++near_filtered;
      }
    }
  }
  // The generator exercises every kind with non-empty answers, and
  // some NEAR queries that a conjunction would have matched.
  for (int kind = kTerm; kind < kAbsent; ++kind) {
    EXPECT_GT(nonempty[kind], 50u) << "kind " << kind;
  }
  EXPECT_EQ(nonempty[kAbsent], 0u);
  EXPECT_GT(near_filtered, 10u);
}

/// Count and top-20 of `query`, rendered for comparison.
std::string Answer(const SearchEngine& engine, const std::string& query) {
  std::string out = std::to_string(*engine.Count(query));
  std::vector<SearchHit> hits = *engine.Search(query, 20);
  for (const SearchHit& h : hits) {
    out += StrFormat(" %d:%u:%s:%.17g", h.rank, h.doc, h.url.c_str(),
                     h.score);
  }
  return out;
}

TEST_F(SearchEngineTest, ConcurrentQueriesMatchSerialAnswers) {
  // Engines are immutable after construction, so concurrent const
  // calls must see exactly the serial answers, also when two engines
  // read their corpus's one index at once.
  constexpr size_t kThreads = 4;
  SearchEngineConfig google_cfg = AvConfig();
  google_cfg.name = "Google";
  google_cfg.supports_near = false;
  google_cfg.rank_seed = 20706;
  const SearchEngine av(&DifferentialCorpus(), AvConfig());
  const SearchEngine google(&DifferentialCorpus(), google_cfg);
  // Both rank over their corpus's one index.
  ASSERT_EQ(&av.index(), &DifferentialCorpus().index());
  ASSERT_EQ(&google.index(), &DifferentialCorpus().index());
  const SearchEngine* const engines[] = {&av, &google};
  QueryGenerator generator(&DifferentialCorpus(), 77);
  std::vector<std::string> queries;
  std::vector<std::string> serial;  // AltaVista's, then Google's answer
  for (int i = 0; i < 200; ++i) {
    queries.push_back(generator.Next().text);
    for (const SearchEngine* engine : engines) {
      serial.push_back(Answer(*engine, queries.back()));
    }
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so calls interleave.
      for (size_t i = 0; i < queries.size(); ++i) {
        size_t q = (i + t * queries.size() / kThreads) % queries.size();
        for (size_t e = 0; e < std::size(engines); ++e) {
          if (Answer(*engines[e], queries[q]) !=
              serial[q * std::size(engines) + e]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace wsq
