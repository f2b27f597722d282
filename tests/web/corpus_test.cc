#include "web/corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "web/inverted_index.h"

namespace wsq {
namespace {

CorpusConfig SmallConfig() {
  CorpusConfig cfg;
  cfg.num_documents = 500;
  cfg.min_doc_length = 20;
  cfg.max_doc_length = 60;
  cfg.vocab_size = 300;
  cfg.seed = 7;
  return cfg;
}

TEST(TokenizeTest, LowercasesAndSplits) {
  auto t = TokenizeText("New Mexico, near 'Four Corners'!");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0], "new");
  EXPECT_EQ(t[1], "mexico");
  EXPECT_EQ(t[2], "near");
  EXPECT_EQ(t[3], "four");
}

TEST(TokenizeTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeText("").empty());
  EXPECT_TRUE(TokenizeText("... !!! ---").empty());
}

TEST(VocabularyTest, UniqueAndDeterministic) {
  auto v1 = MakeSyntheticVocabulary(500, 3);
  auto v2 = MakeSyntheticVocabulary(500, 3);
  EXPECT_EQ(v1, v2);
  std::set<std::string> unique(v1.begin(), v1.end());
  EXPECT_EQ(unique.size(), 500u);
}

TEST(VocabularyTest, DifferentSeedsDiffer) {
  EXPECT_NE(MakeSyntheticVocabulary(100, 1),
            MakeSyntheticVocabulary(100, 2));
}

TEST(CorpusTest, BackgroundWordIIsTermI) {
  CorpusConfig cfg = SmallConfig();
  Corpus c = Corpus::Generate(cfg, {{"new mexico", 1.0}});
  std::vector<std::string> vocab =
      MakeSyntheticVocabulary(cfg.vocab_size, cfg.seed);
  ASSERT_EQ(c.vocabulary().size(), vocab.size());
  for (size_t i = 0; i < vocab.size(); ++i) {
    EXPECT_EQ(c.vocabulary()[i], vocab[i]);
    EXPECT_EQ(c.term(static_cast<TermId>(i)), vocab[i]);
    EXPECT_EQ(c.FindTerm(vocab[i]), static_cast<TermId>(i));
  }
  // Planted tokens follow the vocabulary; unknown text has no id.
  ASSERT_TRUE(c.FindTerm("mexico").has_value());
  EXPECT_EQ(c.term(*c.FindTerm("mexico")), "mexico");
  EXPECT_GE(c.num_terms(), vocab.size() + 1);
  EXPECT_FALSE(c.FindTerm("zzzznotaword").has_value());
}

/// Ids of the documents with at least one posting in `corpus`'s index.
std::set<DocId> IndexedDocuments(const Corpus& corpus) {
  std::set<DocId> docs;
  for (TermId t = 0; t < corpus.num_terms(); ++t) {
    PostingsView posts = corpus.index().TermPostings(corpus.term(t));
    for (size_t e = 0; e < posts.size(); ++e) docs.insert(posts.doc(e));
  }
  return docs;
}

TEST(CorpusTest, ShardSliceSharesTermIds) {
  Corpus full = Corpus::Generate(SmallConfig(), {{"colorado", 1.0}});
  size_t owned = 0;
  for (size_t shard = 0; shard < 3; ++shard) {
    Corpus slice = Corpus::ShardSlice(full, shard, 3);
    ASSERT_EQ(slice.size(), full.size());
    EXPECT_EQ(slice.num_terms(), full.num_terms());
    std::set<DocId> indexed = IndexedDocuments(slice);
    for (const Document& d : slice.documents()) {
      // A view: the slice's documents are the full corpus's objects.
      ASSERT_EQ(&slice.document(d.id), &full.document(d.id));
      if (full.ShardOf(d.id, 3) != shard) {
        // Not owned: no posting in the slice's index, so it matches
        // nothing.
        EXPECT_EQ(indexed.count(d.id), 0u) << d.id;
        continue;
      }
      ++owned;
      EXPECT_EQ(d.terms, full.document(d.id).terms);
      EXPECT_EQ(d.url, full.document(d.id).url);
    }
  }
  EXPECT_EQ(owned, full.size());
}

TEST(CorpusTest, ShardSlicePostingsPartitionFullIndex) {
  constexpr size_t kShards = 3;
  Corpus full = Corpus::Generate(SmallConfig(), {{"new mexico", 2.0}});
  std::vector<Corpus> slices;
  for (size_t s = 0; s < kShards; ++s) {
    slices.push_back(Corpus::ShardSlice(full, s, kShards));
  }
  for (TermId t = 0; t < full.num_terms(); ++t) {
    const std::string& term = full.term(t);
    // Each full entry, by document: its positions.
    std::map<DocId, std::vector<uint32_t>> expected;
    PostingsView posts = full.index().TermPostings(term);
    for (size_t e = 0; e < posts.size(); ++e) {
      std::span<const uint32_t> p = posts.positions(e);
      expected[posts.doc(e)].assign(p.begin(), p.end());
    }
    std::map<DocId, std::vector<uint32_t>> merged;
    for (size_t s = 0; s < kShards; ++s) {
      PostingsView shard_posts = slices[s].index().TermPostings(term);
      for (size_t e = 0; e < shard_posts.size(); ++e) {
        DocId doc = shard_posts.doc(e);
        EXPECT_EQ(full.ShardOf(doc, kShards), s) << term << " " << doc;
        std::span<const uint32_t> p = shard_posts.positions(e);
        bool fresh =
            merged.emplace(doc, std::vector<uint32_t>(p.begin(), p.end()))
                .second;
        EXPECT_TRUE(fresh) << term << " " << doc;
      }
    }
    ASSERT_EQ(merged, expected) << term;
  }
}

TEST(CorpusTest, ShardSliceIsAWindowOntoTheFullIndex) {
  // A slice indexes nothing of its own: for every term, its postings
  // are the full index's entries of the documents it owns, one run of
  // consecutive entries read from the same arrays.
  Corpus full = Corpus::Generate(SmallConfig(), {{"new mexico", 2.0}});
  for (size_t n : {1u, 3u, 8u}) {
    for (size_t s = 0; s < n; ++s) {
      Corpus slice = Corpus::ShardSlice(full, s, n);
      size_t terms_present = 0;
      for (TermId t = 0; t < full.num_terms(); ++t) {
        PostingsView all = full.index().TermPostings(full.term(t));
        PostingsView part = slice.index().TermPostings(full.term(t));
        if (!part.empty()) ++terms_present;
        size_t first = all.size();
        size_t owned = 0;
        for (size_t e = 0; e < all.size(); ++e) {
          if (full.ShardOf(all.doc(e), n) != s) continue;
          first = std::min(first, e);
          ++owned;
        }
        ASSERT_EQ(part.size(), owned) << full.term(t) << " shard " << s;
        for (size_t i = 0; i < part.size(); ++i) {
          EXPECT_EQ(full.ShardOf(part.doc(i), n), s);
          EXPECT_EQ(part.doc(i), all.doc(first + i));
          EXPECT_EQ(part.positions(i).data(),
                    all.positions(first + i).data());
          EXPECT_EQ(part.positions(i).size(), all.positions(first + i).size());
        }
      }
      EXPECT_EQ(slice.index().num_terms(), terms_present) << "shard " << s;
    }
  }
}

/// FNV-1a over `bytes`, continuing from `h`.
uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest of every document's id, URL, date and token text.
uint64_t CorpusDigest(const Corpus& c) {
  uint64_t h = 14695981039346656037ull;
  for (const Document& d : c.documents()) {
    h = Fnv1a(h, std::to_string(d.id));
    h = Fnv1a(h, "|");
    h = Fnv1a(h, d.url);
    h = Fnv1a(h, "|");
    h = Fnv1a(h, d.date);
    h = Fnv1a(h, "|");
    for (TermId t : d.terms) {
      h = Fnv1a(h, c.term(t));
      h = Fnv1a(h, " ");
    }
    h = Fnv1a(h, "\n");
  }
  return h;
}

TEST(CorpusTest, PaperCorpusDigestIsPinned) {
  // Pins generation (vocabulary, Zipf draws, planting, URLs, dates):
  // any change to the RNG stream or the sampler moves these.
  const std::pair<uint64_t, uint64_t> kPinned[] = {
      {1, 0xab44b6aa81cab190ull},
      {7, 0xb882d5330ecfc8edull},
  };
  for (const auto& [seed, digest] : kPinned) {
    CorpusConfig cfg = DefaultPaperCorpusConfig();
    cfg.num_documents = 2000;
    cfg.seed = seed;
    EXPECT_EQ(CorpusDigest(MakePaperCorpus(cfg)), digest) << "seed " << seed;
  }
}

TEST(CorpusTest, GeneratesRequestedDocumentCount) {
  Corpus c = Corpus::Generate(SmallConfig(), {});
  EXPECT_EQ(c.size(), 500u);
}

TEST(CorpusTest, DeterministicFromSeed) {
  Corpus a = Corpus::Generate(SmallConfig(), {{"colorado", 1.0}});
  Corpus b = Corpus::Generate(SmallConfig(), {{"colorado", 1.0}});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.document(i).url, b.document(i).url);
    EXPECT_EQ(a.document(i).terms, b.document(i).terms);
  }
}

TEST(CorpusTest, DocLengthsWithinBounds) {
  CorpusConfig cfg = SmallConfig();
  cfg.entity_rate = 0;  // no injections
  cfg.cooc_rate = 0;
  Corpus c = Corpus::Generate(cfg, {});
  for (const Document& d : c.documents()) {
    EXPECT_GE(d.terms.size(), cfg.min_doc_length);
    EXPECT_LE(d.terms.size(), cfg.max_doc_length);
  }
}

TEST(CorpusTest, UrlsAreUnique) {
  Corpus c = Corpus::Generate(SmallConfig(), {});
  std::set<std::string> urls;
  for (const Document& d : c.documents()) urls.insert(d.url);
  EXPECT_EQ(urls.size(), c.size());
}

TEST(CorpusTest, DatesLookLike1999) {
  Corpus c = Corpus::Generate(SmallConfig(), {});
  for (const Document& d : c.documents()) {
    ASSERT_EQ(d.date.size(), 10u);
    EXPECT_EQ(d.date.substr(0, 5), "1999-");
  }
}

size_t CountMentions(const Corpus& c, const std::string& word) {
  size_t n = 0;
  for (const Document& d : c.documents()) {
    for (TermId t : d.terms) {
      if (c.term(t) == word) ++n;
    }
  }
  return n;
}

TEST(CorpusTest, EntityWeightsShapeMentionCounts) {
  Corpus c = Corpus::Generate(
      SmallConfig(),
      {{"heavyentity", 10.0}, {"lightentity", 1.0}});
  size_t heavy = CountMentions(c, "heavyentity");
  size_t light = CountMentions(c, "lightentity");
  EXPECT_GT(heavy, light * 3);
  EXPECT_GT(light, 0u);
}

TEST(CorpusTest, MultiWordEntitiesInsertedAdjacently) {
  Corpus c = Corpus::Generate(SmallConfig(), {{"new mexico", 5.0}});
  size_t adjacent = 0;
  for (const Document& d : c.documents()) {
    for (size_t i = 0; i + 1 < d.terms.size(); ++i) {
      if (c.term(d.terms[i]) == "new" &&
          c.term(d.terms[i + 1]) == "mexico") {
        ++adjacent;
      }
    }
  }
  EXPECT_GT(adjacent, 0u);
  // "mexico" only enters via the entity phrase, so nearly every mention
  // is preceded by "new" (a later injection can land inside an earlier
  // phrase and split it, hence "nearly").
  size_t total = CountMentions(c, "mexico");
  EXPECT_GE(adjacent * 10, total * 9);
  EXPECT_LE(adjacent, total);
}

TEST(CorpusTest, CooccurrencesPlantedWithinWindow) {
  CorpusConfig cfg = SmallConfig();
  cfg.cooc_rate = 0.5;
  Corpus c = Corpus::Generate(cfg, {},
                              {{"alphaterm", "betaterm", 1.0, ""}});
  size_t near_pairs = 0;
  for (const Document& d : c.documents()) {
    std::vector<size_t> a_pos, b_pos;
    for (size_t i = 0; i < d.terms.size(); ++i) {
      if (c.term(d.terms[i]) == "alphaterm") a_pos.push_back(i);
      if (c.term(d.terms[i]) == "betaterm") b_pos.push_back(i);
    }
    for (size_t a : a_pos) {
      for (size_t b : b_pos) {
        size_t dist = a > b ? a - b : b - a;
        if (dist <= cfg.near_window + 1) ++near_pairs;
      }
    }
  }
  EXPECT_GT(near_pairs, 50u);
}

TEST(CorpusTest, ZeroEntityRateLeavesPureBackground) {
  CorpusConfig cfg = SmallConfig();
  cfg.entity_rate = 0;
  Corpus c = Corpus::Generate(cfg, {{"uniqueentityword", 100.0}});
  EXPECT_EQ(CountMentions(c, "uniqueentityword"), 0u);
}

}  // namespace
}  // namespace wsq
