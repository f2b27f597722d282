#include "web/corpus.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

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

TEST(CorpusTest, ShardSliceSharesTermIds) {
  Corpus full = Corpus::Generate(SmallConfig(), {{"colorado", 1.0}});
  size_t owned = 0;
  for (size_t shard = 0; shard < 3; ++shard) {
    Corpus slice = Corpus::ShardSlice(full, shard, 3);
    ASSERT_EQ(slice.size(), full.size());
    EXPECT_EQ(slice.num_terms(), full.num_terms());
    for (const Document& d : slice.documents()) {
      if (Corpus::ShardOf(d.id, 3) != shard) {
        EXPECT_TRUE(d.terms.empty());
        continue;
      }
      ++owned;
      EXPECT_EQ(d.terms, full.document(d.id).terms);
      EXPECT_EQ(d.url, full.document(d.id).url);
    }
  }
  EXPECT_EQ(owned, full.size());
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
