#include "search/inverted_index.h"

#include <gtest/gtest.h>

// Tests use Corpus::Generate with crafted entities/co-occurrences and
// cross-check the index against brute-force scans of the documents.
namespace wsq {
namespace {

Corpus EntityCorpus() {
  CorpusConfig cfg;
  cfg.num_documents = 400;
  cfg.min_doc_length = 30;
  cfg.max_doc_length = 80;
  cfg.vocab_size = 200;
  cfg.seed = 11;
  cfg.cooc_rate = 0.3;
  return Corpus::Generate(
      cfg,
      {{"colorado", 5.0}, {"utah", 2.0}, {"new mexico", 3.0}},
      {{"colorado", "four corners", 1.0, ""},
       {"utah", "four corners", 1.0, ""}});
}

TEST(InvertedIndexTest, TermPostingsPresent) {
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  const auto* posts = idx.TermPostings("colorado");
  ASSERT_NE(posts, nullptr);
  EXPECT_GT(posts->size(), 10u);
  EXPECT_EQ(idx.DocumentFrequency("colorado"), posts->size());
}

TEST(InvertedIndexTest, MissingTermIsNull) {
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  EXPECT_EQ(idx.TermPostings("zzzznotaword"), nullptr);
  EXPECT_EQ(idx.DocumentFrequency("zzzznotaword"), 0u);
}

TEST(InvertedIndexTest, PostingsSortedByDocWithSortedPositions) {
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  const auto* posts = idx.TermPostings("colorado");
  ASSERT_NE(posts, nullptr);
  DocId prev_doc = 0;
  bool first = true;
  for (const Posting& p : *posts) {
    if (!first) {
      EXPECT_GT(p.doc, prev_doc);
    }
    prev_doc = p.doc;
    first = false;
    for (size_t i = 1; i < p.positions.size(); ++i) {
      EXPECT_LT(p.positions[i - 1], p.positions[i]);
    }
    // Positions actually hold the term.
    for (uint32_t pos : p.positions) {
      EXPECT_EQ(c.document(p.doc).terms[pos], "colorado");
    }
  }
}

TEST(InvertedIndexTest, PhrasePostingsMatchAdjacentPairs) {
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  SearchPhrase phrase{{"new", "mexico"}};
  auto posts = idx.PhrasePostings(phrase);
  ASSERT_FALSE(posts.empty());
  for (const Posting& p : posts) {
    const Document& d = c.document(p.doc);
    for (uint32_t pos : p.positions) {
      ASSERT_LT(pos + 1, d.terms.size());
      EXPECT_EQ(d.terms[pos], "new");
      EXPECT_EQ(d.terms[pos + 1], "mexico");
    }
  }
}

TEST(InvertedIndexTest, PhrasePostingsExhaustive) {
  // Brute-force cross-check of phrase matching.
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  SearchPhrase phrase{{"four", "corners"}};
  auto posts = idx.PhrasePostings(phrase);
  size_t index_hits = 0;
  for (const Posting& p : posts) index_hits += p.positions.size();

  size_t brute_hits = 0;
  for (const Document& d : c.documents()) {
    for (size_t i = 0; i + 1 < d.terms.size(); ++i) {
      if (d.terms[i] == "four" && d.terms[i + 1] == "corners") {
        ++brute_hits;
      }
    }
  }
  EXPECT_EQ(index_hits, brute_hits);
  EXPECT_GT(index_hits, 0u);
}

TEST(InvertedIndexTest, PhraseWithMissingTermIsEmpty) {
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  EXPECT_TRUE(idx.PhrasePostings({{"colorado", "zzzznotaword"}}).empty());
  EXPECT_TRUE(idx.PhrasePostings({{}}).empty());
}

TEST(InvertedIndexTest, SingleTermPhraseEqualsTermPostings) {
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  auto phrase_posts = idx.PhrasePostings({{"utah"}});
  const auto* term_posts = idx.TermPostings("utah");
  ASSERT_NE(term_posts, nullptr);
  ASSERT_EQ(phrase_posts.size(), term_posts->size());
  for (size_t i = 0; i < phrase_posts.size(); ++i) {
    EXPECT_EQ(phrase_posts[i].doc, (*term_posts)[i].doc);
    EXPECT_EQ(phrase_posts[i].positions, (*term_posts)[i].positions);
  }
}

TEST(InvertedIndexTest, NumDocumentsMatchesCorpus) {
  Corpus c = EntityCorpus();
  InvertedIndex idx(&c);
  EXPECT_EQ(idx.num_documents(), c.size());
  EXPECT_GT(idx.num_terms(), 100u);
}

}  // namespace
}  // namespace wsq
