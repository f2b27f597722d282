#include "web/inverted_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

// Tests use Corpus::Generate with crafted entities/co-occurrences and
// cross-check the index against brute-force scans of the documents.
namespace wsq {
namespace {

using Terms = std::vector<std::string>;

std::vector<uint32_t> Positions(const PostingsView& posts, size_t i) {
  std::span<const uint32_t> p = posts.positions(i);
  return {p.begin(), p.end()};
}

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
  const InvertedIndex& idx = c.index();
  PostingsView posts = idx.TermPostings("colorado");
  ASSERT_FALSE(posts.empty());
  EXPECT_GT(posts.size(), 10u);
  EXPECT_EQ(idx.DocumentFrequency("colorado"), posts.size());
}

TEST(InvertedIndexTest, MissingTermIsNull) {
  Corpus c = EntityCorpus();
  const InvertedIndex& idx = c.index();
  EXPECT_TRUE(idx.TermPostings("zzzznotaword").empty());
  EXPECT_EQ(idx.DocumentFrequency("zzzznotaword"), 0u);
}

TEST(InvertedIndexTest, PostingsSortedByDocWithSortedPositions) {
  Corpus c = EntityCorpus();
  const InvertedIndex& idx = c.index();
  PostingsView posts = idx.TermPostings("colorado");
  ASSERT_FALSE(posts.empty());
  DocId prev_doc = 0;
  bool first = true;
  for (size_t e = 0; e < posts.size(); ++e) {
    DocId doc = posts.doc(e);
    std::span<const uint32_t> positions = posts.positions(e);
    if (!first) {
      EXPECT_GT(doc, prev_doc);
    }
    prev_doc = doc;
    first = false;
    for (size_t i = 1; i < positions.size(); ++i) {
      EXPECT_LT(positions[i - 1], positions[i]);
    }
    // Positions actually hold the term.
    for (uint32_t pos : positions) {
      EXPECT_EQ(c.term(c.document(doc).terms[pos]), "colorado");
    }
  }
}

TEST(InvertedIndexTest, PhrasePostingsMatchAdjacentPairs) {
  Corpus c = EntityCorpus();
  const InvertedIndex& idx = c.index();
  Terms phrase{"new", "mexico"};
  PostingList list = idx.PhrasePostings(phrase);
  PostingsView posts = list.view();
  ASSERT_FALSE(posts.empty());
  for (size_t e = 0; e < posts.size(); ++e) {
    const Document& d = c.document(posts.doc(e));
    for (uint32_t pos : posts.positions(e)) {
      ASSERT_LT(pos + 1, d.terms.size());
      EXPECT_EQ(c.term(d.terms[pos]), "new");
      EXPECT_EQ(c.term(d.terms[pos + 1]), "mexico");
    }
  }
}

TEST(InvertedIndexTest, PhrasePostingsExhaustive) {
  // Brute-force cross-check of phrase matching.
  Corpus c = EntityCorpus();
  const InvertedIndex& idx = c.index();
  Terms phrase{"four", "corners"};
  PostingList list = idx.PhrasePostings(phrase);
  PostingsView posts = list.view();
  size_t index_hits = 0;
  for (size_t e = 0; e < posts.size(); ++e) {
    index_hits += posts.positions(e).size();
  }

  size_t brute_hits = 0;
  for (const Document& d : c.documents()) {
    for (size_t i = 0; i + 1 < d.terms.size(); ++i) {
      if (c.term(d.terms[i]) == "four" &&
          c.term(d.terms[i + 1]) == "corners") {
        ++brute_hits;
      }
    }
  }
  EXPECT_EQ(index_hits, brute_hits);
  EXPECT_GT(index_hits, 0u);
}

TEST(InvertedIndexTest, PhraseWithMissingTermIsEmpty) {
  Corpus c = EntityCorpus();
  const InvertedIndex& idx = c.index();
  EXPECT_TRUE(
      idx.PhrasePostings(Terms{"colorado", "zzzznotaword"}).view().empty());
  EXPECT_TRUE(idx.PhrasePostings(Terms{}).view().empty());
}

TEST(InvertedIndexTest, SingleTermPhraseEqualsTermPostings) {
  Corpus c = EntityCorpus();
  const InvertedIndex& idx = c.index();
  PostingList list = idx.PhrasePostings(Terms{"utah"});
  PostingsView phrase_posts = list.view();
  PostingsView term_posts = idx.TermPostings("utah");
  ASSERT_FALSE(term_posts.empty());
  ASSERT_EQ(phrase_posts.size(), term_posts.size());
  for (size_t i = 0; i < phrase_posts.size(); ++i) {
    EXPECT_EQ(phrase_posts.doc(i), term_posts.doc(i));
    EXPECT_EQ(Positions(phrase_posts, i), Positions(term_posts, i));
  }
}

TEST(InvertedIndexTest, NumDocumentsMatchesCorpus) {
  Corpus c = EntityCorpus();
  const InvertedIndex& idx = c.index();
  EXPECT_EQ(idx.num_documents(), c.size());
  EXPECT_GT(idx.num_terms(), 100u);
}

}  // namespace
}  // namespace wsq
