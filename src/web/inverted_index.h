#ifndef WSQ_WEB_INVERTED_INDEX_H_
#define WSQ_WEB_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "web/corpus.h"

namespace wsq {

/// A non-owning positional posting list: entry `i` is document doc(i),
/// and positions(i) holds that document's sorted token positions of a
/// term (or of a phrase's starts). Entries are sorted by document.
class PostingsView {
 public:
  PostingsView() = default;
  /// `offsets` has size() + 1 entries indexing into `positions`.
  PostingsView(std::span<const DocId> docs,
               std::span<const uint32_t> offsets, const uint32_t* positions)
      : docs_(docs), offsets_(offsets), positions_(positions) {}

  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }
  DocId doc(size_t i) const { return docs_[i]; }
  std::span<const uint32_t> positions(size_t i) const {
    return {positions_ + offsets_[i], positions_ + offsets_[i + 1]};
  }

 private:
  std::span<const DocId> docs_;
  std::span<const uint32_t> offsets_;
  const uint32_t* positions_ = nullptr;
};

/// An owned posting list in the same layout, for lists computed per
/// query (phrase starts); `offsets` holds docs.size() + 1 entries.
struct PostingList {
  std::vector<DocId> docs;
  std::vector<uint32_t> offsets{0};
  std::vector<uint32_t> positions;

  PostingsView view() const { return {docs, offsets, positions.data()}; }
};

/// Calls `fn(cursors)` for every document present in all of `lists`, in
/// document order; `cursors[i]` is that document's entry in `lists[i]`.
template <typename Fn>
void ForEachCommonDoc(std::span<const PostingsView> lists, Fn fn) {
  if (lists.empty()) return;
  std::vector<size_t> cursors(lists.size(), 0);
  DocId target = 0;
  size_t agreed = 0;  // lists in a row seen sitting on `target`
  for (size_t i = 0;; i = (i + 1) % lists.size()) {
    const PostingsView& list = lists[i];
    size_t& c = cursors[i];
    while (c < list.size() && list.doc(c) < target) ++c;
    if (c == list.size()) return;
    if (list.doc(c) > target) {
      target = list.doc(c);
      agreed = 0;
    }
    if (++agreed == lists.size()) {
      fn(std::span<const size_t>(cursors));
      ++target;
      agreed = 0;
    }
  }
}

/// Positional inverted index over a corpus's documents, keyed by
/// TermId and stored flat: a range of entries per term, and per entry a
/// document id and an offset into one positions array. Building it
/// allocates nothing per (term, document) pair.
///
/// An index belongs to its corpus (Corpus::index), which builds it once:
/// a generated corpus indexes every document, a shard slice only the
/// documents it owns. Every engine, replica and shard view over one
/// corpus therefore reads the same arrays, and only the corpus
/// constructs an index.
///
/// Immutable after construction: every const method is safe to call
/// from any number of threads at once.
class InvertedIndex {
 public:
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Postings of a single term, pointing into the index (valid while
  /// the index lives); empty when no indexed document holds the term.
  PostingsView TermPostings(const std::string& term) const;

  /// Postings of phrase *start* positions (adjacent-term match).
  /// Empty when any term is absent or the phrase never occurs.
  PostingList PhrasePostings(std::span<const std::string> terms) const;

  /// Number of distinct terms that occur in the indexed documents.
  size_t num_terms() const { return num_terms_; }
  /// Size of the document id space (the corpus's size).
  size_t num_documents() const { return num_documents_; }

  /// Document frequency of a term (0 when absent).
  size_t DocumentFrequency(const std::string& term) const {
    return TermPostings(term).size();
  }

 private:
  friend class Corpus;

  /// Indexes the documents of `corpus` that Corpus::ShardOf assigns to
  /// shard `shard` of `num_shards` (all of them when num_shards is 1).
  /// Keeps `corpus`'s dictionary, which is shared and never moves, to
  /// look terms up; it keeps no pointer to `corpus` itself.
  InvertedIndex(const Corpus& corpus, size_t shard, size_t num_shards);

  const Corpus::Dictionary* dictionary_;
  size_t num_documents_;
  size_t num_terms_ = 0;
  /// Term t's entries are [term_begin_[t], term_begin_[t + 1]).
  std::vector<uint32_t> term_begin_;
  /// Per entry: its document, and where its positions begin (one extra
  /// trailing offset closes the last entry).
  std::vector<DocId> docs_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> positions_;
};

}  // namespace wsq

#endif  // WSQ_WEB_INVERTED_INDEX_H_
