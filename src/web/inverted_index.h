#ifndef WSQ_WEB_INVERTED_INDEX_H_
#define WSQ_WEB_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
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
/// A corpus has one index, built by Corpus::Generate, and every engine,
/// replica and shard view over the corpus reads its arrays. A shard
/// slice's index (Corpus::ShardSlice) is a window onto them: a shard
/// owns one contiguous range of document ids, which each term's
/// document-sorted entries hold as one sub-range, so a window finds it
/// with two binary searches per lookup and copies nothing.
///
/// Immutable after construction: every const method is safe to call
/// from any number of threads at once.
class InvertedIndex {
 public:
  /// Indexes every document of `corpus`. Corpus::Generate builds the
  /// corpus's own index this way; any other instance is an unshared
  /// copy (bench_micro times the build with one). Keeps `corpus`'s
  /// dictionary, which is shared and never moves, to look terms up; it
  /// keeps no pointer to `corpus` itself.
  explicit InvertedIndex(const Corpus& corpus);

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Postings of a single term, pointing into the index (valid while
  /// the index lives); empty when no document in the window holds the
  /// term.
  PostingsView TermPostings(const std::string& term) const;

  /// Postings of phrase *start* positions (adjacent-term match).
  /// Empty when any term is absent or the phrase never occurs.
  PostingList PhrasePostings(std::span<const std::string> terms) const;

  /// Number of distinct terms that occur in the window's documents,
  /// counted on each call.
  size_t num_terms() const;
  /// Size of the document id space (the corpus's size).
  size_t num_documents() const { return num_documents_; }

  /// Document frequency of a term (0 when absent).
  size_t DocumentFrequency(const std::string& term) const {
    return TermPostings(term).size();
  }

 private:
  friend class Corpus;  // makes shard windows

  /// The flat arrays, shared by an index and its windows.
  struct Postings {
    /// Term t's entries are [term_begin[t], term_begin[t + 1]).
    std::vector<uint32_t> term_begin;
    /// Per entry: its document, and where its positions begin (one
    /// extra trailing offset closes the last entry).
    std::vector<DocId> docs;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> positions;
  };

  /// A window onto `full`'s arrays that shows only the entries of the
  /// documents in [begin, end).
  InvertedIndex(const InvertedIndex& full, DocId begin, DocId end);

  /// Term `t`'s entries inside the window, as [first, last).
  std::pair<uint32_t, uint32_t> Entries(TermId t) const;

  const Corpus::Dictionary* dictionary_;
  size_t num_documents_;
  std::shared_ptr<const Postings> postings_;
  /// The window: only documents in [begin_, end_) are visible.
  DocId begin_;
  DocId end_;
};

}  // namespace wsq

#endif  // WSQ_WEB_INVERTED_INDEX_H_
