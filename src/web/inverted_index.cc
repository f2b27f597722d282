#include "web/inverted_index.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace wsq {

InvertedIndex::InvertedIndex(const Corpus& corpus)
    : dictionary_(corpus.dictionary_.get()),
      num_documents_(corpus.size()),
      begin_(0),
      end_(static_cast<DocId>(corpus.size())) {
  auto postings = std::make_shared<Postings>();
  const size_t n = corpus.num_terms();
  // last_doc[t] is 1 + the last document seen holding term t (0: none),
  // so each (term, document) pair opens one entry.
  std::vector<uint32_t> last_doc(n, 0);
  std::vector<uint32_t> next_entry(n, 0);
  std::vector<uint32_t> next_position(n, 0);

  // Pass 1: count each term's entries and positions.
  for (const Document& doc : corpus.documents()) {
    for (TermId t : doc.terms) {
      if (last_doc[t] != doc.id + 1) {
        last_doc[t] = doc.id + 1;
        ++next_entry[t];
      }
      ++next_position[t];
    }
  }

  // Turn the counts into each term's first entry and first position.
  std::vector<uint32_t>& term_begin = postings->term_begin;
  term_begin.resize(n + 1);
  uint32_t entries = 0;
  uint32_t positions = 0;
  for (size_t t = 0; t < n; ++t) {
    term_begin[t] = entries;
    entries += std::exchange(next_entry[t], entries);
    positions += std::exchange(next_position[t], positions);
  }
  term_begin[n] = entries;
  postings->docs.resize(entries);
  postings->offsets.resize(entries + 1);
  postings->offsets[entries] = positions;
  postings->positions.resize(positions);

  // Pass 2: fill the arrays in document order, so every term's entries
  // are sorted by document and each entry's positions ascend.
  std::fill(last_doc.begin(), last_doc.end(), 0);
  for (const Document& doc : corpus.documents()) {
    for (uint32_t pos = 0; pos < doc.terms.size(); ++pos) {
      TermId t = doc.terms[pos];
      if (last_doc[t] != doc.id + 1) {
        last_doc[t] = doc.id + 1;
        uint32_t e = next_entry[t]++;
        postings->docs[e] = doc.id;
        postings->offsets[e] = next_position[t];
      }
      postings->positions[next_position[t]++] = pos;
    }
  }
  postings_ = std::move(postings);
}

InvertedIndex::InvertedIndex(const InvertedIndex& full, DocId begin,
                             DocId end)
    : dictionary_(full.dictionary_),
      num_documents_(full.num_documents_),
      postings_(full.postings_),
      begin_(begin),
      end_(end) {}

std::pair<uint32_t, uint32_t> InvertedIndex::Entries(TermId t) const {
  const std::vector<DocId>& docs = postings_->docs;
  auto first = docs.begin() + postings_->term_begin[t];
  auto last = docs.begin() + postings_->term_begin[t + 1];
  first = std::lower_bound(first, last, begin_);
  last = std::lower_bound(first, last, end_);
  return {static_cast<uint32_t>(first - docs.begin()),
          static_cast<uint32_t>(last - docs.begin())};
}

size_t InvertedIndex::num_terms() const {
  size_t terms = 0;
  for (TermId t = 0; t + 1 < postings_->term_begin.size(); ++t) {
    auto [first, last] = Entries(t);
    if (first < last) ++terms;
  }
  return terms;
}

PostingsView InvertedIndex::TermPostings(const std::string& term) const {
  std::optional<TermId> t = dictionary_->Find(term);
  if (!t) return {};
  auto [first, last] = Entries(*t);
  return PostingsView(
      std::span(postings_->docs).subspan(first, last - first),
      std::span(postings_->offsets).subspan(first, last - first + 1),
      postings_->positions.data());
}

PostingList InvertedIndex::PhrasePostings(
    std::span<const std::string> terms) const {
  PostingList result;
  std::vector<PostingsView> lists;
  for (const std::string& term : terms) {
    PostingsView list = TermPostings(term);
    if (list.empty()) return result;
    lists.push_back(list);
  }

  // In each document holding every term, keep the first term's
  // positions that the others follow adjacently.
  ForEachCommonDoc(lists, [&](std::span<const size_t> cursors) {
    for (uint32_t start : lists[0].positions(cursors[0])) {
      bool match = true;
      for (size_t i = 1; i < lists.size() && match; ++i) {
        std::span<const uint32_t> pos = lists[i].positions(cursors[i]);
        match = std::binary_search(pos.begin(), pos.end(),
                                   start + static_cast<uint32_t>(i));
      }
      if (match) result.positions.push_back(start);
    }
    if (result.positions.size() > result.offsets.back()) {
      result.docs.push_back(lists[0].doc(cursors[0]));
      result.offsets.push_back(static_cast<uint32_t>(result.positions.size()));
    }
  });
  return result;
}

}  // namespace wsq
