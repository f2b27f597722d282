#include "web/inverted_index.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace wsq {

InvertedIndex::InvertedIndex(const Corpus& corpus, size_t shard,
                             size_t num_shards)
    : dictionary_(corpus.dictionary_.get()), num_documents_(corpus.size()) {
  std::vector<const Document*> owned;
  for (const Document& doc : corpus.documents()) {
    if (Corpus::ShardOf(doc.id, num_shards) == shard) owned.push_back(&doc);
  }

  const size_t n = corpus.num_terms();
  // last_doc[t] is 1 + the last document seen holding term t (0: none),
  // so each (term, document) pair opens one entry.
  std::vector<uint32_t> last_doc(n, 0);
  std::vector<uint32_t> next_entry(n, 0);
  std::vector<uint32_t> next_position(n, 0);

  // Pass 1: count each term's entries and positions.
  for (const Document* doc : owned) {
    for (TermId t : doc->terms) {
      if (last_doc[t] != doc->id + 1) {
        last_doc[t] = doc->id + 1;
        ++next_entry[t];
      }
      ++next_position[t];
    }
  }

  // Turn the counts into each term's first entry and first position.
  term_begin_.resize(n + 1);
  uint32_t entries = 0;
  uint32_t positions = 0;
  for (size_t t = 0; t < n; ++t) {
    if (next_entry[t] > 0) ++num_terms_;
    term_begin_[t] = entries;
    entries += std::exchange(next_entry[t], entries);
    positions += std::exchange(next_position[t], positions);
  }
  term_begin_[n] = entries;
  docs_.resize(entries);
  offsets_.resize(entries + 1);
  offsets_[entries] = positions;
  positions_.resize(positions);

  // Pass 2: fill the arrays in document order, so every term's entries
  // are sorted by document and each entry's positions ascend.
  std::fill(last_doc.begin(), last_doc.end(), 0);
  for (const Document* doc : owned) {
    for (uint32_t pos = 0; pos < doc->terms.size(); ++pos) {
      TermId t = doc->terms[pos];
      if (last_doc[t] != doc->id + 1) {
        last_doc[t] = doc->id + 1;
        uint32_t e = next_entry[t]++;
        docs_[e] = doc->id;
        offsets_[e] = next_position[t];
      }
      positions_[next_position[t]++] = pos;
    }
  }
}

PostingsView InvertedIndex::TermPostings(const std::string& term) const {
  std::optional<TermId> t = dictionary_->Find(term);
  if (!t) return {};
  uint32_t begin = term_begin_[*t];
  uint32_t size = term_begin_[*t + 1] - begin;
  return PostingsView(std::span(docs_).subspan(begin, size),
                      std::span(offsets_).subspan(begin, size + 1),
                      positions_.data());
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
