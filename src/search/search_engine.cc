#include "search/search_engine.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/random.h"

namespace wsq {

SearchEngine::SearchEngine(const Corpus* corpus, SearchEngineConfig config)
    : corpus_(corpus), config_(std::move(config)) {}

double SearchEngine::StaticRank(DocId doc) const {
  // SplitMix-style mix of (rank_seed, doc id).
  return UnitDouble(Mix64(config_.rank_seed * kSplitMixGamma + doc));
}

namespace {

/// Minimum absolute distance between any pair of positions drawn from
/// two sorted lists (classic two-pointer merge).
uint32_t MinDistance(std::span<const uint32_t> a,
                     std::span<const uint32_t> b) {
  size_t i = 0, j = 0;
  uint32_t best = UINT32_MAX;
  while (i < a.size() && j < b.size()) {
    uint32_t x = a[i], y = b[j];
    best = std::min(best, x > y ? x - y : y - x);
    if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

}  // namespace

Result<std::vector<SearchEngine::Match>> SearchEngine::Evaluate(
    std::string_view query_text) const {
  WSQ_ASSIGN_OR_RETURN(SearchQuery query, ParseSearchQuery(query_text));
  bool near = query.use_near && config_.supports_near;

  // One posting list per conjunct: a single term is a view into the
  // index; a phrase's starts are computed into `phrase_lists`.
  std::vector<PostingList> phrase_lists;
  phrase_lists.reserve(query.phrases.size());
  std::vector<PostingsView> lists;
  lists.reserve(query.phrases.size());
  const InvertedIndex& index = corpus_->index();
  for (const SearchPhrase& p : query.phrases) {
    PostingsView list;
    if (p.terms.size() == 1) {
      list = index.TermPostings(p.terms[0]);
    } else {
      phrase_lists.push_back(index.PhrasePostings(p.terms));
      list = phrase_lists.back().view();
    }
    if (list.empty()) return std::vector<Match>{};  // conjunct absent
    lists.push_back(list);
  }

  std::vector<Match> matches;
  ForEachCommonDoc(lists, [&](std::span<const size_t> cursors) {
    if (near) {
      // Consecutive phrases must fall within the proximity window
      // (order-insensitive, AltaVista-style).
      for (size_t i = 0; i + 1 < lists.size(); ++i) {
        size_t span = config_.near_window +
                      std::max(query.phrases[i].terms.size(),
                               query.phrases[i + 1].terms.size());
        if (MinDistance(lists[i].positions(cursors[i]),
                        lists[i + 1].positions(cursors[i + 1])) > span) {
          return;
        }
      }
    }
    double tf = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      tf += static_cast<double>(lists[i].positions(cursors[i]).size());
    }
    matches.push_back(Match{lists[0].doc(cursors[0]), tf});
  });
  return matches;
}

Result<int64_t> SearchEngine::Count(std::string_view query_text) const {
  WSQ_ASSIGN_OR_RETURN(std::vector<Match> matches, Evaluate(query_text));
  return static_cast<int64_t>(matches.size());
}

Result<std::vector<SearchHit>> SearchEngine::Search(
    std::string_view query_text, size_t k) const {
  WSQ_ASSIGN_OR_RETURN(std::vector<Match> matches, Evaluate(query_text));

  // Rank (score, doc) pairs; only the top k become SearchHits.
  struct Ranked {
    double score;
    DocId doc;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(matches.size());
  for (const Match& m : matches) {
    double content =
        m.tf / (1.0 + std::log1p(corpus_->document(m.doc).terms.size()));
    ranked.push_back({(1.0 - config_.static_rank_weight) * content +
                          config_.static_rank_weight * StaticRank(m.doc),
                      m.doc});
  }

  size_t top = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + top, ranked.end(),
                    [](const Ranked& a, const Ranked& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  std::vector<SearchHit> hits(top);
  for (size_t i = 0; i < top; ++i) {
    const Document& doc = corpus_->document(ranked[i].doc);
    hits[i].url = doc.url;
    hits[i].rank = static_cast<int>(i + 1);
    hits[i].date = doc.date;
    hits[i].doc = ranked[i].doc;
    hits[i].score = ranked[i].score;
  }
  return hits;
}

}  // namespace wsq
