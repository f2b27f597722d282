#ifndef WSQ_SEARCH_SEARCH_ENGINE_H_
#define WSQ_SEARCH_SEARCH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "search/search_expr.h"
#include "web/corpus.h"
#include "web/inverted_index.h"

namespace wsq {

/// One ranked search result.
struct SearchHit {
  std::string url;
  /// 1-based rank, matching the paper's WebPages.Rank column.
  int rank = 0;
  std::string date;
  DocId doc = 0;
  double score = 0;
};

struct SearchEngineConfig {
  std::string name = "engine";
  /// Engines without NEAR (paper footnote 1: Google) treat a NEAR query
  /// as a plain conjunction.
  bool supports_near = true;
  /// Max distance between consecutive phrase starts for NEAR matches.
  size_t near_window = 10;
  /// Per-engine static-rank salt: two engines over the same corpus rank
  /// mostly by content score but break ties differently, so their top-k
  /// lists overlap without being identical (paper §3.1 Query 6).
  uint64_t rank_seed = 1;
  /// Blend of static (per-document) rank into the score, in [0,1].
  double static_rank_weight = 0.3;
};

/// A keyword search engine over a synthetic Web corpus.
///
/// Exposes exactly the two capabilities the paper's virtual tables
/// consume: a fast total-hit count (WebCount) and ranked top-k URLs
/// (WebPages). Evaluation is deterministic. The engine is ranking and
/// NEAR evaluation over the corpus's own index (Corpus::index); it
/// builds and keeps no index, so engines over one corpus share it.
///
/// Immutable after construction: every const method, Count and Search
/// included, is safe to call from any number of threads at once.
class SearchEngine {
 public:
  SearchEngine(const Corpus* corpus, SearchEngineConfig config);

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  const SearchEngineConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  const InvertedIndex& index() const { return corpus_->index(); }

  /// Total number of matching pages ("many Web search engines can
  /// return a total number of pages immediately", §3).
  Result<int64_t> Count(std::string_view query_text) const;

  /// Top `k` hits, rank 1 first. Deterministic ordering: score
  /// descending, then doc id.
  Result<std::vector<SearchHit>> Search(std::string_view query_text,
                                        size_t k) const;

 private:
  struct Match {
    DocId doc;
    double tf;  // total phrase occurrences
  };

  /// Evaluates the query to matching docs with term-frequency scores.
  Result<std::vector<Match>> Evaluate(std::string_view query_text) const;

  /// Deterministic per-document static rank in [0,1).
  double StaticRank(DocId doc) const;

  const Corpus* corpus_;
  SearchEngineConfig config_;
};

}  // namespace wsq

#endif  // WSQ_SEARCH_SEARCH_ENGINE_H_
