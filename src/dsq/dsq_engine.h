#ifndef WSQ_DSQ_DSQ_ENGINE_H_
#define WSQ_DSQ_DSQ_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "net/search_service.h"
#include "vtab/virtual_table.h"
#include "wsq/database.h"

namespace wsq {

/// Database-Supported Web Queries (paper §1): given a keyword phrase,
/// use the Web to correlate it with values stored in the database —
/// "DSQ could identify the states and the movies that appear on the Web
/// most often near the phrase 'scuba diving', and might even find
/// state/movie/scuba-diving triples".
///
/// Every candidate term from the named database columns triggers one
/// WebCount-style search ("<term> near <phrase>"); all searches are
/// issued concurrently through the database's ReqPump, so DSQ gets the
/// same asynchronous-iteration speedup as WSQ queries. Explain may run
/// concurrently with other statements on the same database (see
/// WsqDatabase's thread contract).
class DsqEngine {
 public:
  struct Options {
    /// Top terms reported per ranking.
    size_t top_k = 10;
    /// How many leading terms per source column feed the pair search.
    size_t pair_seed_terms = 4;
    /// Also correlate pairs of terms drawn from different columns
    /// (the "state/movie/scuba-diving triples" of §1).
    bool include_pairs = false;
    /// Drop terms/pairs whose co-occurrence count is zero.
    bool drop_zero_counts = true;
  };

  struct TermScore {
    std::string term;
    std::string source;  // "Table.Column"
    int64_t count = 0;
  };

  struct PairScore {
    std::string term_a;
    std::string term_b;
    int64_t count = 0;
  };

  struct Explanation {
    std::string phrase;
    /// All candidate terms ranked by co-occurrence count (descending),
    /// truncated to top_k.
    std::vector<TermScore> terms;
    /// Cross-column pairs ranked likewise (only when include_pairs).
    std::vector<PairScore> pairs;
    /// Total search engine calls issued.
    uint64_t external_calls = 0;
  };

  /// `db` supplies candidate terms and the ReqPump; `service` performs
  /// the searches. Both must outlive the engine.
  DsqEngine(WsqDatabase* db, SearchService* service)
      : db_(db), service_(service) {}

  /// Correlates `phrase` with the distinct string values of each
  /// "Table.Column" in `source_columns`.
  Result<Explanation> Explain(
      const std::string& phrase,
      const std::vector<std::string>& source_columns,
      const Options& options);
  Result<Explanation> Explain(
      const std::string& phrase,
      const std::vector<std::string>& source_columns) {
    return Explain(phrase, source_columns, Options());
  }

 private:
  /// Distinct string values of "Table.Column", tagged with the source.
  Result<std::vector<TermScore>> CandidateTerms(
      const std::string& source_column) const;

  /// Issues one count call per request (its search_exp expanded over
  /// its terms), concurrently; returns the counts in input order. The
  /// first failed call, in input order, is the result: the calls still
  /// out are cancelled, not waited for.
  Result<std::vector<int64_t>> CountAll(
      const std::vector<VTableRequest>& requests) const;

  WsqDatabase* db_;
  SearchService* service_;
};

}  // namespace wsq

#endif  // WSQ_DSQ_DSQ_ENGINE_H_
