#include "dsq/dsq_engine.h"

#include <algorithm>
#include <set>
#include <span>

#include "common/macros.h"
#include "common/strings.h"
#include "wsq/web_tables.h"

namespace wsq {

Result<std::vector<DsqEngine::TermScore>> DsqEngine::CandidateTerms(
    const std::string& source_column) const {
  std::vector<std::string> parts = Split(source_column, '.');
  if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
    return Status::InvalidArgument(
        "source column must be written Table.Column: " + source_column);
  }
  WSQ_ASSIGN_OR_RETURN(TableInfo * table,
                       db_->catalog()->GetTable(parts[0]));
  WSQ_ASSIGN_OR_RETURN(size_t col, table->schema().Find("", parts[1]));
  if (table->schema().column(col).type != TypeId::kString) {
    return Status::InvalidArgument("DSQ terms must come from a STRING "
                                   "column: " +
                                   source_column);
  }

  std::set<std::string> seen;
  std::vector<TermScore> terms;
  TableScanner scanner(table);
  Row row;
  while (true) {
    WSQ_ASSIGN_OR_RETURN(bool more, scanner.Next(&row));
    if (!more) break;
    const Value& v = row.value(col);
    if (!v.is_string() || v.AsString().empty()) continue;
    if (!seen.insert(v.AsString()).second) continue;
    terms.push_back(TermScore{v.AsString(), source_column, 0});
  }
  return terms;
}

Result<std::vector<int64_t>> DsqEngine::CountAll(
    const std::vector<VTableRequest>& requests) const {
  ReqPump* pump = db_->pump();
  std::vector<CallId> calls;
  calls.reserve(requests.size());
  for (const VTableRequest& request : requests) {
    calls.push_back(SubmitSearchCall(service_, SearchRequest::Kind::kCount,
                                     request.search_exp, request, pump,
                                     /*timeout_micros=*/0));
  }

  std::vector<int64_t> counts;
  counts.reserve(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    CallResult result = pump->TakeBlocking(calls[i]);
    if (!result.status.ok()) {
      // Nothing will use the other answers: resolve the calls still out
      // without waiting for them.
      pump->CancelAndTake(std::span<const CallId>(calls).subspan(i + 1));
      return result.status;
    }
    counts.push_back(result.rows[0].value(0).AsInt());
  }
  return counts;
}

Result<DsqEngine::Explanation> DsqEngine::Explain(
    const std::string& phrase,
    const std::vector<std::string>& source_columns,
    const Options& options) {
  if (phrase.empty()) {
    return Status::InvalidArgument("DSQ phrase is empty");
  }
  if (source_columns.empty()) {
    return Status::InvalidArgument("DSQ needs at least one source column");
  }

  Explanation out;
  out.phrase = phrase;

  // Candidate terms, grouped by source for the pair stage.
  std::vector<std::vector<TermScore>> by_source;
  std::vector<TermScore> all;
  for (const std::string& sc : source_columns) {
    WSQ_ASSIGN_OR_RETURN(std::vector<TermScore> terms,
                         CandidateTerms(sc));
    all.insert(all.end(), terms.begin(), terms.end());
    by_source.push_back(std::move(terms));
  }

  // One concurrent search per candidate: "<term> near <phrase>". The
  // terms are substituted verbatim, so a phrase that contains "%1" is
  // searched as written.
  std::vector<VTableRequest> requests;
  requests.reserve(all.size());
  for (const TermScore& t : all) {
    requests.push_back(VTableRequest{.search_exp = "%1 near %2",
                                     .terms = {t.term, phrase}});
  }
  WSQ_ASSIGN_OR_RETURN(std::vector<int64_t> counts, CountAll(requests));
  out.external_calls += requests.size();
  for (size_t i = 0; i < all.size(); ++i) {
    all[i].count = counts[i];
  }

  std::stable_sort(all.begin(), all.end(),
                   [](const TermScore& a, const TermScore& b) {
                     return a.count > b.count;
                   });
  for (const TermScore& t : all) {
    if (options.drop_zero_counts && t.count == 0) continue;
    out.terms.push_back(t);
    if (out.terms.size() >= options.top_k) break;
  }

  if (options.include_pairs && by_source.size() >= 2) {
    // Rank the per-source term lists by their solo scores, then probe
    // cross-source pairs among the leaders.
    for (auto& terms : by_source) {
      for (TermScore& t : terms) {
        for (const TermScore& scored : all) {
          if (scored.term == t.term && scored.source == t.source) {
            t.count = scored.count;
          }
        }
      }
      std::stable_sort(terms.begin(), terms.end(),
                       [](const TermScore& a, const TermScore& b) {
                         return a.count > b.count;
                       });
      if (terms.size() > options.pair_seed_terms) {
        terms.resize(options.pair_seed_terms);
      }
    }

    std::vector<PairScore> pairs;
    std::vector<VTableRequest> pair_requests;
    for (size_t i = 0; i < by_source.size(); ++i) {
      for (size_t j = i + 1; j < by_source.size(); ++j) {
        for (const TermScore& a : by_source[i]) {
          for (const TermScore& b : by_source[j]) {
            pairs.push_back(PairScore{a.term, b.term, 0});
            pair_requests.push_back(
                VTableRequest{.search_exp = "%1 near %2 near %3",
                              .terms = {a.term, b.term, phrase}});
          }
        }
      }
    }
    WSQ_ASSIGN_OR_RETURN(std::vector<int64_t> pair_counts,
                         CountAll(pair_requests));
    out.external_calls += pair_requests.size();
    for (size_t i = 0; i < pairs.size(); ++i) {
      pairs[i].count = pair_counts[i];
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const PairScore& a, const PairScore& b) {
                       return a.count > b.count;
                     });
    for (const PairScore& p : pairs) {
      if (options.drop_zero_counts && p.count == 0) continue;
      out.pairs.push_back(p);
      if (out.pairs.size() >= options.top_k) break;
    }
  }
  return out;
}

}  // namespace wsq
