#ifndef WSQ_WSQ_WEB_TABLES_H_
#define WSQ_WSQ_WEB_TABLES_H_

#include <string>
#include <string_view>
#include <utility>

#include "net/search_service.h"
#include "vtab/virtual_table.h"

namespace wsq {

/// The one search call behind WebCount, WebPages and DSQ: expands
/// `search_exp` over `request.terms`, registers a `kind` search of
/// `service` on `pump` (destination `service->name()`, the top
/// `request.rank_limit` hits for kTopK, `request.shard` as the partial
/// policy), and decodes the answer into output rows: one (Count) row
/// for kCount, one (URL, Rank, Date) row per hit for kTopK, plus the
/// shards missing from a partial answer. `timeout_micros` > 0 sets the
/// call's deadline; otherwise the pump's default applies. The call is
/// keyed by the request and its shard policy, so it joins an identical
/// one that is unresolved or whose answer is still untaken
/// (ReqPump::Register). A template that fails to expand
/// resolves the call with that error.
CallId SubmitSearchCall(SearchService* service, SearchRequest::Kind kind,
                        std::string_view search_exp,
                        const VTableRequest& request, ReqPump* pump,
                        int64_t timeout_micros);

/// What the paper's two Web tables share: a search engine behind a
/// SearchService, the default SearchExp template for engines with and
/// without NEAR (paper footnote 1), and one SubmitSearchCall per access.
class WebSearchTable : public VirtualTable {
 public:
  const std::string& name() const override { return name_; }
  const std::string& destination() const override {
    return service_->name();
  }
  std::string EffectiveSearchExp(
      const VTableRequest& request) const override;

  using VirtualTable::SubmitAsync;
  CallId SubmitAsync(const VTableRequest& request, ReqPump* pump,
                     int64_t timeout_micros) override;

 protected:
  /// `service` must outlive the table.
  WebSearchTable(std::string name, SearchService* service,
                 bool supports_near, SearchRequest::Kind kind);

  /// [SearchExp, T1..Tn], qualified with the table name.
  Schema InputColumns(size_t n) const;

 private:
  std::string name_;
  SearchService* service_;
  bool supports_near_;
  SearchRequest::Kind kind_;
};

/// The paper's WebCount virtual table (§3):
///   WebCount(SearchExp, T1, ..., Tn, Count)
/// For bound SearchExp/terms it contains exactly one tuple whose Count
/// is the engine's total hit count.
class WebCountTable : public WebSearchTable {
 public:
  WebCountTable(std::string name, SearchService* service,
                bool supports_near)
      : WebSearchTable(std::move(name), service, supports_near,
                       SearchRequest::Kind::kCount) {}

  Schema SchemaForTerms(size_t n) const override;
  size_t NumOutputColumns() const override { return 1; }
  bool SingleRowOutput() const override { return true; }
};

/// The paper's WebPages virtual table (§3):
///   WebPages(SearchExp, T1, ..., Tn, URL, Rank, Date)
/// Ranked search results, restricted to Rank <= rank_limit.
class WebPagesTable : public WebSearchTable {
 public:
  WebPagesTable(std::string name, SearchService* service,
                bool supports_near)
      : WebSearchTable(std::move(name), service, supports_near,
                       SearchRequest::Kind::kTopK) {}

  Schema SchemaForTerms(size_t n) const override;
  size_t NumOutputColumns() const override { return 3; }
  bool SingleRowOutput() const override { return false; }
  std::string RankColumn() const override { return "Rank"; }
};

}  // namespace wsq

#endif  // WSQ_WSQ_WEB_TABLES_H_
