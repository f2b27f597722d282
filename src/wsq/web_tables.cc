#include "wsq/web_tables.h"

#include "common/strings.h"
#include "search/search_expr.h"

namespace wsq {

namespace {

CallResult DecodeResponse(SearchRequest::Kind kind, SearchResponse resp) {
  CallResult result;
  result.status = resp.status;
  if (!resp.status.ok()) return result;
  if (kind == SearchRequest::Kind::kCount) {
    result.rows.push_back(Row({Value::Int(resp.count)}));
  } else {
    result.rows.reserve(resp.hits.size());
    for (SearchHit& hit : resp.hits) {
      result.rows.push_back(Row({Value::Str(std::move(hit.url)),
                                 Value::Int(hit.rank),
                                 Value::Str(std::move(hit.date))}));
    }
  }
  // Degraded-coverage accounting (sharded backends): a count is a lower
  // bound and a hit list may miss pages when shards were missing.
  result.degraded_shards =
      resp.partial ? static_cast<uint32_t>(resp.shards_failed) : 0;
  return result;
}

}  // namespace

CallId SubmitSearchCall(SearchService* service, SearchRequest::Kind kind,
                        std::string_view search_exp,
                        const VTableRequest& request, ReqPump* pump,
                        int64_t timeout_micros) {
  auto submit = [&](AsyncCallFn fn, const std::string& key = {},
                    std::optional<HedgeTarget> hedge = std::nullopt) {
    return pump->Register(service->name(), std::move(fn),
                          timeout_micros > 0
                              ? timeout_micros
                              : pump->limits().default_timeout_micros,
                          nullptr, key, nullptr, std::move(hedge));
  };
  Result<std::string> query = ExpandSearchTemplate(search_exp, request.terms);
  if (!query.ok()) {
    Status failure = query.status();
    return submit([failure](CallCompletion done) {
      done(CallResult{failure, {}});
    });
  }
  if (kind == SearchRequest::Kind::kTopK && request.rank_limit <= 0) {
    return submit([](CallCompletion done) {
      done(CallResult{Status::OK(), {}});
    });
  }
  SearchRequest sreq;
  sreq.kind = kind;
  sreq.query = std::move(*query);
  if (kind == SearchRequest::Kind::kTopK) {
    sreq.k = static_cast<size_t>(request.rank_limit);
  }
  sreq.shard = request.shard;
  // Identical requests share one call while it is in flight or its
  // answer waits untaken. The shard policy is part of the key: each
  // caller judges a partial answer by its own.
  std::string key = StrFormat("%s:%d:", ShardPolicyToString(sreq.shard.policy),
                              sreq.shard.min_shards) +
                    sreq.CacheKey();
  AsyncCallFn call = [service, kind, sreq = std::move(sreq)](
                         CallCompletion done) mutable {
    service->Submit(std::move(sreq), [kind, done](SearchResponse resp) {
      done(DecodeResponse(kind, std::move(resp)));
    });
  };
  // A call still out past its engine's p95 is sent to it again, once the
  // engine has shown it serves requests independently (a self-hedge;
  // see ReqPump::Register).
  return submit(std::move(call), key, HedgeTarget{service->name(), nullptr});
}

WebSearchTable::WebSearchTable(std::string name, SearchService* service,
                               bool supports_near, SearchRequest::Kind kind)
    : name_(std::move(name)),
      service_(service),
      supports_near_(supports_near),
      kind_(kind) {}

std::string WebSearchTable::EffectiveSearchExp(
    const VTableRequest& request) const {
  if (!request.search_exp.empty()) return request.search_exp;
  return DefaultSearchTemplate(request.terms.size(), supports_near_);
}

CallId WebSearchTable::SubmitAsync(const VTableRequest& request,
                                   ReqPump* pump, int64_t timeout_micros) {
  return SubmitSearchCall(service_, kind_, EffectiveSearchExp(request),
                          request, pump, timeout_micros);
}

Schema WebSearchTable::InputColumns(size_t n) const {
  Schema s;
  s.AddColumn(Column("SearchExp", TypeId::kString, name_));
  for (size_t i = 1; i <= n; ++i) {
    s.AddColumn(Column(StrFormat("T%zu", i), TypeId::kString, name_));
  }
  return s;
}

Schema WebCountTable::SchemaForTerms(size_t n) const {
  Schema s = InputColumns(n);
  s.AddColumn(Column("Count", TypeId::kInt64, name()));
  return s;
}

Schema WebPagesTable::SchemaForTerms(size_t n) const {
  Schema s = InputColumns(n);
  s.AddColumn(Column("URL", TypeId::kString, name()));
  s.AddColumn(Column("Rank", TypeId::kInt64, name()));
  s.AddColumn(Column("Date", TypeId::kString, name()));
  return s;
}

}  // namespace wsq
