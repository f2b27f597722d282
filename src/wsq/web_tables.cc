#include "wsq/web_tables.h"

#include "common/macros.h"
#include "common/strings.h"
#include "search/search_expr.h"

namespace wsq {

namespace {

Schema InputColumns(const std::string& qualifier, size_t n) {
  Schema s;
  s.AddColumn(Column("SearchExp", TypeId::kString, qualifier));
  for (size_t i = 1; i <= n; ++i) {
    s.AddColumn(Column(StrFormat("T%zu", i), TypeId::kString, qualifier));
  }
  return s;
}

std::vector<Value> InputValuesFor(const std::string& search_exp,
                                  const VTableRequest& request) {
  std::vector<Value> inputs;
  inputs.reserve(1 + request.terms.size());
  inputs.push_back(Value::Str(search_exp));
  for (const std::string& t : request.terms) {
    inputs.push_back(Value::Str(t));
  }
  return inputs;
}

}  // namespace

WebCountTable::WebCountTable(std::string name, SearchService* service,
                             bool supports_near)
    : name_(std::move(name)),
      service_(service),
      supports_near_(supports_near) {}

Schema WebCountTable::SchemaForTerms(size_t n) const {
  Schema s = InputColumns(name_, n);
  s.AddColumn(Column("Count", TypeId::kInt64, name_));
  return s;
}

std::string WebCountTable::EffectiveSearchExp(
    const VTableRequest& request) const {
  if (!request.search_exp.empty()) return request.search_exp;
  return DefaultSearchTemplate(request.terms.size(), supports_near_);
}

Result<std::string> WebCountTable::ExpandQuery(
    const VTableRequest& request) const {
  return ExpandSearchTemplate(EffectiveSearchExp(request), request.terms);
}

Result<std::vector<Row>> WebCountTable::Fetch(
    const VTableRequest& request) {
  WSQ_ASSIGN_OR_RETURN(std::string query, ExpandQuery(request));
  SearchRequest sreq;
  sreq.kind = SearchRequest::Kind::kCount;
  sreq.query = query;
  SearchResponse resp = service_->Execute(std::move(sreq));
  WSQ_RETURN_IF_ERROR(resp.status);

  Row row(InputValuesFor(EffectiveSearchExp(request), request));
  row.Append(Value::Int(resp.count));
  return std::vector<Row>{std::move(row)};
}

CallId WebCountTable::SubmitAsync(const VTableRequest& request,
                                  ReqPump* pump,
                                  int64_t timeout_micros) {
  // timeout_micros > 0 carries the query's remaining deadline budget;
  // otherwise the pump's default timeout applies.
  auto submit = [&](AsyncCallFn fn) {
    return timeout_micros > 0
               ? pump->Register(destination(), std::move(fn),
                                timeout_micros)
               : pump->Register(destination(), std::move(fn));
  };
  auto query = ExpandQuery(request);
  if (!query.ok()) {
    Status failure = query.status();
    return submit([failure](CallCompletion done) {
      done(CallResult{failure, {}});
    });
  }
  SearchRequest sreq;
  sreq.kind = SearchRequest::Kind::kCount;
  sreq.query = std::move(*query);
  sreq.shard = request.shard;
  SearchService* service = service_;
  return submit(
      [service, sreq = std::move(sreq)](CallCompletion done) mutable {
        service->Submit(std::move(sreq), [done](SearchResponse resp) {
          CallResult result;
          result.status = resp.status;
          if (resp.status.ok()) {
            result.rows.push_back(Row({Value::Int(resp.count)}));
            // Degraded-coverage accounting (sharded backends): the
            // count is a lower bound when shards were missing.
            result.degraded_shards =
                resp.partial
                    ? static_cast<uint32_t>(resp.shards_failed)
                    : 0;
          }
          done(std::move(result));
        });
      });
}

WebPagesTable::WebPagesTable(std::string name, SearchService* service,
                             bool supports_near)
    : name_(std::move(name)),
      service_(service),
      supports_near_(supports_near) {}

Schema WebPagesTable::SchemaForTerms(size_t n) const {
  Schema s = InputColumns(name_, n);
  s.AddColumn(Column("URL", TypeId::kString, name_));
  s.AddColumn(Column("Rank", TypeId::kInt64, name_));
  s.AddColumn(Column("Date", TypeId::kString, name_));
  return s;
}

std::string WebPagesTable::EffectiveSearchExp(
    const VTableRequest& request) const {
  if (!request.search_exp.empty()) return request.search_exp;
  return DefaultSearchTemplate(request.terms.size(), supports_near_);
}

Result<std::string> WebPagesTable::ExpandQuery(
    const VTableRequest& request) const {
  return ExpandSearchTemplate(EffectiveSearchExp(request), request.terms);
}

namespace {

std::vector<Row> HitsToOutputRows(const std::vector<SearchHit>& hits) {
  std::vector<Row> rows;
  rows.reserve(hits.size());
  for (const SearchHit& hit : hits) {
    rows.push_back(Row({Value::Str(hit.url), Value::Int(hit.rank),
                        Value::Str(hit.date)}));
  }
  return rows;
}

}  // namespace

Result<std::vector<Row>> WebPagesTable::Fetch(
    const VTableRequest& request) {
  if (request.rank_limit <= 0) return std::vector<Row>{};
  WSQ_ASSIGN_OR_RETURN(std::string query, ExpandQuery(request));
  SearchRequest sreq;
  sreq.kind = SearchRequest::Kind::kTopK;
  sreq.query = query;
  sreq.k = static_cast<size_t>(request.rank_limit);
  SearchResponse resp = service_->Execute(std::move(sreq));
  WSQ_RETURN_IF_ERROR(resp.status);

  std::vector<Value> inputs =
      InputValuesFor(EffectiveSearchExp(request), request);
  std::vector<Row> rows;
  rows.reserve(resp.hits.size());
  for (const SearchHit& hit : resp.hits) {
    Row row(inputs);
    row.Append(Value::Str(hit.url));
    row.Append(Value::Int(hit.rank));
    row.Append(Value::Str(hit.date));
    rows.push_back(std::move(row));
  }
  return rows;
}

CallId WebPagesTable::SubmitAsync(const VTableRequest& request,
                                  ReqPump* pump,
                                  int64_t timeout_micros) {
  auto submit = [&](AsyncCallFn fn) {
    return timeout_micros > 0
               ? pump->Register(destination(), std::move(fn),
                                timeout_micros)
               : pump->Register(destination(), std::move(fn));
  };
  auto query = ExpandQuery(request);
  if (!query.ok()) {
    Status failure = query.status();
    return submit([failure](CallCompletion done) {
      done(CallResult{failure, {}});
    });
  }
  if (request.rank_limit <= 0) {
    return submit([](CallCompletion done) {
      done(CallResult{Status::OK(), {}});
    });
  }
  SearchRequest sreq;
  sreq.kind = SearchRequest::Kind::kTopK;
  sreq.query = std::move(*query);
  sreq.k = static_cast<size_t>(request.rank_limit);
  sreq.shard = request.shard;
  SearchService* service = service_;
  return submit(
      [service, sreq = std::move(sreq)](CallCompletion done) mutable {
        service->Submit(std::move(sreq), [done](SearchResponse resp) {
          CallResult result;
          result.status = resp.status;
          if (resp.status.ok()) {
            result.rows = HitsToOutputRows(resp.hits);
            result.degraded_shards =
                resp.partial
                    ? static_cast<uint32_t>(resp.shards_failed)
                    : 0;
          }
          done(std::move(result));
        });
      });
}

}  // namespace wsq
