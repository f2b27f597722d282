#include "net/sharded_service.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace wsq {

namespace {

/// Shard SearchResponses travel through the ReqPump encoded as
/// CallResult rows, so the pump ledger IS the data path (no flight-
/// lifetime side channel for late completions to dangle on):
///   kCount: one row [count]
///   kTopK:  one row per hit [url, rank, date, doc, score]
/// Value::Real stores the double natively, so scores round-trip exactly
/// and the merged ordering matches the unsharded engine bit-for-bit.
CallResult EncodeResponse(SearchRequest::Kind kind,
                          const SearchResponse& resp) {
  CallResult result;
  result.status = resp.status;
  if (!resp.status.ok()) return result;
  if (kind == SearchRequest::Kind::kCount) {
    result.rows.push_back(Row({Value::Int(resp.count)}));
  } else {
    result.rows.reserve(resp.hits.size());
    for (const SearchHit& hit : resp.hits) {
      result.rows.push_back(
          Row({Value::Str(hit.url), Value::Int(hit.rank),
               Value::Str(hit.date),
               Value::Int(static_cast<int64_t>(hit.doc)),
               Value::Real(hit.score)}));
    }
  }
  return result;
}

void DecodeRows(SearchRequest::Kind kind, const std::vector<Row>& rows,
                int64_t* count, std::vector<SearchHit>* hits) {
  if (kind == SearchRequest::Kind::kCount) {
    *count = rows.empty() ? 0 : rows[0].value(0).AsInt();
    return;
  }
  hits->reserve(rows.size());
  for (const Row& row : rows) {
    SearchHit hit;
    hit.url = row.value(0).AsString();
    hit.rank = static_cast<int>(row.value(1).AsInt());
    hit.date = row.value(2).AsString();
    hit.doc = static_cast<DocId>(row.value(3).AsInt());
    hit.score = row.value(4).AsDouble();
    hits->push_back(std::move(hit));
  }
}

/// A shard leg's call on `service`: submits `request` and encodes the
/// answer for the pump.
AsyncCallFn LegFn(SearchService* service, const SearchRequest& request) {
  return [service, request](CallCompletion pump_done) {
    service->Submit(request, [kind = request.kind,
                              pump_done = std::move(pump_done)](
                                 SearchResponse resp) {
      pump_done(EncodeResponse(kind, resp));
    });
  };
}

/// What a request gets once the service is shutting down.
SearchResponse ShuttingDown(const std::string& name) {
  return SearchResponse{
      Status::Unavailable("sharded service shutting down: " + name), 0, {}};
}

/// Shards that must answer OK for this request's policy to succeed.
int NeededShards(const ShardOptions& options, int num_shards) {
  switch (options.policy) {
    case ShardPolicy::kFail:
      return num_shards;
    case ShardPolicy::kQuorum: {
      int k = options.min_shards <= 0 ? num_shards : options.min_shards;
      return std::max(1, std::min(k, num_shards));
    }
    case ShardPolicy::kBestEffort:
      return 1;
  }
  return num_shards;
}

}  // namespace

ShardedSearchService::ShardedSearchService(std::vector<Shard> shards,
                                           ReqPump* pump, Options options)
    : shards_(std::move(shards)),
      pump_(pump),
      options_(std::move(options)),
      guard_(std::make_shared<Guard>(this)) {
  destinations_.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    destinations_.push_back(shard.primary->name());
    // Introduce the shard's destinations to the pump here, outside mu_:
    // a first Register there would take the registry's lock under mu_,
    // which the collector below takes under the registry's.
    pump_->latency_histogram(destinations_.back());
    if (shard.replica != nullptr) {
      pump_->latency_histogram(shard.replica->name());
    }
  }
  shard_ok_.assign(shards_.size(), true);
  shard_decided_ok_.assign(shards_.size(), 0);
  shard_decided_failed_.assign(shards_.size(), 0);
  collector_id_ = MetricsRegistry::Global()->AddCollector(
      [this](MetricsEmitter* emitter) {
        ShardedServiceStats s;
        std::vector<bool> healthy;
        std::vector<uint64_t> ok_counts;
        std::vector<uint64_t> failed_counts;
        {
          MutexLock lock(&mu_);
          s = stats_;
          healthy = shard_ok_;
          ok_counts = shard_decided_ok_;
          failed_counts = shard_decided_failed_;
        }
        MetricLabels labels{{"service", options_.name}};
        emitter->EmitCounter("wsq_shard_fanouts_total",
                             "Logical requests fanned out to the shards",
                             labels, s.fanouts);
        emitter->EmitCounter(
            "wsq_shard_coalesced_total",
            "Logical requests whose every shard leg joined an in-flight one",
            labels, s.coalesced);
        emitter->EmitCounter("wsq_shard_hedges_total",
                             "Shard legs the pump sent to their replica",
                             labels, s.hedges);
        emitter->EmitCounter(
            "wsq_shard_hedge_wins_total",
            "Shard calls decided by the hedge instead of the primary",
            labels, s.hedge_wins);
        emitter->EmitCounter(
            "wsq_shard_partial_results_total",
            "Responses merged from a strict subset of shards", labels,
            s.partial_results);
        emitter->EmitCounter(
            "wsq_shard_quorum_failures_total",
            "Requests failed because too few shards answered", labels,
            s.quorum_failures);
        emitter->EmitCounter(
            "wsq_shard_degraded_total",
            "Total shards missing across all partial responses", labels,
            s.degraded_shards);
        for (size_t i = 0; i < destinations_.size(); ++i) {
          MetricLabels shard_labels{{"destination", destinations_[i]}};
          emitter->EmitGauge(
              "wsq_shard_healthy",
              "1 while the shard's last decided call answered OK",
              shard_labels, healthy[i] ? 1 : 0);
          emitter->EmitCounter("wsq_shard_calls_ok_total",
                               "Shard calls decided OK", shard_labels,
                               ok_counts[i]);
          emitter->EmitCounter("wsq_shard_calls_failed_total",
                               "Shard calls decided failed", shard_labels,
                               failed_counts[i]);
        }
      });
}

ShardedSearchService::~ShardedSearchService() {
  MetricsRegistry::Global()->RemoveCollector(collector_id_);
  {
    // Waits out a running pump callback; later ones find no service.
    MutexLock lock(&guard_->mu);
    guard_->service = nullptr;
  }
  // Honour the SearchService contract: every accepted request completes.
  std::vector<Delivery> deliveries;
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    for (auto& entry : flights_) {
      Flight& flight = entry.second;
      ReleaseLegsLocked(flight);
      deliveries.push_back(
          Delivery{std::move(flight.done), ShuttingDown(options_.name)});
    }
    flights_.clear();
    idle_cv_.NotifyAll();
  }
  for (Delivery& d : deliveries) d.done(std::move(d.response));
}

void ShardedSearchService::Submit(SearchRequest request,
                                  SearchCallback done) {
  const uint64_t query_id = CurrentQueryId();
  MutexLock lock(&mu_);
  if (stopping_) {
    lock.Unlock();
    done(ShuttingDown(options_.name));
    return;
  }
  const uint64_t flight_id = next_flight_id_++;
  Flight& flight = flights_[flight_id];
  flight.flight_id = flight_id;
  flight.request = std::move(request);
  flight.leg_key = flight.request.CacheKey();
  flight.calls.resize(shards_.size());
  flight.done = std::move(done);
  flight.query_id = query_id;
  FlightRecorder::Global()->Record(FrEventType::kFanout, options_.name, "",
                                   query_id, static_cast<int64_t>(flight_id),
                                   static_cast<int64_t>(shards_.size()));
  // The pump notifies each leg on its timer thread, never inside
  // Register, so the flight stays in place while its legs register.
  bool all_joined = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    RegisterLegLocked(&flight, i);
    all_joined = all_joined && flight.calls[i].joined;
  }
  if (all_joined) {
    ++stats_.coalesced;
  } else {
    ++stats_.fanouts;
  }
}

void ShardedSearchService::Quiesce() {
  MutexLock lock(&mu_);
  while (!flights_.empty() || delivering_ > 0) {
    idle_cv_.WaitForMicros(mu_, 10000);
  }
}

ShardedServiceStats ShardedSearchService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

std::vector<bool> ShardedSearchService::shard_health() const {
  MutexLock lock(&mu_);
  return shard_ok_;
}

void ShardedSearchService::RegisterLegLocked(Flight* flight, size_t i) {
  const Shard& shard = shards_[i];
  std::optional<HedgeTarget> hedge;
  if (shard.replica != nullptr) {
    hedge = HedgeTarget{shard.replica->name(),
                        LegFn(shard.replica, flight->request)};
  }
  ShardCall& call = flight->calls[i];
  call.call = pump_->Register(destinations_[i],
                              LegFn(shard.primary, flight->request),
                              options_.call_timeout_micros,
                              ShardEvent(*flight, i), flight->leg_key,
                              &call.joined, std::move(hedge));
  if (!call.joined) ++stats_.shard_calls;
}

PumpCallback ShardedSearchService::ShardEvent(const Flight& flight,
                                              size_t i) {
  return [guard = guard_, flight_id = flight.flight_id, i] {
    std::vector<Delivery> deliveries;
    {
      MutexLock lock(&guard->mu);
      if (guard->service == nullptr) return;
      guard->service->OnShardEvent(flight_id, i, &deliveries);
    }
    // Deliver callbacks outside every lock: they may re-enter Submit or
    // take arbitrary downstream locks.
    for (Delivery& d : deliveries) d.done(std::move(d.response));
    if (deliveries.empty()) return;
    MutexLock lock(&guard->mu);
    if (guard->service != nullptr) {
      guard->service->OnDelivered(deliveries.size());
    }
  };
}

void ShardedSearchService::OnDelivered(size_t n) {
  MutexLock lock(&mu_);
  delivering_ -= n;
  idle_cv_.NotifyAll();
}

void ShardedSearchService::OnShardEvent(uint64_t flight_id, size_t i,
                                        std::vector<Delivery>* out) {
  MutexLock lock(&mu_);
  auto it = flights_.find(flight_id);
  if (it == flights_.end()) return;
  DecideShardLocked(&it->second, i);
  SettleLocked(it, out);
}

void ShardedSearchService::ReleaseLegsLocked(const Flight& flight) {
  std::vector<CallId> legs;
  legs.reserve(flight.calls.size());
  for (const ShardCall& call : flight.calls) legs.push_back(call.call);
  // Cancels the legs still out (nobody will consume them, and a dark
  // shard's timeout must not keep them) and takes every result, which
  // ends the read legs' answers' hold on the pump. Registered in shard
  // order, so CancelAndTake cancels the newest first.
  pump_->CancelAndTake(legs);
}

SearchResponse ShardedSearchService::MergeLocked(
    const Flight& flight) const {
  SearchResponse resp;
  resp.status = Status::OK();
  resp.shards_total = static_cast<int>(flight.calls.size());
  std::vector<SearchHit> all;
  for (const ShardCall& call : flight.calls) {
    if (!call.decided || !call.ok) {
      ++resp.shards_failed;
      continue;
    }
    resp.count += call.answer.count;
    all.insert(all.end(), call.answer.hits.begin(),
               call.answer.hits.end());
  }
  resp.partial = resp.shards_failed > 0;
  if (flight.request.kind == SearchRequest::Kind::kTopK) {
    resp.count = 0;  // kTopK leaves count unset, like the plain engine
    // Same order as SearchEngine::Search: score descending, DocId
    // ascending. Scores are purely per-document, so merging the
    // per-shard top-k lists reproduces the unsharded top-k exactly.
    std::sort(all.begin(), all.end(),
              [](const SearchHit& a, const SearchHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (all.size() > flight.request.k) all.resize(flight.request.k);
    for (size_t i = 0; i < all.size(); ++i) {
      all[i].rank = static_cast<int>(i + 1);
    }
    resp.hits = std::move(all);
  }
  return resp;
}

void ShardedSearchService::DecideShardLocked(Flight* flight, size_t i) {
  ShardCall& call = flight->calls[i];
  // The leg is read with Peek: its result stays in ReqPumpHash until the
  // flight settles, so identical legs of later requests join it.
  CallResult result;
  if (call.decided || !pump_->Peek(call.call, &result)) return;
  const bool ok = result.status.ok();
  call.decided = true;
  call.ok = ok;
  if (!call.joined) {
    // The pump's hedge of this request's own leg; a joined leg's counts
    // with the request that dispatched it.
    if (result.hedged) {
      ++stats_.shard_calls;
      ++stats_.hedges;
    }
    if (result.hedge_won) ++stats_.hedge_wins;
  }
  std::string fail_code;
  if (ok) {
    DecodeRows(flight->request.kind, result.rows, &call.answer.count,
               &call.answer.hits);
    ++shard_decided_ok_[i];
  } else {
    fail_code = StatusCodeToString(result.status.code());
    ++shard_decided_failed_[i];
  }
  call.answer.status = std::move(result.status);
  shard_ok_[i] = ok;
  FlightRecorder::Global()->Record(
      ok ? FrEventType::kShardLegOk : FrEventType::kShardLegFail,
      destinations_[i],
      ok ? (result.hedge_won ? "hedge_won" : "") : fail_code,
      /*query_id=*/0, static_cast<int64_t>(flight->flight_id),
      static_cast<int64_t>(i));
}

void ShardedSearchService::SettleLocked(
    std::map<uint64_t, Flight>::iterator it, std::vector<Delivery>* out) {
  Flight* flight = &it->second;
  const int n = static_cast<int>(flight->calls.size());
  int decided = 0;
  int decided_failed = 0;
  for (const ShardCall& call : flight->calls) {
    if (!call.decided) continue;
    ++decided;
    if (!call.ok) ++decided_failed;
  }

  // The request fails early once its quorum has become impossible (more
  // shards down than it can tolerate); a success waits for every shard
  // to decide so healthy runs merge all shards.
  const int need = NeededShards(flight->request.shard, n);
  SearchResponse resp;
  if (n - decided_failed < need) {
    ++stats_.quorum_failures;
    FlightRecorder::Global()->Record(
        FrEventType::kQuorumFail, options_.name,
        std::to_string(decided_failed) + "_of_" + std::to_string(n) +
            "_shards_failed",
        flight->query_id, static_cast<int64_t>(flight->flight_id), need);
    // Representative error: prefer a non-transient shard error (the
    // engine answered — e.g. a parse error — and every shard gave the
    // same answer) over a generic "shards dark".
    resp.status = Status::Unavailable(
        options_.name + ": " + std::to_string(decided_failed) + " of " +
        std::to_string(n) + " shards failed to answer");
    for (const ShardCall& call : flight->calls) {
      if (call.decided && !call.ok &&
          !IsTransient(call.answer.status.code())) {
        resp.status = call.answer.status;
        break;
      }
    }
  } else if (decided == n) {
    resp = MergeLocked(*flight);
    if (resp.partial) {
      ++stats_.partial_results;
      stats_.degraded_shards += static_cast<uint64_t>(resp.shards_failed);
    } else {
      ++stats_.complete_results;
    }
  } else {
    return;
  }
  out->push_back(Delivery{std::move(flight->done), std::move(resp)});
  ++delivering_;
  ReleaseLegsLocked(*flight);
  flights_.erase(it);
  if (flights_.empty()) idle_cv_.NotifyAll();
}

SimulatedShardCluster::SimulatedShardCluster(const Corpus* corpus,
                                             Options options)
    : options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  const size_t n = options_.num_shards;
  slices_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slices_.push_back(Corpus::ShardSlice(*corpus, i, n));
  }
  std::vector<ShardedSearchService::Shard> shards(n);
  for (size_t i = 0; i < n; ++i) {
    // Shard engines keep the base rank_seed: per-document scores are
    // then identical to the unsharded engine's, which is what makes
    // merged results byte-identical. Only the name differs.
    SearchEngineConfig cfg = options_.engine;
    cfg.name = options_.engine.name + ".shard" + std::to_string(i);
    engines_.push_back(std::make_unique<SearchEngine>(&slices_[i], cfg));
    SimulatedSearchService::Options sim;
    sim.latency = options_.latency;
    sim.server_capacity = options_.server_capacity;
    sim.seed = options_.seed + i * 1000003u;
    if (i < options_.shard_faults.size()) sim.faults = options_.shard_faults[i];
    nodes_.push_back(std::make_unique<SimulatedSearchService>(
        engines_[i].get(), sim));
    shards[i].primary = nodes_[i].get();
    if (options_.with_replicas) {
      SearchEngineConfig replica_cfg = cfg;
      replica_cfg.name = cfg.name + "r";
      replica_engines_.push_back(
          std::make_unique<SearchEngine>(&slices_[i], replica_cfg));
      SimulatedSearchService::Options replica_sim = sim;
      replica_sim.seed = sim.seed ^ 0x5eedful;
      replica_sim.faults = FaultPlan{};
      replica_nodes_.push_back(std::make_unique<SimulatedSearchService>(
          replica_engines_[i].get(), replica_sim));
      shards[i].replica = replica_nodes_[i].get();
    }
  }
  // Offset the pump's backoff draws by the cluster seed, as the nodes'
  // latency draws are, so one seed reseeds the whole cluster.
  ReqPump::Limits limits = options_.pump_limits;
  limits.retry.seed += options_.seed;
  pump_ = std::make_unique<ReqPump>(std::move(limits));
  ShardedSearchService::Options svc = options_.service;
  if (svc.name == "sharded") svc.name = options_.engine.name;
  sharded_ = std::make_unique<ShardedSearchService>(std::move(shards),
                                                    pump_.get(), svc);
}

void SimulatedShardCluster::Quiesce() {
  sharded_->Quiesce();
  pump_->Drain();
  for (auto& node : nodes_) node->Quiesce();
  for (auto& node : replica_nodes_) node->Quiesce();
}

}  // namespace wsq
