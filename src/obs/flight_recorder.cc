#include "obs/flight_recorder.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/memory.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace wsq {
namespace {

thread_local uint64_t t_query_id = 0;

/// Per-thread ring cache: one hot slot for the recorder used last plus
/// the full list (a process rarely has more than one recorder outside
/// tests). The shared_ptr copies here do not own liveness — the
/// recorder's registry does — they only keep the cache safe if a test
/// recorder outlives this thread's entry.
struct TlsRings {
  FlightRecorder* hot_owner = nullptr;
  FlightRing* hot_ring = nullptr;
  std::vector<std::pair<FlightRecorder*, std::shared_ptr<FlightRing>>> all;
};
thread_local TlsRings t_rings;

/// Small per-thread intern cache so steady-state recording never takes
/// the interner mutex (destination/cause vocabularies are tiny).
struct TlsInternCache {
  FlightRecorder* owner = nullptr;
  std::vector<std::pair<std::string, uint32_t>> entries;
};
thread_local TlsInternCache t_interned;

void AppendEventFields(const FrEvent& e, int64_t base_micros,
                       std::string* out) {
  *out += StrFormat("t=+%lldus %s",
                    (long long)(e.timestamp_micros - base_micros),
                    std::string(FrEventTypeName(e.type)).c_str());
  if (e.query_id != 0) {
    *out += StrFormat(" qid=%llu", (unsigned long long)e.query_id);
  }
  if (!e.destination.empty()) {
    *out += StrFormat(" dest=%s", e.destination.c_str());
  }
  if (!e.cause.empty()) *out += StrFormat(" cause=%s", e.cause.c_str());
  if (e.a != 0) *out += StrFormat(" a=%lld", (long long)e.a);
  if (e.b != 0) *out += StrFormat(" b=%lld", (long long)e.b);
}

}  // namespace

std::string_view FrEventTypeName(FrEventType type) {
  switch (type) {
    case FrEventType::kQueryBegin:
      return "query_begin";
    case FrEventType::kQueryEnd:
      return "query_end";
    case FrEventType::kCallRegister:
      return "call_register";
    case FrEventType::kCallDispatch:
      return "call_dispatch";
    case FrEventType::kCallComplete:
      return "call_complete";
    case FrEventType::kCallFailed:
      return "call_failed";
    case FrEventType::kCallTimeout:
      return "call_timeout";
    case FrEventType::kCallCancel:
      return "call_cancel";
    case FrEventType::kCallShed:
      return "call_shed";
    case FrEventType::kCallLateDiscard:
      return "call_late_discard";
    case FrEventType::kBreakerTrip:
      return "breaker_trip";
    case FrEventType::kBreakerProbe:
      return "breaker_probe";
    case FrEventType::kBreakerClose:
      return "breaker_close";
    case FrEventType::kCoalesceJoin:
      return "coalesce_join";
    case FrEventType::kFanout:
      return "fanout";
    case FrEventType::kHedgeFire:
      return "hedge_fire";
    case FrEventType::kHedgeReap:
      return "hedge_reap";
    case FrEventType::kShardLegOk:
      return "shard_leg_ok";
    case FrEventType::kShardLegFail:
      return "shard_leg_fail";
    case FrEventType::kQuorumFail:
      return "quorum_fail";
    case FrEventType::kAdmissionWait:
      return "admission_wait";
    case FrEventType::kAdmissionShed:
      return "admission_shed";
    case FrEventType::kMemoryPressure:
      return "memory_pressure";
    case FrEventType::kReserveFail:
      return "reserve_fail";
    case FrEventType::kSpillRun:
      return "spill_run";
    case FrEventType::kSpillFail:
      return "spill_fail";
    case FrEventType::kWalCheckpoint:
      return "wal_checkpoint";
  }
  return "unknown";
}

std::string FrEvent::ToLine(int64_t base_micros) const {
  std::string out;
  AppendEventFields(*this, base_micros, &out);
  return out;
}

QueryIdBinding::QueryIdBinding(uint64_t query_id) : previous_(t_query_id) {
  t_query_id = query_id;
}

QueryIdBinding::~QueryIdBinding() { t_query_id = previous_; }

uint64_t CurrentQueryId() { return t_query_id; }

FlightRecorder* FlightRecorder::Global() {
  // Leaked on purpose: recording threads may outlive any plausible
  // owner, and the metrics registry follows the same rule.
  static FlightRecorder* instance = new FlightRecorder();
  return instance;
}

namespace {
/// Constructs the global recorder (and its registry instruments)
/// during static initialization, before any component lock can be
/// held; after this, Record() is lock-free except the leaf interner.
const FlightRecorder* const g_flight_recorder_eager_init =
    FlightRecorder::Global();
}  // namespace

FlightRecorder::FlightRecorder() {
  {
    MutexLock lock(&intern_mu_);
    intern_table_.emplace_back();  // id 0 = ""
  }
  events_counter_ = MetricsRegistry::Global()->GetCounter(
      "wsq_fr_events_total", "Flight-recorder events recorded");
  rings_gauge_ = MetricsRegistry::Global()->GetGauge(
      "wsq_fr_rings", "Per-thread flight-recorder rings registered");
  // common/ cannot link obs/, so memory budgets surface their events
  // through this hook. Record() only touches the calling thread's ring
  // (plus the leaf interner on a cold vocabulary), so it is safe from
  // the budget's lock-free charge paths.
  SetMemoryEventHook(+[](const char* budget_name, bool pressure, int64_t a,
                         int64_t b) {
    FlightRecorder::Global()->Record(
        pressure ? FrEventType::kMemoryPressure : FrEventType::kReserveFail,
        budget_name, pressure ? "pressure_sweep" : "limit_hit",
        /*query_id=*/0, a, b);
  });
}

uint32_t FlightRecorder::Intern(std::string_view s) {
  if (s.empty()) return 0;
  if (t_interned.owner != this) {
    t_interned.owner = this;
    t_interned.entries.clear();
  }
  for (const auto& [text, id] : t_interned.entries) {
    if (text == s) return id;
  }
  uint32_t id = 0;
  {
    MutexLock lock(&intern_mu_);
    for (size_t i = 0; i < intern_table_.size(); ++i) {
      if (intern_table_[i] == s) {
        id = static_cast<uint32_t>(i);
        break;
      }
    }
    if (id == 0) {
      id = static_cast<uint32_t>(intern_table_.size());
      intern_table_.emplace_back(s);
    }
  }
  t_interned.entries.emplace_back(std::string(s), id);
  return id;
}

std::string FlightRecorder::Resolve(uint32_t id) const {
  MutexLock lock(&intern_mu_);
  if (id >= intern_table_.size()) return "";
  return intern_table_[id];
}

FlightRing* FlightRecorder::RingForThisThread() {
  if (t_rings.hot_owner == this) return t_rings.hot_ring;
  for (const auto& [owner, ring] : t_rings.all) {
    if (owner == this) {
      t_rings.hot_owner = this;
      t_rings.hot_ring = ring.get();
      return t_rings.hot_ring;
    }
  }
  auto ring = std::make_shared<FlightRing>();
  size_t rings = 0;
  {
    MutexLock lock(&mu_);
    rings_.push_back(ring);
    rings = rings_.size();
  }
  rings_gauge_->Set(static_cast<int64_t>(rings));
  t_rings.all.emplace_back(this, ring);
  t_rings.hot_owner = this;
  t_rings.hot_ring = ring.get();
  return t_rings.hot_ring;
}

void FlightRecorder::Record(FrEventType type, std::string_view destination,
                            std::string_view cause, uint64_t query_id,
                            int64_t a, int64_t b) {
  // The single observability kill switch: while recording is disabled
  // the recorder mutates nothing (no ring writes, no interning, no
  // counters). The recorder-local gate below it exists for overhead
  // isolation (bench_obs_overhead).
  if (!MetricsRegistry::Global()->recording_enabled()) return;
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (query_id == 0) query_id = t_query_id;
  const uint32_t dest_id = Intern(destination);
  const uint32_t cause_id = Intern(cause);
  FlightRing* ring = RingForThisThread();
  const uint64_t seq = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t pos = ring->next_.load(std::memory_order_relaxed);
  FlightRing::Slot& slot = ring->slots_[pos % FlightRing::kSlots];
  // Per-slot seqlock: invalidate, write payload, publish the sequence
  // with release so a reader that observes it also observes the payload.
  slot.sequence.store(0, std::memory_order_relaxed);
  slot.timestamp_micros.store(NowMicros(), std::memory_order_relaxed);
  slot.query_id.store(query_id, std::memory_order_relaxed);
  slot.destination_id.store(dest_id, std::memory_order_relaxed);
  slot.cause_id.store(cause_id, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.type.store(static_cast<uint8_t>(type), std::memory_order_relaxed);
  slot.sequence.store(seq, std::memory_order_release);
  ring->next_.store(pos + 1, std::memory_order_relaxed);
  recorded_total_.fetch_add(1, std::memory_order_relaxed);
  events_counter_->Increment();
}

FlightRecorderSnapshot FlightRecorder::Snapshot() const {
  return Collect(std::nullopt);
}

std::vector<FrEvent> FlightRecorder::EventsForQuery(uint64_t query_id) const {
  return Collect(query_id).events;
}

FlightRecorderSnapshot FlightRecorder::Collect(
    std::optional<uint64_t> only_query) const {
  FlightRecorderSnapshot snap;
  std::vector<std::shared_ptr<FlightRing>> rings;
  {
    MutexLock lock(&mu_);
    rings = rings_;
  }
  std::vector<std::string> table;
  {
    MutexLock lock(&intern_mu_);
    table = intern_table_;
  }
  snap.rings = rings.size();
  for (const auto& ring : rings) {
    for (const FlightRing::Slot& slot : ring->slots_) {
      const uint64_t seq = slot.sequence.load(std::memory_order_acquire);
      if (seq == 0) continue;
      FrEvent e;
      // A query id torn by a concurrent rewrite can only skip an event
      // that the re-check below would drop.
      e.query_id = slot.query_id.load(std::memory_order_relaxed);
      if (only_query.has_value() && e.query_id != *only_query) continue;
      e.sequence = seq;
      e.timestamp_micros =
          slot.timestamp_micros.load(std::memory_order_relaxed);
      const uint32_t dest_id =
          slot.destination_id.load(std::memory_order_relaxed);
      const uint32_t cause_id = slot.cause_id.load(std::memory_order_relaxed);
      e.a = slot.a.load(std::memory_order_relaxed);
      e.b = slot.b.load(std::memory_order_relaxed);
      e.type =
          static_cast<FrEventType>(slot.type.load(std::memory_order_relaxed));
      if (slot.sequence.load(std::memory_order_acquire) != seq) {
        // The owning thread rewrote this slot mid-read; the fields may
        // be mixed between two events, so drop rather than misreport.
        ++snap.torn_dropped;
        continue;
      }
      e.destination = dest_id < table.size() ? table[dest_id] : "";
      e.cause = cause_id < table.size() ? table[cause_id] : "";
      snap.events.push_back(std::move(e));
    }
  }
  std::sort(snap.events.begin(), snap.events.end(),
            [](const FrEvent& x, const FrEvent& y) {
              if (x.timestamp_micros != y.timestamp_micros) {
                return x.timestamp_micros < y.timestamp_micros;
              }
              return x.sequence < y.sequence;
            });
  snap.recorded_total = recorded_total();
  return snap;
}

}  // namespace wsq
