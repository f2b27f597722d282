#ifndef WSQ_OBS_FLIGHT_RECORDER_H_
#define WSQ_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace wsq {

class Counter;
class Gauge;

/// Always-on flight recorder (DESIGN.md §16).
///
/// A bounded, process-wide record of the structured events that decide
/// a query's fate: ReqPump dispatch/complete/cancel/shed, breaker state
/// transitions, hedge fires and loser reaps, coalesce joins, shard-leg
/// outcomes, admission waits/sheds, memory pressure hooks, spill runs,
/// WAL checkpoints. When a query ends badly the query log
/// (obs/query_log.h) snapshots the events stamped with its id into a
/// postmortem, so "which shard was dark / which breaker was open /
/// which budget refused" is answerable after the fact without rerunning
/// the query.
///
/// Concurrency model: every recording thread appends to its own ring of
/// plain-old-data slots, so the hot path is a handful of relaxed atomic
/// stores plus one relaxed counter bump — no locks, no allocation, no
/// contention between threads. Rings are registered with the recorder
/// under a mutex the first time a thread records and are kept alive by
/// shared_ptr after the thread exits (a completed thread's tail of
/// events stays visible to later snapshots). Snapshot() takes only that
/// registry mutex plus relaxed loads of the slots; a slot being written
/// concurrently may be observed torn across fields, which is why every
/// slot carries a sequence number — slots whose sequence changed during
/// the read are dropped rather than misattributed.

/// Event taxonomy. Values are stable (postmortem sinks may persist
/// them); append only.
enum class FrEventType : uint8_t {
  kQueryBegin = 0,
  kQueryEnd = 1,
  // ReqPump lifecycle.
  kCallRegister = 2,
  kCallDispatch = 3,
  kCallComplete = 4,
  kCallFailed = 5,
  kCallTimeout = 6,
  kCallCancel = 7,
  kCallShed = 8,
  kCallLateDiscard = 9,
  // Circuit breaker state machine.
  kBreakerTrip = 10,
  kBreakerProbe = 11,
  kBreakerClose = 12,
  // A ReqPump registration joining an identical call, unresolved or
  // answered (a = the joined call's id, b = the joiner's).
  kCoalesceJoin = 13,
  // Sharded scatter-gather.
  kFanout = 14,
  kHedgeFire = 15,
  kHedgeReap = 16,
  kShardLegOk = 17,
  kShardLegFail = 18,
  kQuorumFail = 19,
  // Admission control.
  kAdmissionWait = 20,
  kAdmissionShed = 21,
  // Memory governor + spill.
  kMemoryPressure = 22,
  kReserveFail = 23,
  kSpillRun = 24,
  kSpillFail = 25,
  // Storage.
  kWalCheckpoint = 26,
};

/// Human-readable name for an event type ("call_dispatch", ...).
std::string_view FrEventTypeName(FrEventType type);

/// One decoded event, as returned by snapshots. `destination` and
/// `cause` are resolved from the recorder's intern table; either may be
/// empty. `a` / `b` are event-specific small integers (call id, shard
/// index, bytes, micros — see the recording sites).
struct FrEvent {
  uint64_t sequence = 0;
  int64_t timestamp_micros = 0;
  FrEventType type = FrEventType::kQueryBegin;
  uint64_t query_id = 0;
  std::string destination;
  std::string cause;
  int64_t a = 0;
  int64_t b = 0;

  /// `t=+1234us call_dispatch qid=7 dest=AltaVista a=3` — one line,
  /// key=value, deterministic field order.
  std::string ToLine(int64_t base_micros = 0) const;
};

class FlightRecorder;

/// Binds a query id to the current thread for the duration of a scope
/// (modeled on Tracer::ThreadBinding). Events recorded on this thread
/// without an explicit id are stamped with the bound id; nesting
/// restores the previous binding.
class QueryIdBinding {
 public:
  explicit QueryIdBinding(uint64_t query_id);
  ~QueryIdBinding();

  QueryIdBinding(const QueryIdBinding&) = delete;
  QueryIdBinding& operator=(const QueryIdBinding&) = delete;

 private:
  uint64_t previous_;
};

/// Query id bound to the calling thread (0 = none).
uint64_t CurrentQueryId();

/// Fixed-size per-thread ring. Writers are single-threaded (the owning
/// thread); readers tolerate concurrent writes via the per-slot
/// sequence protocol described on FlightRecorder.
class FlightRing {
 public:
  /// Slots per ring. 1024 slots x 64 bytes = 64 KiB per recording
  /// thread — deep enough for several queries' fan-out on a busy
  /// thread, small enough to never matter.
  static constexpr size_t kSlots = 1024;

  FlightRing() = default;
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

 private:
  friend class FlightRecorder;

  /// POD mirror of FrEvent with interned strings. All fields relaxed
  /// atomics: the single writer never races itself, and readers
  /// validate via `sequence` (written last, re-checked after the read).
  struct Slot {
    std::atomic<uint64_t> sequence{0};  // 0 = never written
    std::atomic<int64_t> timestamp_micros{0};
    std::atomic<uint64_t> query_id{0};
    std::atomic<uint32_t> destination_id{0};
    std::atomic<uint32_t> cause_id{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<uint8_t> type{0};
  };

  Slot slots_[kSlots];
  /// Next write position; monotonic, wraps modulo kSlots. Written only
  /// by the owning thread, read by snapshots.
  std::atomic<uint64_t> next_{0};
};

/// Bounded snapshot of recorder state, plus bookkeeping counters.
struct FlightRecorderSnapshot {
  /// Events ordered by (timestamp, sequence); capped at the ring
  /// capacity times the thread count.
  std::vector<FrEvent> events;
  uint64_t recorded_total = 0;
  /// Slots overwritten before any snapshot saw them is not tracked
  /// (rings are meant to wrap); this counts events dropped for other
  /// reasons: torn reads discarded during a concurrent snapshot.
  uint64_t torn_dropped = 0;
  size_t rings = 0;
};

/// Process-wide recorder. Use FlightRecorder::Global(); the instance is
/// never destroyed so recording threads can outlive any owner.
class FlightRecorder {
 public:
  static FlightRecorder* Global();

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event to the calling thread's ring. Lock-free after
  /// the thread's first event (which registers its ring under the
  /// mutex). `query_id` 0 means "use the thread's bound id".
  /// Honors MetricsRegistry::SetRecordingEnabled(false): while the kill
  /// switch is off, Record is a single relaxed load and return.
  void Record(FrEventType type, std::string_view destination,
              std::string_view cause, uint64_t query_id = 0, int64_t a = 0,
              int64_t b = 0);

  /// All currently visible events across every ring, ordered by
  /// (timestamp, sequence). Takes the registry mutex only.
  FlightRecorderSnapshot Snapshot() const WSQ_EXCLUDES(mu_);

  /// The visible events stamped with `query_id`, ordered as in
  /// Snapshot() (postmortem assembly). Other queries' slots are skipped
  /// before they are decoded.
  std::vector<FrEvent> EventsForQuery(uint64_t query_id) const
      WSQ_EXCLUDES(mu_);

  /// Events recorded since process start (monotonic, includes events
  /// whose slots have since been overwritten).
  uint64_t recorded_total() const {
    return recorded_total_.load(std::memory_order_relaxed);
  }

  /// Recorder-local gate beneath the registry kill switch (which stops
  /// the recorder AND the instruments). Lets bench_obs_overhead isolate
  /// the recorder's own cost. On by default — the recorder is always-on
  /// in production.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Intern helpers are exposed for tests; production code just passes
  /// strings to Record().
  uint32_t InternForTest(std::string_view s) { return Intern(s); }
  std::string ResolveForTest(uint32_t id) const { return Resolve(id); }

 private:
  /// Snapshot() of every event, or of those stamped `only_query`.
  FlightRecorderSnapshot Collect(std::optional<uint64_t> only_query) const
      WSQ_EXCLUDES(mu_);

  uint32_t Intern(std::string_view s) WSQ_EXCLUDES(intern_mu_);
  std::string Resolve(uint32_t id) const WSQ_EXCLUDES(intern_mu_);
  FlightRing* RingForThisThread() WSQ_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<std::shared_ptr<FlightRing>> rings_ WSQ_GUARDED_BY(mu_);

  /// String interner: id 0 is reserved for "". A leaf mutex — never
  /// held while calling anything else — so recording under a component
  /// lock (breaker mu_, pump core mu) cannot deadlock.
  mutable Mutex intern_mu_;
  std::vector<std::string> intern_table_ WSQ_GUARDED_BY(intern_mu_);

  std::atomic<uint64_t> recorded_total_{0};
  std::atomic<uint64_t> next_sequence_{1};
  std::atomic<bool> enabled_{true};

  /// Registry instruments, resolved once in the constructor (which runs
  /// at static-initialization time for Global()) so Record() never
  /// touches the registry lock — recording sites run under component
  /// locks, and the registry's lock order is registry → component.
  Counter* events_counter_ = nullptr;
  Gauge* rings_gauge_ = nullptr;
};

}  // namespace wsq

#endif  // WSQ_OBS_FLIGHT_RECORDER_H_
