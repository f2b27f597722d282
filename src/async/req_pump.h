#ifndef WSQ_ASYNC_REQ_PUMP_H_
#define WSQ_ASYNC_REQ_PUMP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/circuit_breaker.h"
#include "obs/histogram.h"
#include "types/row.h"
#include "types/value.h"

namespace wsq {

/// Outcome of one asynchronous external call: zero or more result rows
/// (a WebCount call yields exactly one; a WebPages call yields 0..k).
struct CallResult {
  Status status;
  std::vector<Row> rows;
  /// Timing attached by the ReqPump when it resolves the call: time the
  /// call waited for a limit slot, and time it spent dispatched. Both 0
  /// for calls resolved before dispatch (shed, cancelled in queue) and
  /// for results not produced by a ReqPump. Carried on the result so
  /// the consuming (query) thread can trace cross-thread work without
  /// touching pump internals.
  int64_t queue_wait_micros = 0;
  int64_t in_flight_micros = 0;
  /// Shards that failed to contribute to an OK-but-partial result
  /// (sharded backends under a degrading quorum policy); 0 for complete
  /// results and non-sharded services. Lets ReqSync surface degradation
  /// in QueryStats/EXPLAIN ANALYZE without a side channel.
  uint32_t degraded_shards = 0;
  /// Whether the pump sent the call a second time (a hedge or a
  /// failover; see ReqPump::Register), and whether that second
  /// dispatch's answer is this one. Both false for a registration that
  /// joined an answer.
  bool hedged = false;
  bool hedge_won = false;
};

/// Completion sink handed to the call's dispatch function.
using CallCompletion = std::function<void(CallResult)>;

/// A self-dispatching asynchronous call: invoked once when ReqPump
/// grants it a slot; must eventually invoke the completion exactly once
/// (from any thread).
using AsyncCallFn = std::function<void(CallCompletion)>;

/// A registrant's result notification. The pump runs it on its timer
/// thread, outside its lock and never inside a pump method, so it may
/// call back into the pump and take locks that the registering thread
/// held around Register.
using PumpCallback = std::function<void()>;

/// Where a call may be sent a second time (ReqPump::Register): a
/// destination and the fn that issues the same request there. Naming
/// the call's own destination makes a self-hedge, whose `fn` may be
/// left unset: the pump then sends the call's own fn again. Naming
/// another destination makes it an alternate, which a failed call also
/// fails over to.
struct HedgeTarget {
  std::string destination;
  AsyncCallFn fn;
};

/// Retries of transient call failures (ReqPump::Limits::retry).
struct RetryPolicy {
  /// Attempts per call, including the first; 1 = no retries.
  int max_attempts = 1;
  /// Floor of the first retry's backoff; the floor doubles for each
  /// later retry. Each backoff is drawn uniformly from
  /// [floor, 3 * floor] (decorrelated jitter), so concurrent retries
  /// against one destination spread out instead of stampeding.
  int64_t initial_backoff_micros = 10000;
  /// Seed for the backoff draws (reproducible runs).
  uint64_t seed = 1;
};

/// Observability counters (paper §4.1: resource monitoring).
struct ReqPumpStats {
  uint64_t registered = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Calls completed with kDeadlineExceeded by the deadline timer.
  uint64_t timed_out = 0;
  /// Real completions that arrived after their call had already timed
  /// out and were discarded (never double-complete a call).
  uint64_t late_discarded = 0;
  /// Peak concurrently-dispatched calls (all destinations).
  uint64_t max_in_flight = 0;
  /// Peak length of the resource-limit wait queue.
  uint64_t queued_peak = 0;
  /// Calls resolved with kCancelled: queued calls dropped at
  /// destruction, or calls cancelled through CancelCall because nothing
  /// will consume their answers (a query's executor closing its ReqSync
  /// or sweeping its unconsumed calls, a sharded backend settling a
  /// request with legs still out). Not counted in `completed`/`failed`.
  uint64_t cancelled = 0;
  /// Calls rejected at Register because the wait queue was at
  /// Limits::max_queued (resolved kResourceExhausted immediately). Not
  /// counted in `completed`/`failed`.
  uint64_t shed = 0;
  /// Calls actually handed to their dispatch function (immediately at
  /// Register or later from the wait queue), once per call however many
  /// registrations joined it. Every registration is eventually resolved
  /// exactly once, so at quiescence `dispatched + joined <= registered`
  /// and `registered == completed + cancelled + shed`.
  uint64_t dispatched = 0;
  /// Registrations that joined a call with the same (destination, key)
  /// instead of dispatching one: an unresolved call, or one whose
  /// answer still waits untaken in ReqPumpHash (see Register).
  uint64_t joined = 0;
  /// Re-dispatches of calls whose attempt failed transiently
  /// (Limits::retry); not counted in `dispatched`.
  uint64_t retried = 0;
  /// Calls sent to their hedge target (a latency hedge or a failover);
  /// not counted in `dispatched`, so the engines see `dispatched +
  /// retried + hedged` requests.
  uint64_t hedged = 0;
  /// Hedged calls resolved by the hedge's OK answer, once per call.
  uint64_t hedge_wins = 0;
  /// Sums of the per-registration timings attached to CallResult,
  /// accumulated when a registration of a dispatched call resolves
  /// (completion, timeout, or cancel); one that joined an answer adds 0.
  /// `in_flight_micros_total / completed` approximates mean call
  /// latency; the distribution of dispatches lives in the
  /// `wsq_external_call_latency_micros` histogram.
  int64_t queue_wait_micros_total = 0;
  int64_t in_flight_micros_total = 0;
};

/// The paper's "Request Pump" (§4.1): a global module that issues
/// asynchronous external calls, stores their responses in a hash table
/// (ReqPumpHash) keyed by call id, signals consumers (ReqSync operators)
/// as calls complete, and enforces concurrency limits — one global
/// counter and one per destination, with a FIFO queue for calls that
/// exceed a limit.
///
/// Failure semantics: each call may carry a deadline (per call or from
/// Limits::default_timeout_micros). A dedicated timer thread completes
/// overdue calls with kDeadlineExceeded — whether they are still queued
/// or already dispatched — so consumers blocked in TakeBlocking never
/// wait past the deadline and a hung destination cannot wedge a query.
/// A dispatched call that times out is *abandoned*: its limit slots are
/// released immediately and its real completion, if one ever arrives,
/// is discarded. Shared internal state keeps such late completions safe
/// even after the ReqPump itself has been destroyed. The same thread
/// runs the result notifications passed to Register.
///
/// The pump owns each call's whole lifecycle: it also retries transient
/// failures after a backoff (Limits::retry) and keeps a circuit breaker
/// per destination (Limits::breaker). Both are off by default.
///
/// It is also the one place that decides which requests share work. A
/// registration may carry a request key; one whose (destination, key)
/// matches an unresolved call (queued, in flight or in a retry backoff)
/// joins that call instead of dispatching its own. The call holds one
/// slot, one breaker admission and one retry sequence, which may retry
/// while any joiner remains, up to the latest remaining deadline. Each
/// joiner keeps its own id, deadline, cancel, notification and copy of
/// the result; resolving one early never disturbs the others, and the
/// call is abandoned only when its last joiner leaves. Once the call
/// has answered, a registration with its key joins the answer instead,
/// resolving at once with a copy, for as long as a copy of that answer
/// waits untaken in ReqPumpHash: a consumer that reads a result with
/// Peek and takes it later holds the answer open for identical
/// requests meanwhile. A registration without a key never joins.
///
/// And it is the one module that knows a call may be sent twice. A
/// registration may name a hedge target. Once the call has been out on
/// its first dispatch for its destination's p95 latency, taken from this
/// pump's own completions (the upper edge of the p95's histogram
/// bucket, at most their maximum; none before 50 of them, never sooner
/// than 1 ms), the pump dispatches the target once, if that
/// destination has a free slot and its breaker admits it; a hedge never
/// queues. A self-hedge waits, in addition, until the destination has
/// shown that it serves two requests independently: one of its answers
/// came in after the answer to a call sent there at least 1 ms later. A
/// FIFO engine never shows that, and a second copy there would only
/// queue behind the first. A call whose last attempt failed, or whose
/// first dispatch its breaker rejected, fails over to an alternate (a
/// target at another destination) at once: the failover queues for a
/// slot like a first dispatch, and its breaker may still reject it. A
/// hedge or failover is one attempt and is never retried. The first OK
/// answer resolves every joiner, and the other dispatch is abandoned:
/// its slot is freed, its late completion discarded and taught to its
/// own destination's breaker. A failed dispatch decides the call only
/// once the other has failed too. So consumers never see two answers.
class ReqPump {
 public:
  struct Limits {
    /// Max concurrently-dispatched calls overall; 0 = unbounded. Only
    /// calls whose answers are still wanted count: an abandoned call
    /// (every registration on it timed out or was cancelled through
    /// CancelCall) frees its slot at once, though its destination may
    /// still be serving it.
    int max_global = 0;
    /// Max concurrently-dispatched calls per destination; 0 = unbounded.
    /// Abandoned calls do not count, as for max_global, so a
    /// destination can hold more requests than this.
    int max_per_destination = 0;
    /// Deadline applied to calls registered without an explicit timeout,
    /// measured from Register(); 0 = no deadline.
    int64_t default_timeout_micros = 0;
    /// Overload admission: max calls waiting for a limit slot. A
    /// Register that would queue past this bound is shed — resolved
    /// immediately with kResourceExhausted (stats.shed) instead of
    /// growing the queue without bound. 0 = unbounded.
    int max_queued = 0;
    /// Retries of transient failures; the default single attempt
    /// retries nothing. A retry frees the call's slots, waits out its
    /// backoff on the timer thread, then queues for a slot again, so
    /// it counts against the limits above. It is not taken when the
    /// backoff's floor would end past the call's deadline (the call
    /// resolves with its failure at once), nor once the call was
    /// cancelled or timed out, nor at shutdown. A deadline that falls
    /// inside a drawn backoff resolves the call kDeadlineExceeded.
    RetryPolicy retry;
    /// Per-destination circuit breaker; unset = none. It gates a
    /// call's first dispatch — a rejected call resolves kUnavailable at
    /// once, or fails over to its alternate, and is never dispatched or
    /// retried — and learns every
    /// admitted call's final outcome, late completions of abandoned
    /// calls included.
    std::optional<CircuitBreakerOptions> breaker;
  };

  ReqPump() : ReqPump(Limits{}) {}
  explicit ReqPump(Limits limits);

  ReqPump(const ReqPump&) = delete;
  ReqPump& operator=(const ReqPump&) = delete;

  /// Blocks until all dispatched, non-abandoned calls and hedges
  /// complete; calls waiting in the queue or in a retry backoff are
  /// dropped (kCancelled), and none is retried or hedged. Calls that
  /// timed out do not delay destruction — their late completions land
  /// harmlessly in the shared core.
  ~ReqPump();

  /// Registers call `fn` against `destination` and returns immediately
  /// with its id, applying Limits::default_timeout_micros. The call is
  /// dispatched now if limits allow, else queued FIFO.
  CallId Register(const std::string& destination, AsyncCallFn fn);

  /// As above with an explicit per-call deadline; `timeout_micros` <= 0
  /// means no deadline (overriding any default). `on_result`, if set,
  /// runs once on the timer thread after the call's result lands by
  /// completion, deadline or shedding; never after CancelCall, and not
  /// again for a late completion of a timed-out call. A non-empty `key`
  /// lets the registration join a call to `destination` registered with
  /// the same key that is unresolved, or that has answered while a copy
  /// of its answer is still untaken; `fn` is then never run. A
  /// registration that would be shed joins instead. `*joined`, if
  /// given, is set to whether it joined. `hedge`, if set, is where the
  /// call may be sent a second time (see the class comment); a joiner's
  /// is unused. A destination's first registration, as primary or hedge
  /// target, takes the metrics registry's lock (see latency_histogram).
  CallId Register(const std::string& destination, AsyncCallFn fn,
                  int64_t timeout_micros, PumpCallback on_result = nullptr,
                  const std::string& key = {}, bool* joined = nullptr,
                  std::optional<HedgeTarget> hedge = std::nullopt)
      WSQ_EXCLUDES(core_->mu);

  /// True once the call's result is available in ReqPumpHash.
  bool IsComplete(CallId id) const WSQ_EXCLUDES(core_->mu);

  /// Removes and returns the result if complete; nullopt otherwise.
  bool TryTake(CallId id, CallResult* out) WSQ_EXCLUDES(core_->mu);

  /// Copies the result into `out` if complete, leaving it in
  /// ReqPumpHash to be taken later; false otherwise. While it is left
  /// there, a keyed call's answer stays joinable (see Register).
  bool Peek(CallId id, CallResult* out) const WSQ_EXCLUDES(core_->mu);

  /// Blocks until call `id` completes, then removes and returns it.
  /// With a deadline set, returns at most ~timeout after registration.
  /// Never hangs forever: a call that can no longer complete (unknown
  /// id, result already taken) returns kInternal, and a pump shutting
  /// down mid-wait returns kCancelled.
  CallResult TakeBlocking(CallId id) WSQ_EXCLUDES(core_->mu) {
    return TakeBlocking(id, nullptr);
  }

  /// As above, observing `token` (may be null): returns the token's
  /// error without consuming the call once the query is cancelled or
  /// past its deadline. The call stays registered — cancel and take it
  /// via CancelAndTake (ExecutePlan's sweep does this).
  CallResult TakeBlocking(CallId id, const CancellationToken* token)
      WSQ_EXCLUDES(core_->mu);

  /// Resolves a not-yet-completed call with kCancelled. Once no other
  /// registration is joined to it, a queued call is dropped (its fn
  /// never runs) and a dispatched call is abandoned — its limit slots
  /// are released now and its real completion, if one ever arrives, is
  /// discarded (stats.late_discarded). The kCancelled result is left in
  /// ReqPumpHash for the consumer to take. Returns false (and does
  /// nothing) if the call already has a result or is unknown. Safe from
  /// any thread.
  bool CancelCall(CallId id) WSQ_EXCLUDES(core_->mu);

  /// Resolves calls that nothing will consume: cancels each one still
  /// unresolved and takes its result, which is then always present, so
  /// it never waits on the network. One pass under the pump's lock,
  /// newest (last) first: the queue is FIFO, so a call still queued is
  /// never older than a dispatched one to the same destination, and
  /// cancelling the dispatched one first would free its slot only to
  /// send the queued call to the engine and abandon it too. Returns how
  /// many calls it cancelled.
  size_t CancelAndTake(std::span<const CallId> calls)
      WSQ_EXCLUDES(core_->mu);

  /// Monotonic count of completions; use with WaitForCompletionBeyond
  /// to sleep until any call finishes.
  uint64_t completion_seq() const WSQ_EXCLUDES(core_->mu);

  /// Blocks until completion_seq() > `seq` (returns immediately if it
  /// already is). With a token, also returns — without waiting for a
  /// completion — once the query is cancelled/expired or the pump shuts
  /// down; the caller re-checks its own predicate either way.
  void WaitForCompletionBeyond(uint64_t seq) WSQ_EXCLUDES(core_->mu) {
    WaitForCompletionBeyond(seq, nullptr);
  }
  void WaitForCompletionBeyond(uint64_t seq,
                               const CancellationToken* token)
      WSQ_EXCLUDES(core_->mu);

  /// Blocks until every registered call has completed (benches).
  void Drain() WSQ_EXCLUDES(core_->mu);

  ReqPumpStats stats() const WSQ_EXCLUDES(core_->mu);
  const Limits& limits() const { return core_->limits; }

  /// Currently dispatched (in-flight) calls and hedges, excluding
  /// abandoned ones.
  int in_flight() const WSQ_EXCLUDES(core_->mu);

  /// Copy of `destination`'s circuit breaker; nullopt when breakers are
  /// off or the pump has no record of `destination` yet.
  std::optional<CircuitBreaker> breaker(const std::string& destination)
      const WSQ_EXCLUDES(core_->mu);

  /// `destination`'s dispatch-to-completion latency histogram
  /// (`wsq_external_call_latency_micros{destination}`), which the pump
  /// feeds with one observation per call a completion resolved, from its
  /// first dispatch to its answer; null if the registry is full.
  /// Creates the destination's record if it has none, which looks
  /// the histogram up in the metrics registry. Register does that for a
  /// destination's first call too, so a caller that registers calls
  /// while holding a lock its metrics collector takes (the registry's
  /// lock comes first) calls this for each destination beforehand.
  const Histogram* latency_histogram(const std::string& destination)
      WSQ_EXCLUDES(core_->mu);

  /// Completed results sitting in ReqPumpHash, not yet taken. Should
  /// return to its pre-query value after a query closes — a growing
  /// number across queries means leaked entries.
  size_t pending_results() const WSQ_EXCLUDES(core_->mu);

 private:
  struct QueuedCall {
    /// The call's id: that of the registration that started it.
    CallId id;
    std::string destination;
    AsyncCallFn fn;
    /// Query the registering thread was bound to (flight recorder).
    uint64_t query_id = 0;
    /// A re-dispatch after a transient failure (Limits::retry).
    bool retry = false;
    /// Set for a dispatch to the call's hedge target: why it was sent
    /// (`latency_quantile` or `primary_failed`). Only a failover
    /// (`primary_failed`) waits in the queue.
    const char* hedge_cause = nullptr;
  };

  /// What StartLocked did with a dispatch.
  enum class Start {
    kStarted,   ///< moved in flight: dispatch it outside the lock
    kResolved,  ///< its breaker rejected it and the call resolved
    kWaiting,   ///< it became a failover that waits for a slot
  };

  /// Where an unresolved call's own dispatches are.
  enum class Phase {
    kQueued,    ///< waiting in the queue for a limit slot
    kInFlight,  ///< dispatched, holding its slots
    kBackoff,   ///< failed transiently, slots freed, retry pending
    kFailed,    ///< its last attempt failed; its hedge decides the call
  };

  /// Where an unresolved call's hedge dispatch is.
  enum class HedgePhase {
    kNone,      ///< not sent
    kQueued,    ///< a failover waiting in the queue for a slot
    kInFlight,  ///< dispatched, holding a slot at the hedge target
    kFailed,    ///< answered with an error; the call's own dispatch decides
  };

  /// One registration with no result yet (see Core::unresolved).
  struct Registration {
    /// The call it waits on (Core::calls): its own id unless it joined
    /// another registration's call.
    CallId call = kInvalidCallId;
    int64_t registered_micros = 0;
    /// Query the registering thread was bound to; stamps its events.
    uint64_t query_id = 0;
    /// Register's `on_result`; dropped unrun by CancelCall.
    PumpCallback on_result;
    /// Absolute deadline (micros, steady clock); 0 = none.
    int64_t deadline_micros = 0;
  };

  /// Where registrations with one request key join (Destination::keyed).
  struct KeyedCall {
    /// The call, unresolved until it answers.
    CallId call = kInvalidCallId;
    /// Once it has answered: the registrations whose copy of its answer
    /// is still in ReqPumpHash, in resolution order. A registration
    /// joining then copies the first one's; the entry goes when the
    /// last copy is taken. Empty while the call is unresolved.
    std::vector<CallId> holders;
  };

  /// One destination's record, created at its first registration.
  struct Destination {
    /// Dispatched calls holding a slot (abandoned ones do not).
    int in_flight = 0;
    /// Its circuit breaker when Limits::breaker is set.
    std::optional<CircuitBreaker> breaker;
    /// `wsq_external_call_latency_micros{destination}`, looked up once
    /// (outside Core::mu); null if the registry is full.
    Histogram* latency = nullptr;
    /// The same latencies, kept by this pump alone (other pumps and tests
    /// feed the registry's): the source of `hedge_delay_micros`.
    HistogramSnapshot latencies;
    /// How long a call's first dispatch may be out before the call is
    /// hedged; 0 (never) until `latencies` holds kMinHedgeSamples, then
    /// refreshed every kMinHedgeSamples latencies.
    int64_t hedge_delay_micros = 0;
    /// The latest first dispatch among its calls that have answered.
    int64_t latest_answered_dispatch_micros = 0;
    /// Whether a call's first dispatch here answered after a call sent
    /// here at least kHedgeMinDelayMicros later had: the destination
    /// serves requests independently, so a self-hedge can win.
    bool overtaken = false;
    /// Its keyed calls by request key, unresolved or with an answer
    /// still held: where Register joins.
    std::unordered_map<std::string, KeyedCall> keyed;
  };

  /// One unresolved call and the registrations waiting on it (see
  /// Core::calls).
  struct CallMeta {
    std::string destination;
    /// Its record in Core::destinations (never erased, so stable).
    Destination* dest = nullptr;
    /// Register's request key; empty = nothing joins the call.
    std::string key;
    /// When the registration that started it was made.
    int64_t registered_micros = 0;
    /// 0 until the call's first dispatch.
    int64_t dispatched_micros = 0;
    /// Query of the registration that started it; stamps dispatch and
    /// completion events and latency exemplars, which resolve on
    /// pump/service threads with no binding of their own.
    uint64_t query_id = 0;
    Phase phase = Phase::kQueued;
    /// Dispatches so far (the first plus retries).
    int attempts = 0;
    /// A copy of the call's fn, kept while it may still be retried.
    AsyncCallFn fn;
    /// Whether the breaker admitted the call as its half-open probe.
    bool as_probe = false;
    /// Status of the attempt being retried (kBackoff, or kQueued after
    /// a backoff), or of the failed last attempt (kFailed): the call's
    /// outcome if it never runs again.
    Status last_failure;
    /// Register's hedge target; `hedge_dest` is null without one, and
    /// `hedge_fn` goes once the hedge is sent. A self-hedge's fn is
    /// copied from the call's own when the hedge is armed.
    std::string hedge_destination;
    Destination* hedge_dest = nullptr;
    AsyncCallFn hedge_fn;
    HedgePhase hedge = HedgePhase::kNone;
    /// When the hedge was dispatched; 0 before.
    int64_t hedge_dispatched_micros = 0;
    /// Whether the hedge target's breaker admitted the hedge as its probe.
    bool hedge_as_probe = false;
    /// Its unresolved registrations, in registration order; never empty.
    std::vector<CallId> joiners;
  };

  /// An entry of the timer thread's heap.
  struct Deadline {
    enum class Kind {
      kRegistration,  ///< a registration's deadline
      kRetry,         ///< the end of a call's retry backoff
      kHedge,         ///< when a call's first dispatch is due a hedge
    };
    int64_t when_micros;
    /// The registration's id, or the call's for kRetry and kHedge.
    CallId id;
    std::string destination;
    Kind kind = Kind::kRegistration;

    bool operator>(const Deadline& o) const {
      if (when_micros != o.when_micros) return when_micros > o.when_micros;
      return id > o.id;
    }
  };

  /// All mutable state lives here, shared (via shared_ptr) with every
  /// in-flight completion callback, so a straggler completing after the
  /// ReqPump is gone touches valid memory and is simply discarded.
  /// Every mutable field is guarded by `mu` — ReqPump has exactly one
  /// lock, so there is no internal ordering to get wrong.
  struct Core {
    explicit Core(Limits l) : limits(std::move(l)), rng(limits.retry.seed) {}

    const Limits limits;

    mutable Mutex mu;
    CondVar cv;
    CallId next_id WSQ_GUARDED_BY(mu) = 1;
    uint64_t completion_seq WSQ_GUARDED_BY(mu) = 0;
    int in_flight_global WSQ_GUARDED_BY(mu) = 0;
    std::map<std::string, Destination> destinations WSQ_GUARDED_BY(mu);
    std::deque<QueuedCall> queue WSQ_GUARDED_BY(mu);
    /// "ReqPumpHash"
    std::unordered_map<CallId, CallResult> results WSQ_GUARDED_BY(mu);
    /// Registrations with no result yet (not completed, timed out, or
    /// cancelled). Deadline entries for ids outside this map are stale.
    std::unordered_map<CallId, Registration> unresolved WSQ_GUARDED_BY(mu);
    /// Calls with at least one unresolved registration, keyed by the id
    /// of the registration that started each. Backoff entries for ids
    /// outside this map are stale.
    std::unordered_map<CallId, CallMeta> calls WSQ_GUARDED_BY(mu);
    /// Holders of keyed answers (KeyedCall::holders), mapped to the
    /// answer's destination record and key, so taking a result can
    /// release the answer.
    std::unordered_map<CallId, std::pair<Destination*, std::string>> held
        WSQ_GUARDED_BY(mu);
    /// Dispatches whose answers nobody waits for any more (every
    /// registration on the call timed out or was cancelled, or the other
    /// dispatch of a hedged call answered), keyed by DispatchKey and
    /// mapped to whether each was its breaker's probe: their eventual
    /// real completion only teaches the breaker and is otherwise
    /// discarded.
    std::unordered_map<uint64_t, bool> abandoned WSQ_GUARDED_BY(mu);
    std::priority_queue<Deadline, std::vector<Deadline>,
                        std::greater<Deadline>>
        deadlines WSQ_GUARDED_BY(mu);
    /// Result notifications waiting for the timer thread to run them.
    std::vector<PumpCallback> notifications WSQ_GUARDED_BY(mu);
    /// Registered but not yet resolved/dropped.
    uint64_t outstanding WSQ_GUARDED_BY(mu) = 0;
    /// Set when ~ReqPump begins: no more retries or dispatches.
    bool shutdown WSQ_GUARDED_BY(mu) = false;
    ReqPumpStats stats WSQ_GUARDED_BY(mu);
    /// Backoff draws (Limits::retry).
    Rng rng WSQ_GUARDED_BY(mu);
  };

  using CallIt = std::unordered_map<CallId, CallMeta>::iterator;
  using RegistrationIt = std::unordered_map<CallId, Registration>::iterator;
  using ResultIt = std::unordered_map<CallId, CallResult>::iterator;

  /// Invokes the call's fn; caller must NOT hold core->mu (the call
  /// may complete synchronously and re-enter OnComplete). The call's
  /// `query_id` stamps the flight-recorder dispatch event (queued calls
  /// dispatch from pump threads where no binding exists).
  static void Dispatch(const std::shared_ptr<Core>& core, QueuedCall call)
      WSQ_EXCLUDES(core->mu);
  static void DispatchAll(const std::shared_ptr<Core>& core,
                          std::vector<QueuedCall>* calls)
      WSQ_EXCLUDES(core->mu);

  /// Invoked by call completions (possibly after ~ReqPump); `hedge`
  /// marks the completion of the call's hedge dispatch.
  static void OnComplete(const std::shared_ptr<Core>& core, CallId id,
                         const std::string& destination, bool hedge,
                         CallResult result) WSQ_EXCLUDES(core->mu);

  /// Whether `call` may still fail over: it has an unsent hedge target
  /// at another destination.
  static bool HasAlternate(const CallMeta& call) {
    return call.hedge == HedgePhase::kNone && call.hedge_fn &&
           call.hedge_dest != call.dest;
  }

  /// Key of call `id`'s own dispatch, or of its hedge, in
  /// Core::abandoned.
  static uint64_t DispatchKey(CallId id, bool hedge) {
    return id << 1 | (hedge ? 1 : 0);
  }

  /// Sends `call` to its hedge target as a latency hedge if it has one
  /// left, the pump is not shutting down, the target has a free slot and
  /// its breaker admits it; returns the dispatch to make outside the
  /// lock, or nullopt.
  static std::optional<QueuedCall> StartHedgeLocked(Core* core, CallIt call)
      WSQ_REQUIRES(core->mu);

  /// Turns `call`, whose own dispatch failed with `failure` (or was
  /// rejected), into a failover to its alternate: the returned entry
  /// waits in the queue like a first dispatch.
  static QueuedCall FailOverLocked(CallIt call, Status failure);

  /// Moves `call`'s hedge dispatch in flight at `now`, reserving its
  /// slots at the hedge target.
  static void SendHedgeLocked(Core* core, CallMeta* call, int64_t now)
      WSQ_REQUIRES(core->mu);

  /// Notes that a call first dispatched to `destination` at
  /// `dispatched_micros` has answered (see Destination::overtaken).
  static void NoteAnswerLocked(Destination* destination,
                               int64_t dispatched_micros);

  /// Abandons `call`'s hedge dispatch if `hedge`, else its own: frees
  /// its slot, and its late completion only teaches its breaker.
  static void AbandonLocked(Core* core, CallIt call, bool hedge)
      WSQ_REQUIRES(core->mu);

  /// Adds one completion's latency to `destination`'s own record,
  /// refreshing its hedge delay every kMinHedgeSamples of them.
  static void RecordLatencyLocked(Destination* destination,
                                  int64_t micros);

  /// Appends `call` to the wait queue.
  static void EnqueueLocked(Core* core, QueuedCall call)
      WSQ_REQUIRES(core->mu);

  /// Pops dispatchable queued calls and failovers under core->mu and
  /// reserves their limit slots; returns them for dispatch outside the
  /// lock. A dispatch its breaker rejects fails over, waiting where the
  /// call waited, or is resolved.
  static std::vector<QueuedCall> TakeDispatchableLocked(Core* core)
      WSQ_REQUIRES(core->mu);

  /// Moves `call` in flight at `now` for `queued`'s attempt (its own
  /// dispatch, or its failover if `queued->hedge_cause` is set),
  /// reserving the slots (the caller checked they are free). If the
  /// breaker rejects a first dispatch, `*queued` becomes the call's
  /// failover, started too if its destination has a free slot, or the
  /// call resolves kUnavailable; a rejected failover resolves the call
  /// with its primary's failure.
  static Start StartLocked(Core* core, CallIt call, QueuedCall* queued,
                           int64_t now) WSQ_REQUIRES(core->mu);

  /// Resolves every registration waiting on `call` with `result` (each
  /// counted completed, and failed unless OK) and ends the call, holding
  /// a keyed call's result for later joiners if it is the destination's
  /// `answer`. Sets the result's `hedged`; the caller sets `hedge_won`.
  static void ResolveCallLocked(Core* core, CallIt call, CallResult result,
                                bool answer, int64_t now)
      WSQ_REQUIRES(core->mu);

  /// Stores `result` as registration `reg`'s answer, with its timings on
  /// `call` as of `now`, queues its `on_result` if `notify`, and erases
  /// it; the caller updates slots, stats and the call's joiners.
  static void StoreResultLocked(Core* core, RegistrationIt reg,
                                const CallMeta& call, CallResult result,
                                bool notify, int64_t now)
      WSQ_REQUIRES(core->mu);

  /// Forgets `call`, which no registration waits on any more. Its key,
  /// if any, then goes too, unless the call resolved with an `answer`
  /// that its registrations now hold.
  static void EndCallLocked(Core* core, CallIt call, bool answer)
      WSQ_REQUIRES(core->mu);

  /// Removes result `it` from ReqPumpHash and returns it, releasing the
  /// keyed answer it held, if any.
  static CallResult TakeLocked(Core* core, ResultIt it)
      WSQ_REQUIRES(core->mu);

  /// The latest deadline of `call`'s registrations; 0 if one has none.
  static int64_t LatestDeadlineLocked(const Core& core, const CallMeta& call)
      WSQ_REQUIRES(core.mu);

  /// Teaches `destination`'s breaker an admitted call's final outcome;
  /// the caller holds Core::mu.
  static void LearnLocked(Destination* destination, const Status& status,
                          bool as_probe);

  /// Resolves registration `reg` with `result` ahead of its call's
  /// completion (deadline, cancel or shutdown; see StoreResultLocked).
  /// If no other registration waits on the call, drops it from the
  /// queue or its backoff, abandons each of its dispatches still out
  /// and appends to `to_dispatch` the queued calls their slots free.
  /// Returns the phase the call was in.
  static Phase ResolveEarlyLocked(Core* core, RegistrationIt reg,
                                  CallResult result, bool notify,
                                  std::vector<QueuedCall>* to_dispatch)
      WSQ_REQUIRES(core->mu);

  /// Resolves registration `reg` kCancelled (CancelCall), appending to
  /// `to_dispatch` the queued calls that frees.
  static void CancelLocked(Core* core, RegistrationIt reg,
                           std::vector<QueuedCall>* to_dispatch)
      WSQ_REQUIRES(core->mu);

  static bool CanDispatchLocked(const Core& core,
                                const Destination& destination)
      WSQ_REQUIRES(core.mu);

  /// Whether `d` is a deadline of a registration that has resolved, or
  /// the backoff end or hedge time of a call that has ended.
  static bool StaleLocked(const Core& core, const Deadline& d)
      WSQ_REQUIRES(core.mu);

  /// `destination`'s record, created with `latency` if it has none.
  static Destination* AddDestinationLocked(Core* core,
                                           const std::string& destination,
                                           Histogram* latency)
      WSQ_REQUIRES(core->mu);

  /// Copies of the destinations' breakers, for the metrics collector.
  static std::map<std::string, CircuitBreaker> BreakersLocked(
      const Core& core) WSQ_REQUIRES(core.mu);

  /// Timer thread body: expires deadlines, ends backoffs, sends hedges
  /// and runs notifications.
  static void TimerLoop(std::shared_ptr<Core> core);

  std::shared_ptr<Core> core_;
  std::thread timer_;
  /// MetricsRegistry collector handle (removed first in ~ReqPump so the
  /// callback never outlives the pump's registration).
  uint64_t collector_id_ = 0;
};

}  // namespace wsq

#endif  // WSQ_ASYNC_REQ_PUMP_H_
