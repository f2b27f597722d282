#ifndef WSQ_OBS_METRICS_H_
#define WSQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace wsq {

/// Label set attached to a metric, e.g. {{"destination", "AltaVista"}}.
/// Order does not matter: labels are sorted before they become part of
/// the series identity.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Metric naming scheme (enforced by tools/wsqcheck.py `metric-naming`):
/// snake_case, `wsq_` prefix for this codebase, counters end in
/// `_total`, histograms carry their unit (`_micros` / `_bytes`), gauges
/// are bare nouns (`wsq_reqpump_in_flight`).

/// Monotonic counter. Add() is one relaxed fetch_add; reads are relaxed.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t delta) {
    if (gate_ != nullptr && !gate_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
  const std::atomic<bool>* gate_ = nullptr;  // registry kill switch
};

/// Instantaneous value (may go down).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

/// Sink handed to collector callbacks at export time. Emitted samples
/// are merged with the registry-owned instruments: samples sharing
/// (name, labels) are summed (counters/gauges) or bucket-merged
/// (histograms), so several ReqPumps or caches publishing under the
/// same name roll up into process totals.
class MetricsEmitter {
 public:
  virtual ~MetricsEmitter() = default;
  virtual void EmitCounter(std::string_view name, std::string_view help,
                           MetricLabels labels, uint64_t value) = 0;
  virtual void EmitGauge(std::string_view name, std::string_view help,
                         MetricLabels labels, int64_t value) = 0;
  virtual void EmitHistogram(std::string_view name, std::string_view help,
                             MetricLabels labels,
                             HistogramSnapshot snapshot) = 0;
};

/// Process-wide metrics registry (tentpole of DESIGN.md §12).
///
/// Two publication styles:
///  - owned instruments: GetCounter/GetGauge/GetHistogram return a
///    pointer that stays valid for the registry's lifetime; hot paths
///    cache it (typically in a function-local static) and record
///    lock-free;
///  - collectors: components that already keep their own stats structs
///    (ReqPumpStats, AdmissionStats, ...) register a callback that
///    re-publishes them at export time, keeping the existing accessors
///    as the single source of truth.
///
/// Collector contract: callbacks run under the registry lock, so they
/// must not call back into the registry (fetch any needed instruments
/// beforehand); they may take their component's own lock — the
/// lock order is registry → component, never the reverse while holding
/// a component lock. Remove the collector (RemoveCollector) before the
/// component it captures is destroyed.
///
/// SetRecordingEnabled(false) is a kill switch for overhead
/// measurement: owned counters and histograms drop recordings while
/// disabled (gauges and collectors still export their current state).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed, so instrument pointers
  /// and collector registration outlive every component).
  static MetricsRegistry* Global();

  /// Finds or creates the instrument for (name, labels). Returns null
  /// only if the name is already registered with a different type —
  /// a programming error surfaced to the caller instead of silently
  /// exporting one series under two types.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const MetricLabels& labels = {}) WSQ_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const MetricLabels& labels = {}) WSQ_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const MetricLabels& labels = {}) WSQ_EXCLUDES(mu_);

  using CollectorFn = std::function<void(MetricsEmitter*)>;

  /// Registers an export-time callback; returns a handle for removal.
  uint64_t AddCollector(CollectorFn fn) WSQ_EXCLUDES(mu_);
  void RemoveCollector(uint64_t id) WSQ_EXCLUDES(mu_);

  void SetRecordingEnabled(bool enabled) {
    recording_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool recording_enabled() const {
    return recording_enabled_.load(std::memory_order_relaxed);
  }

  /// Prometheus text exposition. Histograms are rendered summary-style:
  /// `name{...,quantile="0.5"}`, plus `name_sum`, `name_count`, and a
  /// `name_max` gauge. Output is sorted by (name, labels) so repeated
  /// exports of the same state are byte-identical.
  std::string ExportPrometheusText() const WSQ_EXCLUDES(mu_);

  /// The same samples as a JSON array (machine-readable dumps/benches).
  std::string ExportJson() const WSQ_EXCLUDES(mu_);

 private:
  struct Instrument {
    MetricType type;
    std::string name;
    std::string help;
    std::string labels_text;  // canonical, sorted
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// One exported series, post-merge.
  struct Sample {
    MetricType type;
    std::string name;
    std::string help;
    std::string labels_text;
    uint64_t counter_value = 0;
    int64_t gauge_value = 0;
    HistogramSnapshot histogram;
  };

  class CollectingEmitter;

  Instrument* GetLocked(MetricType type, const std::string& name,
                        const std::string& help, const MetricLabels& labels)
      WSQ_REQUIRES(mu_);

  /// Snapshot of every instrument + collector output, merged by
  /// (name, labels) and sorted.
  std::vector<Sample> Collect() const WSQ_EXCLUDES(mu_);

  mutable Mutex mu_;
  /// Keyed by name + canonical label text; values are stable pointers.
  std::map<std::string, std::unique_ptr<Instrument>> instruments_
      WSQ_GUARDED_BY(mu_);
  std::map<uint64_t, CollectorFn> collectors_ WSQ_GUARDED_BY(mu_);
  uint64_t next_collector_id_ WSQ_GUARDED_BY(mu_) = 1;
  std::atomic<bool> recording_enabled_{true};
};

}  // namespace wsq

#endif  // WSQ_OBS_METRICS_H_
