// wsqcheck-fixture: dest=src/obs/good_obs_metrics.cc expect=clean
namespace wsq {

// Flight-recorder and postmortem metric families are registered:
// these pass the metric-naming check.
inline void Touch(MetricsRegistry* reg) {
  reg->GetCounter("wsq_fr_events_total")->Increment();
  reg->GetCounter("wsq_fr_postmortems_total")->Increment();
  reg->GetCounter("wsq_fr_postmortems_suppressed_total")->Increment();
  reg->GetHistogram("wsq_fr_snapshot_micros")->Record(12);
  reg->GetGauge("wsq_fr_rings")->Set(9);
}

}  // namespace wsq
