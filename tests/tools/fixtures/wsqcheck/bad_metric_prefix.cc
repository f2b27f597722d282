// wsqcheck-fixture: dest=src/obs/bad_metric_prefix.cc expect=metric-naming:1
namespace wsq {

// Well-formed name (wsq_ prefix, snake_case, _total suffix) but the
// "wsq_frobnicator_" family was never registered in METRIC_PREFIXES.
inline void Touch(MetricsRegistry* reg) {
  reg->GetCounter("wsq_frobnicator_requests_total")->Increment();
}

}  // namespace wsq
