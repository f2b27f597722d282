// wsqcheck-fixture: dest=src/obs/bad_metric_naming.cc expect=metric-naming:1
namespace wsq {

inline void Touch(MetricsRegistry* reg) {
  reg->GetCounter("queries_served")->Increment();
}

}  // namespace wsq
