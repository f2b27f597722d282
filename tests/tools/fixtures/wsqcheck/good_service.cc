// wsqcheck-fixture: dest=src/net/good_service.cc expect=clean
namespace wsq {

class Careful final : public SearchService {
 public:
  void Submit(SearchRequest request, SearchCallback done) override {
    if (request.key.empty()) {
      done(SearchResponse{});
      return;
    }
    wrapped_->Submit(std::move(request), std::move(done));
  }

  ~Careful() {
    MutexLock lock(&mu_);
    // Bounded: no new calls can start during destruction.
    // wsqcheck: allow(cancel-blind-wait)
    while (outstanding_ != 0) cv_.Wait(mu_);
  }

 private:
  SearchService* wrapped_ = nullptr;
  Mutex mu_;
  CondVar cv_;
  int outstanding_ WSQ_GUARDED_BY(mu_) = 0;
};

}  // namespace wsq
