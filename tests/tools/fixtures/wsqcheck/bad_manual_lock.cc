// wsqcheck-fixture: dest=src/exec/bad_manual_lock.cc expect=manual-lock:1
namespace wsq {

class Manual {
 public:
  void Touch() {
    mu_.lock();
    ++x_;
  }

 private:
  Mutex mu_;
  int x_ WSQ_GUARDED_BY(mu_) = 0;
};

}  // namespace wsq
