// wsqcheck-fixture: dest=src/async/good_header.h expect=clean
#ifndef WSQ_ASYNC_GOOD_HEADER_H_
#define WSQ_ASYNC_GOOD_HEADER_H_

namespace wsq {

class Guarded {
 private:
  Mutex mu_;
  int x_ WSQ_GUARDED_BY(mu_) = 0;
};

}  // namespace wsq

#endif  // WSQ_ASYNC_GOOD_HEADER_H_
