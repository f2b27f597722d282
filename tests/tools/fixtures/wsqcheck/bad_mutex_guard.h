// wsqcheck-fixture: dest=src/async/bad_mutex_guard.h expect=mutex-guard:1
#ifndef WSQ_ASYNC_BAD_MUTEX_GUARD_H_
#define WSQ_ASYNC_BAD_MUTEX_GUARD_H_

namespace wsq {

class Orphan {
 private:
  Mutex mu_;
  int unguarded_ = 0;
};

}  // namespace wsq

#endif  // WSQ_ASYNC_BAD_MUTEX_GUARD_H_
