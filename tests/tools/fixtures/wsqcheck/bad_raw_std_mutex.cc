// wsqcheck-fixture: dest=src/net/bad_raw_std_mutex.cc expect=raw-std-mutex:1
#include <mutex>

namespace wsq {

class Invisible {
 private:
  std::mutex raw_;
};

}  // namespace wsq
