// wsqcheck-fixture: dest=src/net/bad_detached_thread.cc expect=detached-thread:1
#include <thread>

namespace wsq {

// A comment that mentions std::thread(...).detach() is not flagged.
void FireAndForget() {
  std::thread([] {}).detach();
}

}  // namespace wsq
