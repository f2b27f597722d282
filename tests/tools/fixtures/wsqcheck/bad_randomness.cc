// wsqcheck-fixture: dest=src/common/bad_randomness.cc expect=randomness:1
#include <cstdlib>

namespace wsq {

inline int Roll() { return rand() % 6; }

}  // namespace wsq
