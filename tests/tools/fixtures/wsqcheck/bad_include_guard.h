// wsqcheck-fixture: dest=src/common/bad_include_guard.h expect=include-guard:1
#ifndef WSQ_WRONG_GUARD_H_
#define WSQ_WRONG_GUARD_H_

namespace wsq {}

#endif  // WSQ_WRONG_GUARD_H_
