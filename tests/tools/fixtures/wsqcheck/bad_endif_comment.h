// wsqcheck-fixture: dest=src/common/bad_endif_comment.h expect=include-guard:1
#ifndef WSQ_COMMON_BAD_ENDIF_COMMENT_H_
#define WSQ_COMMON_BAD_ENDIF_COMMENT_H_

namespace wsq {}

#endif
