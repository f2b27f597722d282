// wsqcheck-fixture: dest=src/common/bad_iostream.cc expect=iostream:1
#include <iostream>

namespace wsq {}
