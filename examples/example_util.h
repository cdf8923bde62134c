#ifndef VDB_EXAMPLES_EXAMPLE_UTIL_H_
#define VDB_EXAMPLES_EXAMPLE_UTIL_H_

#include <cstdio>
#include <cstdlib>

#include "core/status.h"

namespace vdb {

/// Exits with the rendered Status on failure. Status is [[nodiscard]]
/// tree-wide, and the examples keep error handling honest without
/// drowning the tour in if-blocks: setup steps that cannot fail in a
/// demo still say what to do when they would.
inline void OrDie(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace vdb

#endif  // VDB_EXAMPLES_EXAMPLE_UTIL_H_
