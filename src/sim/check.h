// Invariant checks that hold in every build, NDEBUG included: a failed check
// prints where it failed and what it checked, then aborts. `assert` stays
// only where a check would cost measurable time, with a comment saying so.

#ifndef SRC_SIM_CHECK_H_
#define SRC_SIM_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace linefs::sim {

[[noreturn]] inline void CheckFailed(const char* condition, const char* file, int line) {
  std::fprintf(stderr, "%s:%d: check failed: %s\n", file, line, condition);
  std::abort();
}

}  // namespace linefs::sim

#define LINEFS_CHECK(condition)                                   \
  do {                                                            \
    if (!(condition)) [[unlikely]] {                              \
      ::linefs::sim::CheckFailed(#condition, __FILE__, __LINE__); \
    }                                                             \
  } while (0)

#endif  // SRC_SIM_CHECK_H_
