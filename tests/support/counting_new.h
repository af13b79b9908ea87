// Test-only allocation counter for exact "allocates nothing" guards: an
// assertion on a count cannot flip on a noisy host the way a timing can.
//
// counting_new.cc replaces every form of the global operator new and
// operator delete with versions on malloc/free that count each allocation.
// A test binary opts in by adding that file to its own sources (see
// tests/filter/CMakeLists.txt), so the replacement is linked exactly once
// into the binary and covers all of it; this header only reads the count.
#ifndef PARAMECIUM_TESTS_SUPPORT_COUNTING_NEW_H_
#define PARAMECIUM_TESTS_SUPPORT_COUNTING_NEW_H_

#include <cstdint>

namespace para {

// Global allocations (through any operator new) since the process started.
uint64_t Allocs();

}  // namespace para

#endif  // PARAMECIUM_TESTS_SUPPORT_COUNTING_NEW_H_
