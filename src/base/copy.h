// The byte copy of the per-call and per-frame paths: cross-domain argument
// frames and results, software-MMU reads and writes, device-buffer spans and
// frame staging.
//
// Why not memcpy at the call site: GCC expands a memcpy or memset whose
// length it can bound (to one page, to a frame's maximum) but not fix into an
// inline `rep movsq`/`rep stosq`. Their start-up cost is larger than the
// small copies these paths make, most of which move 8 to a few hundred
// bytes. CopyBytes is defined in its own translation unit, so no caller's
// bound reaches the memcpy inside it, and the C library's size-dispatched
// copy runs instead. scripts/check-hot-copies.sh fails a Release build whose
// hot functions hold a `rep movs` or `rep stos` again.
//
// A copy whose length is a compile-time constant (a struct, a 4-byte
// register) stays a plain memcpy, which compiles to moves. A copy whose
// ends may overlap stays a memmove.
#ifndef PARAMECIUM_SRC_BASE_COPY_H_
#define PARAMECIUM_SRC_BASE_COPY_H_

#include <cstddef>

namespace para {

// Copies `n` bytes from `src` to `dst`, which must not overlap. With `n` 0
// nothing is touched, and either pointer may be null.
void CopyBytes(void* dst, const void* src, size_t n);

}  // namespace para

#endif  // PARAMECIUM_SRC_BASE_COPY_H_
