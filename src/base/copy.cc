#include "src/base/copy.h"

#include <cstring>

namespace para {

void CopyBytes(void* dst, const void* src, size_t n) {
  if (n != 0) {
    std::memcpy(dst, src, n);
  }
}

}  // namespace para
