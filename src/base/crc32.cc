#include "src/base/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace para {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables over the reflected polynomial, built at compile time.
// tables[0] is the classic one-byte table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups fold eight input bytes
// into the CRC at once.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

// Little-endian 32-bit load assembled from bytes: no alignment or aliasing
// assumptions (compilers fold it into one load where that is legal).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

#if defined(__x86_64__)

// CPUID.1:ECX bits 1 (PCLMULQDQ) and 9 (SSSE3, for the tail's pshufb). Read
// once, during static initialization; a CRC taken before that reads false
// and runs the portable loop, which gives the same result.
bool HostCanFold() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  constexpr unsigned kNeeded = (1u << 1) | (1u << 9);
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & kNeeded) == kNeeded;
}

const bool kHostCanFold = HostCanFold();

// pshufb controls for the partial block: 16 bytes from offset r move a
// register's bytes up by 16 - r (zeros below), 16 bytes from offset 16 + r
// move them down by r (zeros above). 0x80 selects a zero byte.
constexpr uint8_t kShiftShuffles[48] = {
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
    0x80, 0x80, 0x80, 0x80, 0,    1,    2,    3,    4,    5,    6,    7,
    8,    9,    10,   11,   12,   13,   14,   15,   0x80, 0x80, 0x80, 0x80,
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
};

// Carry-less-multiply folding of the reflected IEEE polynomial (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel,
// 2009), with the paper's bit-reflected constants. `len` is at least 16.
// Four 128-bit accumulators fold 64 bytes per step (k1, k2: x^(4*128+32) and
// x^(4*128-32) mod P), one accumulator then folds 16 bytes per step (k3, k4:
// x^(128+32) and x^(128-32) mod P), a tail of 1-15 bytes takes one more
// 16-byte fold over the overlapping last block, the last 128 bits reduce to
// 64 (k4, then k5: x^64 mod P), and Barrett reduction (mu = x^64 / P, and P)
// leaves the 32-bit CRC.
__attribute__((target("pclmul,ssse3"))) uint32_t Crc32Fold(uint32_t crc, const uint8_t* p,
                                                          size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i mu_poly = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);
  auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const uint8_t* const end = p + len;

  __m128i acc = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  p += 16;
  len -= 16;
  if (len >= 48) {
    constexpr size_t kLanes = 4;
    __m128i x[kLanes] = {acc, load(p), load(p + 16), load(p + 32)};
    for (p += 48, len -= 48; len >= 64; p += 64, len -= 64) {
      for (size_t i = 0; i < kLanes; ++i) {
        x[i] = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x[i], k1k2, 0x00),
                                           _mm_clmulepi64_si128(x[i], k1k2, 0x11)),
                             load(p + 16 * i));
      }
    }
    acc = x[0];
    for (size_t i = 1; i < kLanes; ++i) {
      acc = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x00),
                                        _mm_clmulepi64_si128(acc, k3k4, 0x11)),
                          x[i]);
    }
  }
  for (; len >= 16; p += 16, len -= 16) {
    acc = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x00),
                                      _mm_clmulepi64_si128(acc, k3k4, 0x11)),
                        load(p));
  }
  if (len > 0) {
    // Partial block. The message now ends with acc's 16 bytes and then the
    // `len` tail bytes, so its last 16 bytes are acc's bytes len..15 and the
    // tail (from an overlapping load of the input's last 16 bytes). acc's
    // bytes 0..len-1 come right before that block: moved to the top of a
    // register, they fold over it like any earlier block.
    const __m128i up = load(kShiftShuffles + len);
    const __m128i tail_mask = _mm_cmpgt_epi8(up, _mm_set1_epi8(-1));
    const __m128i head = _mm_shuffle_epi8(acc, up);
    const __m128i last = _mm_or_si128(_mm_shuffle_epi8(acc, load(kShiftShuffles + 16 + len)),
                                      _mm_and_si128(load(end - 16), tail_mask));
    acc = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(head, k3k4, 0x00),
                                      _mm_clmulepi64_si128(head, k3k4, 0x11)),
                        last);
  }

  // Fold the last 128 bits to 64: by k4, which also appends the 32 zero bits
  // of the CRC's x^32 shift, then by k5.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00));
  // Barrett reduction, 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), mu_poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_poly, 0x00);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, t), 4)));
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32UpdateSliced(uint32_t crc, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t len = data.size();
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = LoadLe32(p) ^ crc;
    uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^
          kTables[2][(hi >> 8) & 0xFF] ^ kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data) {
#if defined(__x86_64__)
  if (kHostCanFold && data.size() >= 16) {
    return Crc32Fold(crc, data.data(), data.size());
  }
#endif
  return Crc32UpdateSliced(crc, data);
}

uint32_t Crc32Final(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace para
