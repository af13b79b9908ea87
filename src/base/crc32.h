// CRC-32 (IEEE 802.3 polynomial). Used as the frame check sequence of the
// simulated network link and as a cheap integrity check on component images.
//
// What runs where:
//  * On x86-64 hosts whose CPUID reports PCLMULQDQ and SSSE3, Crc32Update
//    runs a carry-less-multiply fold over every input of 16 bytes or more:
//    64 bytes per step while 64 remain, then 16, then one more fold over the
//    overlapping last 16 bytes for a tail of 1-15 (shifted into place with
//    pshufb), then a Barrett reduction. The fold is compiled for those two
//    instruction set extensions alone and chosen at run time, so the build
//    needs no -m or -march flag.
//  * Every other host, and inputs under 16 bytes, run Crc32UpdateSliced:
//    slicing-by-8, eight 256-entry tables folding eight bytes per step, in
//    portable C++ with no alignment requirement on the input. It stays
//    because it is the only code those hosts have.
// Both give results bit-identical to the classic bytewise CRC for every
// input and every split of an incremental computation, so neither the wire
// FCS nor the repository image format depends on which code produced it.
#ifndef PARAMECIUM_SRC_BASE_CRC32_H_
#define PARAMECIUM_SRC_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace para {

// One-shot CRC over a buffer.
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental form: crc = Crc32Update(crc, chunk) starting from
// Crc32Init(), finished with Crc32Final(crc). Chunks may split the input
// anywhere.
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t crc);

// The portable slicing-by-8 loop alone, with Crc32Update's contract. Public
// so tests and benches reach it on hosts where Crc32Update folds.
uint32_t Crc32UpdateSliced(uint32_t crc, std::span<const uint8_t> data);

}  // namespace para

#endif  // PARAMECIUM_SRC_BASE_CRC32_H_
