// CRC-32 (IEEE 802.3 polynomial). Used as the frame check sequence of the
// simulated network link and as a cheap integrity check on component images.
//
// Computed slicing-by-8: eight 256-entry tables fold eight input bytes per
// step, and a one-table loop finishes the tail. The result is bit-identical
// to the classic bytewise CRC for every input and every split of an
// incremental computation, so neither the wire FCS nor the repository image
// format depends on which loop produced it. Portable C++: words are built
// from bytes, with no alignment requirement on the input.
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

}  // namespace para

#endif  // PARAMECIUM_SRC_BASE_CRC32_H_
