// CRC-32, PRNG, hexdump, virtual clock, and logger tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/hexdump.h"
#include "src/base/log.h"
#include "src/base/random.h"
#include "src/base/vclock.h"

namespace para {
namespace {

std::span<const uint8_t> Bytes(const char* s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s), std::strlen(s));
}

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789" under CRC-32/IEEE.
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(Bytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(Bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, Bytes("1234"));
  crc = Crc32Update(crc, Bytes("56789"));
  EXPECT_EQ(Crc32Final(crc), Crc32(Bytes("123456789")));
}

TEST(Crc32Test, DetectsCorruption) {
  std::vector<uint8_t> data(64, 0xAB);
  uint32_t good = Crc32(data);
  data[17] ^= 1;
  EXPECT_NE(Crc32(data), good);
}

// The classic one-table, one-byte-per-step CRC-32 loop: the oracle that
// Crc32 (folded where the host has PCLMULQDQ) and the portable sliced loop
// must both match bit for bit.
uint32_t BytewiseCrc32Update(uint32_t crc, std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
  return BytewiseCrc32Update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

uint32_t SlicedCrc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32UpdateSliced(Crc32Init(), data));
}

std::vector<uint8_t> RandomBytes(Random& rng, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return bytes;
}

// A heap block of exactly offset + data.size() bytes with `data` at its end,
// so a load past the end of the data leaves the allocation (where ASan
// reports it) and `offset` sets the data's alignment within 16 bytes.
std::vector<uint8_t> PlaceAtEnd(std::span<const uint8_t> data, size_t offset) {
  std::vector<uint8_t> block(offset + data.size());
  std::copy(data.begin(), data.end(), block.begin() + static_cast<ptrdiff_t>(offset));
  return block;
}

TEST(Crc32Test, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  Random rng(0xC3C32);
  // Every length across the 16- and 64-byte fold boundaries, then random
  // lengths up to the largest frame SendDatagram builds (65511 + 42 B).
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 256; ++len) {
    lengths.push_back(len);
  }
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(rng.NextBelow(65554));
  }
  lengths.push_back(65553);
  for (size_t len : lengths) {
    const std::vector<uint8_t> bytes = RandomBytes(rng, len);
    const uint32_t oracle = BytewiseCrc32(bytes);
    for (size_t offset = 0; offset < 16; ++offset) {
      const std::vector<uint8_t> block = PlaceAtEnd(bytes, offset);
      const auto data = std::span<const uint8_t>(block).subspan(offset);
      ASSERT_EQ(Crc32(data), oracle) << "len " << len << " offset " << offset;
      ASSERT_EQ(SlicedCrc32(data), oracle) << "len " << len << " offset " << offset;
    }
  }
}

TEST(Crc32Test, SplitUpdatesMatchBytewiseOracle) {
  Random rng(0x5B117);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> data = RandomBytes(rng, rng.NextBelow(4097));
    // Cut the buffer into random pieces of 0-159 bytes: pieces above 16 and
    // 64 bytes take the fold, most leave a tail for the sliced loop, and
    // each starts wherever the last one ended, mostly partway into a
    // 16-byte block of the whole buffer.
    uint32_t crc = Crc32Init();
    uint32_t sliced = Crc32Init();
    size_t done = 0;
    while (done < data.size()) {
      size_t piece = std::min<size_t>(rng.NextBelow(160), data.size() - done);
      const auto chunk = std::span<const uint8_t>(data).subspan(done, piece);
      crc = Crc32Update(crc, chunk);
      sliced = Crc32UpdateSliced(sliced, chunk);
      done += piece;
    }
    uint32_t oracle = BytewiseCrc32(data);
    ASSERT_EQ(Crc32Final(crc), oracle) << "trial " << trial;
    ASSERT_EQ(Crc32Final(sliced), oracle) << "trial " << trial;
    ASSERT_EQ(Crc32(data), oracle) << "trial " << trial;
    // The incremental state itself matches too, not only the finished CRC.
    size_t cut = data.empty() ? 0 : rng.NextBelow(data.size() + 1);
    std::span<const uint8_t> head = std::span<const uint8_t>(data).first(cut);
    ASSERT_EQ(Crc32Update(Crc32Init(), head), BytewiseCrc32Update(0xFFFFFFFFu, head));
    ASSERT_EQ(Crc32UpdateSliced(Crc32Init(), head), BytewiseCrc32Update(0xFFFFFFFFu, head));
  }
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, NextBelowInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BoolProbabilityRoughlyHolds) {
  Random rng(11);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    trues += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_GT(trues, 2000);
  EXPECT_LT(trues, 3000);
}

TEST(HexTest, HexEncode) {
  uint8_t data[] = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(HexEncode(data), "deadbeef");
  EXPECT_EQ(HexEncode(std::span<const uint8_t>{}), "");
}

TEST(HexTest, HexdumpFormat) {
  uint8_t data[20];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>('A' + i);
  }
  std::string dump = Hexdump(data);
  EXPECT_NE(dump.find("00000000"), std::string::npos);
  EXPECT_NE(dump.find("00000010"), std::string::npos);  // second line
  EXPECT_NE(dump.find("|ABCDEFGHIJKLMNOP|"), std::string::npos);
  EXPECT_NE(dump.find("41 "), std::string::npos);
}

TEST(HexTest, HexdumpNonPrintable) {
  uint8_t data[] = {0x00, 0x1F, 0x7F};
  std::string dump = Hexdump(data);
  EXPECT_NE(dump.find("|...|"), std::string::npos);
}

TEST(VClockTest, AdvanceAndReset) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(50);  // never goes backwards
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(250);
  EXPECT_EQ(clock.now(), 250u);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(LogTest, SinkCapturesAtLevel) {
  std::vector<std::string> lines;
  Logger::Get().set_sink([&lines](LogLevel, std::string_view msg) {
    lines.emplace_back(msg);
  });
  Logger::Get().set_min_level(LogLevel::kInfo);
  PARA_DEBUG("hidden %d", 1);
  PARA_INFO("visible %d", 2);
  PARA_ERROR("also visible");
  Logger::Get().set_sink(nullptr);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("visible 2"), std::string::npos);
  EXPECT_NE(lines[0].find("[INFO]"), std::string::npos);
  EXPECT_NE(lines[1].find("[ERROR]"), std::string::npos);
  // Lines carry file:line provenance.
  EXPECT_NE(lines[0].find("misc_test.cc"), std::string::npos);
}

TEST(LogTest, LevelNames) {
  EXPECT_EQ(LogLevelName(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(LogLevelName(LogLevel::kFatal), "FATAL");
}

}  // namespace
}  // namespace para
