#include "src/crypto/bignum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/base/random.h"

namespace para::crypto {
namespace {

TEST(BigNumTest, ZeroProperties) {
  BigNum zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.ToHex(), "0");
  EXPECT_EQ(zero, BigNum(0));
}

TEST(BigNumTest, FromUint64) {
  BigNum v(0x1234'5678'9ABC'DEF0ull);
  EXPECT_EQ(v.ToHex(), "123456789abcdef0");
  EXPECT_EQ(v.bit_length(), 61u);
  EXPECT_FALSE(v.is_odd());
  EXPECT_TRUE(BigNum(7).is_odd());
}

TEST(BigNumTest, HexRoundTrip) {
  const char* hex = "deadbeefcafebabe0123456789abcdef00ff";
  BigNum v = BigNum::FromHex(hex);
  EXPECT_EQ(v.ToHex(), hex);
}

TEST(BigNumTest, BytesRoundTrip) {
  uint8_t raw[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  BigNum v = BigNum::FromBytes(raw);
  auto bytes = v.ToBytes();
  ASSERT_EQ(bytes.size(), sizeof(raw));
  EXPECT_EQ(0, memcmp(bytes.data(), raw, sizeof(raw)));
}

TEST(BigNumTest, BytesPadded) {
  BigNum v(0xABCD);
  auto bytes = v.ToBytesPadded(8);
  ASSERT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes[0], 0);
  EXPECT_EQ(bytes[6], 0xAB);
  EXPECT_EQ(bytes[7], 0xCD);
}

TEST(BigNumTest, LeadingZeroBytesTrimmed) {
  uint8_t raw[] = {0x00, 0x00, 0x01, 0x02};
  BigNum v = BigNum::FromBytes(raw);
  EXPECT_EQ(v.ToBytes().size(), 2u);
  EXPECT_EQ(v, BigNum(0x0102));
}

TEST(BigNumTest, CompareOrdering) {
  EXPECT_LT(BigNum(1), BigNum(2));
  EXPECT_GT(BigNum::FromHex("100000000"), BigNum(0xFFFFFFFFull));
  EXPECT_EQ(BigNum::Compare(BigNum(5), BigNum(5)), 0);
  EXPECT_LT(BigNum(0), BigNum(1));
}

TEST(BigNumTest, AddWithCarryChains) {
  BigNum a = BigNum::FromHex("ffffffffffffffffffffffffffffffff");
  BigNum sum = BigNum::Add(a, BigNum(1));
  EXPECT_EQ(sum.ToHex(), "100000000000000000000000000000000");
}

TEST(BigNumTest, SubWithBorrowChains) {
  BigNum a = BigNum::FromHex("100000000000000000000000000000000");
  BigNum diff = BigNum::Sub(a, BigNum(1));
  EXPECT_EQ(diff.ToHex(), "ffffffffffffffffffffffffffffffff");
  EXPECT_TRUE(BigNum::Sub(a, a).is_zero());
}

TEST(BigNumTest, MulKnownProduct) {
  BigNum a = BigNum::FromHex("ffffffffffffffff");
  BigNum b = BigNum::FromHex("ffffffffffffffff");
  EXPECT_EQ(BigNum::Mul(a, b).ToHex(), "fffffffffffffffe0000000000000001");
  EXPECT_TRUE(BigNum::Mul(a, BigNum()).is_zero());
  EXPECT_EQ(BigNum::Mul(a, BigNum(1)), a);
}

TEST(BigNumTest, Shifts) {
  BigNum one(1);
  EXPECT_EQ(BigNum::ShiftLeft(one, 100).bit_length(), 101u);
  EXPECT_EQ(BigNum::ShiftRight(BigNum::ShiftLeft(one, 100), 100), one);
  EXPECT_TRUE(BigNum::ShiftRight(one, 1).is_zero());
  EXPECT_EQ(BigNum::ShiftLeft(BigNum(0xFF), 4), BigNum(0xFF0));
  EXPECT_TRUE(BigNum::ShiftRight(BigNum(0xFF), 64).is_zero());
}

TEST(BigNumTest, BitAccess) {
  BigNum v = BigNum::ShiftLeft(BigNum(1), 77);
  EXPECT_TRUE(v.Bit(77));
  EXPECT_FALSE(v.Bit(76));
  EXPECT_FALSE(v.Bit(78));
  EXPECT_FALSE(v.Bit(1000));  // beyond limbs
}

TEST(BigNumTest, DivModSingleLimb) {
  BigNum q, r;
  BigNum::DivMod(BigNum(1000003), BigNum(7), &q, &r);
  EXPECT_EQ(q, BigNum(142857));
  EXPECT_EQ(r, BigNum(4));
}

TEST(BigNumTest, DivModSmallerDividend) {
  BigNum q, r;
  BigNum::DivMod(BigNum(5), BigNum(100), &q, &r);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, BigNum(5));
}

TEST(BigNumTest, DivModMultiLimbKnown) {
  // (2^192 - 1) / (2^64 + 1): exercise Knuth D with a multi-limb divisor.
  BigNum a = BigNum::Sub(BigNum::ShiftLeft(BigNum(1), 192), BigNum(1));
  BigNum b = BigNum::Add(BigNum::ShiftLeft(BigNum(1), 64), BigNum(1));
  BigNum q, r;
  BigNum::DivMod(a, b, &q, &r);
  // Verify the division identity rather than hardcoding digits.
  EXPECT_EQ(BigNum::Add(BigNum::Mul(q, b), r), a);
  EXPECT_LT(r, b);
}

// Property sweep: a = q*b + r with 0 <= r < b across random widths. This is
// the primary correctness certificate for Knuth Algorithm D (including the
// rare add-back branch, which random 32-bit-limb operands do hit).
class BigNumDivisionProperty : public ::testing::TestWithParam<int> {};

TEST_P(BigNumDivisionProperty, DivisionIdentityHolds) {
  para::Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  for (int iter = 0; iter < 200; ++iter) {
    size_t abits = 1 + rng.NextBelow(512);
    size_t bbits = 1 + rng.NextBelow(256);
    BigNum a = BigNum::RandomWithBits(abits, rng);
    BigNum b = BigNum::RandomWithBits(bbits, rng);
    BigNum q, r;
    BigNum::DivMod(a, b, &q, &r);
    EXPECT_EQ(BigNum::Add(BigNum::Mul(q, b), r), a);
    EXPECT_LT(r, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigNumDivisionProperty, ::testing::Range(0, 8));

TEST(BigNumTest, ModExpSmallKnown) {
  // 5^117 mod 19 = 1 (since 5^9 ≡ 1 mod 19 ... verify with a known value).
  EXPECT_EQ(BigNum::ModExp(BigNum(4), BigNum(13), BigNum(497)), BigNum(445));
  EXPECT_EQ(BigNum::ModExp(BigNum(2), BigNum(10), BigNum(10000)), BigNum(1024));
  EXPECT_EQ(BigNum::ModExp(BigNum(7), BigNum(0), BigNum(13)), BigNum(1));
  EXPECT_EQ(BigNum::ModExp(BigNum(7), BigNum(0), BigNum(1)), BigNum(0));
}

// Right-to-left square-and-multiply from Mul and Mod alone, reduced even for
// a zero exponent: the reference ModExp is held to.
BigNum ReferenceModExp(const BigNum& base, const BigNum& exponent, const BigNum& modulus) {
  BigNum result = BigNum::Mod(BigNum(1), modulus);
  BigNum b = BigNum::Mod(base, modulus);
  for (size_t i = 0; i < exponent.bit_length(); ++i) {
    if (exponent.Bit(i)) {
      result = BigNum::Mod(BigNum::Mul(result, b), modulus);
    }
    b = BigNum::Mod(BigNum::Mul(b, b), modulus);
  }
  return result;
}

// Odd moduli take the Montgomery path and even ones the plain one; both must
// agree with the reference at every width from one limb to 2048 bits, at
// the edges of the limb arithmetic (a top limb of all ones, a low limb of
// 1, the modulus 1), for bases of zero, below and above the modulus.
TEST(BigNumTest, ModExpMatchesReference) {
  para::Random rng(0x40D3C9);
  constexpr size_t kLimbBits = 32;
  for (size_t limbs : {1u, 2u, 3u, 8u, 16u, 17u, 33u, 64u}) {
    std::vector<BigNum> moduli;
    for (int shape = 0; shape < 3; ++shape) {
      const size_t low_bits = (limbs - 1) * kLimbBits;
      BigNum m = BigNum::RandomWithBits(limbs * kLimbBits - rng.NextBelow(kLimbBits), rng);
      if (shape == 1) {  // top limb 0xFFFFFFFF
        m = BigNum::Add(BigNum::ShiftLeft(BigNum(0xFFFFFFFFu), low_bits),
                        BigNum::Mod(m, BigNum::ShiftLeft(BigNum(1), low_bits)));
      }
      if (shape == 2) {  // low limb 1 (the modulus 1 itself at one limb)
        m = BigNum::Add(BigNum::ShiftLeft(BigNum::ShiftRight(m, kLimbBits), kLimbBits),
                        BigNum(1));
      }
      BigNum odd = m.is_odd() ? m : BigNum::Add(m, BigNum(1));
      moduli.push_back(odd);
      if (shape != 2) {
        moduli.push_back(m.is_odd() ? BigNum::Add(m, BigNum(1)) : m);
      }
    }
    for (const BigNum& m : moduli) {
      ASSERT_FALSE(m.is_zero());
      std::vector<BigNum> bases = {
          BigNum(), BigNum::RandomBelow(m, rng),
          BigNum::RandomWithBits(m.bit_length() + 1 + rng.NextBelow(64), rng)};
      // Exponents reach 2048 bits up to 4 limbs and shrink with width beyond
      // that, which keeps the Mul/Mod reference affordable.
      const size_t max_bits = std::min<size_t>(2048, 8192 / limbs);
      std::vector<BigNum> exponents = {
          BigNum(), BigNum(1),
          BigNum::Sub(BigNum::ShiftLeft(BigNum(1), 1 + rng.NextBelow(max_bits)), BigNum(1)),
          BigNum::RandomWithBits(1 + rng.NextBelow(max_bits), rng)};
      for (const BigNum& base : bases) {
        for (const BigNum& e : exponents) {
          ASSERT_EQ(BigNum::ModExp(base, e, m), ReferenceModExp(base, e, m))
              << "base " << base.ToHex() << " exponent " << e.ToHex() << " modulus "
              << m.ToHex();
        }
      }
    }
  }
}

TEST(BigNumTest, ModExpFermat) {
  // Fermat: a^(p-1) ≡ 1 mod p for prime p, gcd(a,p)=1.
  BigNum p(1000003);
  for (uint64_t a : {2ull, 3ull, 65537ull}) {
    EXPECT_EQ(BigNum::ModExp(BigNum(a), BigNum(1000002), p), BigNum(1));
  }
}

TEST(BigNumTest, GcdKnown) {
  EXPECT_EQ(BigNum::Gcd(BigNum(48), BigNum(36)), BigNum(12));
  EXPECT_EQ(BigNum::Gcd(BigNum(17), BigNum(13)), BigNum(1));
  EXPECT_EQ(BigNum::Gcd(BigNum(0), BigNum(5)), BigNum(5));
}

TEST(BigNumTest, ModInverseKnown) {
  // 3 * 4 = 12 ≡ 1 mod 11.
  EXPECT_EQ(BigNum::ModInverse(BigNum(3), BigNum(11)), BigNum(4));
  // Non-invertible: gcd(6, 9) = 3.
  EXPECT_TRUE(BigNum::ModInverse(BigNum(6), BigNum(9)).is_zero());
}

TEST(BigNumTest, ModInverseProperty) {
  para::Random rng(42);
  BigNum m = BigNum::FromHex("fffffffffffffffffffffffffffffffeffffffffffffffff");  // odd
  for (int i = 0; i < 50; ++i) {
    BigNum a = BigNum::RandomWithBits(1 + rng.NextBelow(190), rng);
    if (BigNum::Gcd(a, m) != BigNum(1)) {
      continue;
    }
    BigNum inv = BigNum::ModInverse(a, m);
    ASSERT_FALSE(inv.is_zero());
    EXPECT_EQ(BigNum::Mod(BigNum::Mul(a, inv), m), BigNum(1));
  }
}

TEST(BigNumTest, PrimalityKnownPrimes) {
  para::Random rng(1);
  for (uint64_t p : {2ull, 3ull, 5ull, 97ull, 65537ull, 1000003ull, 2147483647ull}) {
    EXPECT_TRUE(BigNum::IsProbablePrime(BigNum(p), 20, rng)) << p;
  }
}

TEST(BigNumTest, PrimalityKnownComposites) {
  para::Random rng(2);
  // Includes Carmichael numbers (561, 1105, 41041), which fool plain Fermat.
  for (uint64_t c : {1ull, 4ull, 561ull, 1105ull, 41041ull, 1000001ull,
                     2147483647ull * 3}) {
    EXPECT_FALSE(BigNum::IsProbablePrime(BigNum(c), 20, rng)) << c;
  }
}

TEST(BigNumTest, GeneratePrimeHasRequestedSize) {
  para::Random rng(3);
  BigNum p = BigNum::GeneratePrime(64, rng);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(BigNum::IsProbablePrime(p, 30, rng));
}

TEST(BigNumTest, RandomBelowStaysBelow) {
  para::Random rng(4);
  BigNum bound = BigNum::FromHex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigNum::RandomBelow(bound, rng), bound);
  }
}

TEST(BigNumTest, RandomWithBitsExact) {
  para::Random rng(5);
  for (size_t bits : {1u, 8u, 31u, 32u, 33u, 64u, 65u, 255u}) {
    EXPECT_EQ(BigNum::RandomWithBits(bits, rng).bit_length(), bits);
  }
}

// Cross-check 64-bit arithmetic against native integers.
TEST(BigNumTest, MatchesNativeArithmetic) {
  para::Random rng(6);
  for (int i = 0; i < 500; ++i) {
    uint64_t a = rng.Next() >> 33;
    uint64_t b = (rng.Next() >> 33) | 1;
    EXPECT_EQ(BigNum::Add(BigNum(a), BigNum(b)), BigNum(a + b));
    EXPECT_EQ(BigNum::Mul(BigNum(a), BigNum(b)), BigNum(a * b));
    EXPECT_EQ(BigNum::Mod(BigNum(a), BigNum(b)), BigNum(a % b));
    if (a >= b) {
      EXPECT_EQ(BigNum::Sub(BigNum(a), BigNum(b)), BigNum(a - b));
    }
  }
}

}  // namespace
}  // namespace para::crypto
