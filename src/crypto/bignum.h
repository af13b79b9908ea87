// Arbitrary-precision unsigned integers, from scratch, sized for RSA
// (512-2048 bit moduli). 32-bit limbs, little-endian limb order, uint64_t
// intermediates; division is Knuth Algorithm D. Only the operations the
// certification service needs are provided.
#ifndef PARAMECIUM_SRC_CRYPTO_BIGNUM_H_
#define PARAMECIUM_SRC_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/random.h"

namespace para::crypto {

class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(uint64_t value);

  // Big-endian byte deserialization/serialization (network/certificate order).
  static BigNum FromBytes(std::span<const uint8_t> bytes);
  std::vector<uint8_t> ToBytes() const;               // minimal length
  std::vector<uint8_t> ToBytesPadded(size_t len) const;  // left-zero-padded to len

  static BigNum FromHex(const std::string& hex);
  std::string ToHex() const;

  // Uniformly random value with exactly `bits` bits (top bit set).
  static BigNum RandomWithBits(size_t bits, para::Random& rng);
  // Uniformly random value in [0, bound).
  static BigNum RandomBelow(const BigNum& bound, para::Random& rng);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  size_t bit_length() const;
  bool Bit(size_t index) const;

  uint32_t LowWord() const { return limbs_.empty() ? 0 : limbs_[0]; }

  // Comparison: <0, 0, >0 like memcmp.
  static int Compare(const BigNum& a, const BigNum& b);
  bool operator==(const BigNum& other) const { return Compare(*this, other) == 0; }
  bool operator!=(const BigNum& other) const { return Compare(*this, other) != 0; }
  bool operator<(const BigNum& other) const { return Compare(*this, other) < 0; }
  bool operator<=(const BigNum& other) const { return Compare(*this, other) <= 0; }
  bool operator>(const BigNum& other) const { return Compare(*this, other) > 0; }
  bool operator>=(const BigNum& other) const { return Compare(*this, other) >= 0; }

  static BigNum Add(const BigNum& a, const BigNum& b);
  // Requires a >= b.
  static BigNum Sub(const BigNum& a, const BigNum& b);
  static BigNum Mul(const BigNum& a, const BigNum& b);
  // Knuth Algorithm D; quotient and remainder. b must be non-zero.
  static void DivMod(const BigNum& a, const BigNum& b, BigNum* quotient, BigNum* remainder);
  static BigNum Mod(const BigNum& a, const BigNum& m);

  static BigNum ShiftLeft(const BigNum& a, size_t bits);
  static BigNum ShiftRight(const BigNum& a, size_t bits);

  // (base ^ exponent) mod modulus, always reduced (so modulus 1 gives 0).
  // An odd modulus (every RSA modulus and Miller-Rabin candidate) runs
  // Montgomery multiplication over one scratch buffer per call: a division
  // to enter Montgomery form, a multiply to leave it, and no allocation or
  // division per step. An even modulus falls back to square-and-multiply
  // with a Knuth reduction per multiply.
  static BigNum ModExp(const BigNum& base, const BigNum& exponent, const BigNum& modulus);
  // Multiplicative inverse of a mod m (extended Euclid); returns zero when
  // gcd(a, m) != 1.
  static BigNum ModInverse(const BigNum& a, const BigNum& m);
  static BigNum Gcd(const BigNum& a, const BigNum& b);

  // Miller-Rabin probabilistic primality, `rounds` random bases.
  static bool IsProbablePrime(const BigNum& n, int rounds, para::Random& rng);
  // Random prime with exactly `bits` bits.
  static BigNum GeneratePrime(size_t bits, para::Random& rng);

 private:
  void Trim();

  std::vector<uint32_t> limbs_;  // little-endian; no trailing zero limbs
};

}  // namespace para::crypto

#endif  // PARAMECIUM_SRC_CRYPTO_BIGNUM_H_
