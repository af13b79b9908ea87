#include "src/crypto/bignum.h"

#include <algorithm>
#include <bit>

#include "src/base/log.h"

namespace para::crypto {

namespace {
constexpr size_t kLimbBits = 32;
}  // namespace

BigNum::BigNum(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value));
    if (value >> 32) {
      limbs_.push_back(static_cast<uint32_t>(value >> 32));
    }
  }
}

void BigNum::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigNum BigNum::FromBytes(std::span<const uint8_t> bytes) {
  BigNum out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  // bytes are big-endian; limb 0 is least significant.
  for (size_t i = 0; i < bytes.size(); ++i) {
    size_t byte_index = bytes.size() - 1 - i;  // position from LSB
    out.limbs_[i / 4] |= uint32_t{bytes[byte_index]} << (8 * (i % 4));
  }
  out.Trim();
  return out;
}

std::vector<uint8_t> BigNum::ToBytes() const {
  size_t bits = bit_length();
  size_t len = (bits + 7) / 8;
  return ToBytesPadded(len);
}

std::vector<uint8_t> BigNum::ToBytesPadded(size_t len) const {
  std::vector<uint8_t> out(len, 0);
  for (size_t i = 0; i < len; ++i) {
    size_t limb = i / 4;
    if (limb >= limbs_.size()) {
      break;
    }
    uint8_t byte = static_cast<uint8_t>(limbs_[limb] >> (8 * (i % 4)));
    out[len - 1 - i] = byte;
  }
  return out;
}

BigNum BigNum::FromHex(const std::string& hex) {
  BigNum out;
  for (char c : hex) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      continue;  // allow separators
    }
    out = Add(Mul(out, BigNum(16)), BigNum(digit));
  }
  return out;
}

std::string BigNum::ToHex() const {
  if (is_zero()) {
    return "0";
  }
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      uint32_t nibble = (limbs_[i] >> shift) & 0xF;
      if (leading && nibble == 0) {
        continue;
      }
      leading = false;
      out += kDigits[nibble];
    }
  }
  return out;
}

BigNum BigNum::RandomWithBits(size_t bits, para::Random& rng) {
  PARA_CHECK(bits > 0);
  BigNum out;
  size_t limbs = (bits + kLimbBits - 1) / kLimbBits;
  out.limbs_.resize(limbs);
  for (auto& limb : out.limbs_) {
    limb = rng.Next32();
  }
  size_t top_bit = (bits - 1) % kLimbBits;
  // Clear bits above `bits`, force the top bit.
  out.limbs_.back() &= (top_bit == 31) ? ~uint32_t{0} : ((uint32_t{1} << (top_bit + 1)) - 1);
  out.limbs_.back() |= uint32_t{1} << top_bit;
  out.Trim();
  return out;
}

BigNum BigNum::RandomBelow(const BigNum& bound, para::Random& rng) {
  PARA_CHECK(!bound.is_zero());
  size_t bits = bound.bit_length();
  for (;;) {
    BigNum candidate;
    size_t limbs = (bits + kLimbBits - 1) / kLimbBits;
    candidate.limbs_.resize(limbs);
    for (auto& limb : candidate.limbs_) {
      limb = rng.Next32();
    }
    size_t extra = limbs * kLimbBits - bits;
    if (extra > 0) {
      candidate.limbs_.back() >>= extra;
    }
    candidate.Trim();
    if (Compare(candidate, bound) < 0) {
      return candidate;
    }
  }
}

size_t BigNum::bit_length() const {
  if (limbs_.empty()) {
    return 0;
  }
  return (limbs_.size() - 1) * kLimbBits +
         (kLimbBits - static_cast<size_t>(std::countl_zero(limbs_.back())));
}

bool BigNum::Bit(size_t index) const {
  size_t limb = index / kLimbBits;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (index % kLimbBits)) & 1u;
}

int BigNum::Compare(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigNum BigNum::Add(const BigNum& a, const BigNum& b) {
  BigNum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) {
      sum += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      sum += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Trim();
  return out;
}

BigNum BigNum::Sub(const BigNum& a, const BigNum& b) {
  PARA_CHECK(Compare(a, b) >= 0);
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow -
                   (i < b.limbs_.size() ? static_cast<int64_t>(b.limbs_[i]) : 0);
    if (diff < 0) {
      diff += int64_t{1} << kLimbBits;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  PARA_CHECK(borrow == 0);
  out.Trim();
  return out;
}

BigNum BigNum::Mul(const BigNum& a, const BigNum& b) {
  if (a.is_zero() || b.is_zero()) {
    return BigNum();
  }
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] +
                     static_cast<uint64_t>(a.limbs_[i]) * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> kLimbBits;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.Trim();
  return out;
}

BigNum BigNum::ShiftLeft(const BigNum& a, size_t bits) {
  if (a.is_zero()) {
    return BigNum();
  }
  size_t limb_shift = bits / kLimbBits;
  size_t bit_shift = bits % kLimbBits;
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> kLimbBits);
  }
  out.Trim();
  return out;
}

BigNum BigNum::ShiftRight(const BigNum& a, size_t bits) {
  size_t limb_shift = bits / kLimbBits;
  size_t bit_shift = bits % kLimbBits;
  if (limb_shift >= a.limbs_.size()) {
    return BigNum();
  }
  BigNum out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1]) << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

// Knuth TAOCP vol. 2, Algorithm D (4.3.1). Normalizes the divisor so its top
// limb has the high bit set, then estimates quotient digits with a two-limb
// trial division, correcting with the add-back step.
void BigNum::DivMod(const BigNum& a, const BigNum& b, BigNum* quotient, BigNum* remainder) {
  PARA_CHECK(!b.is_zero());
  if (Compare(a, b) < 0) {
    if (quotient != nullptr) {
      *quotient = BigNum();
    }
    if (remainder != nullptr) {
      *remainder = a;
    }
    return;
  }
  if (b.limbs_.size() == 1) {
    // Single-limb fast path.
    uint64_t divisor = b.limbs_[0];
    BigNum q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << kLimbBits) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    q.Trim();
    if (quotient != nullptr) {
      *quotient = std::move(q);
    }
    if (remainder != nullptr) {
      *remainder = BigNum(rem);
    }
    return;
  }

  size_t shift = static_cast<size_t>(std::countl_zero(b.limbs_.back()));
  BigNum u = ShiftLeft(a, shift);
  BigNum v = ShiftLeft(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 limbs

  BigNum q;
  q.limbs_.assign(m + 1, 0);

  uint64_t v_top = v.limbs_[n - 1];
  uint64_t v_second = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numerator = (static_cast<uint64_t>(u.limbs_[j + n]) << kLimbBits) |
                         u.limbs_[j + n - 1];
    uint64_t qhat = numerator / v_top;
    uint64_t rhat = numerator % v_top;
    while (qhat >= (uint64_t{1} << kLimbBits) ||
           qhat * v_second > ((rhat << kLimbBits) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= (uint64_t{1} << kLimbBits)) {
        break;
      }
    }

    // u[j..j+n] -= qhat * v
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v.limbs_[i] + carry;
      carry = product >> kLimbBits;
      int64_t diff = static_cast<int64_t>(u.limbs_[i + j]) -
                     static_cast<int64_t>(product & 0xFFFFFFFFu) - borrow;
      if (diff < 0) {
        diff += int64_t{1} << kLimbBits;
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t top = static_cast<int64_t>(u.limbs_[j + n]) - static_cast<int64_t>(carry) - borrow;
    if (top < 0) {
      // qhat was one too large: add back.
      top += int64_t{1} << kLimbBits;
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + add_carry;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        add_carry = sum >> kLimbBits;
      }
      top += static_cast<int64_t>(add_carry);
      top &= (int64_t{1} << kLimbBits) - 1;
    }
    u.limbs_[j + n] = static_cast<uint32_t>(top);
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  q.Trim();
  if (quotient != nullptr) {
    *quotient = std::move(q);
  }
  if (remainder != nullptr) {
    u.limbs_.resize(n);
    u.Trim();
    *remainder = ShiftRight(u, shift);
  }
}

BigNum BigNum::Mod(const BigNum& a, const BigNum& m) {
  BigNum remainder;
  DivMod(a, m, nullptr, &remainder);
  return remainder;
}

namespace {

// -m^-1 mod 2^32 for odd m: Newton's iteration doubles the correct low bits
// each step, starting from the 3 that x = m already has (m*m == 1 mod 8).
uint32_t MontgomeryFactor(uint32_t m0) {
  uint32_t x = m0;
  for (int i = 0; i < 4; ++i) {
    x *= 2 - m0 * x;
  }
  return 0u - x;
}

// out = a * b * R^-1 mod m with R = 2^(32n), for n-limb operands below m.
// Each of the n steps adds a*b[i] and q*m (q chosen so the low limb
// cancels) to t and shifts t down a limb, in one pass with a carry chain
// per product. Every uint64_t sum is at most (2^32 - 1) + (2^32 - 1)^2 +
// (2^32 - 1) = 2^64 - 1, so none overflows. `t` is n + 1 limbs of scratch;
// `out` may alias `a` or `b`.
void MontMul(const uint32_t* a, const uint32_t* b, const uint32_t* m, uint32_t m_factor,
             size_t n, uint32_t* t, uint32_t* out) {
  std::fill(t, t + n + 1, 0u);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bi = b[i];
    uint64_t ab = t[0] + a[0] * bi;
    const uint64_t q = static_cast<uint32_t>(ab) * m_factor;  // wraps mod 2^32
    uint64_t qm = static_cast<uint32_t>(ab) + q * m[0];  // low limb 0 by choice of q
    uint64_t ab_carry = ab >> kLimbBits;
    uint64_t qm_carry = qm >> kLimbBits;
    for (size_t j = 1; j < n; ++j) {
      ab = t[j] + a[j] * bi + ab_carry;
      ab_carry = ab >> kLimbBits;
      qm = static_cast<uint32_t>(ab) + q * m[j] + qm_carry;
      qm_carry = qm >> kLimbBits;
      t[j - 1] = static_cast<uint32_t>(qm);
    }
    ab = t[n] + ab_carry;
    qm = static_cast<uint32_t>(ab) + qm_carry;
    t[n - 1] = static_cast<uint32_t>(qm);
    t[n] = static_cast<uint32_t>((ab >> kLimbBits) + (qm >> kLimbBits));
  }
  // t < 2m, so one conditional subtraction lands it in [0, m): keep t - m
  // unless it borrows past t's top limb, i.e. t < m.
  int64_t borrow = 0;
  for (size_t j = 0; j < n; ++j) {
    int64_t diff = static_cast<int64_t>(t[j]) - m[j] - borrow;
    borrow = diff < 0 ? 1 : 0;
    out[j] = static_cast<uint32_t>(diff);
  }
  if (borrow != 0 && t[n] == 0) {
    std::copy(t, t + n, out);
  }
}

}  // namespace

BigNum BigNum::ModExp(const BigNum& base, const BigNum& exponent, const BigNum& modulus) {
  PARA_CHECK(!modulus.is_zero());
  if (exponent.is_zero()) {
    return Mod(BigNum(1), modulus);
  }
  if (!modulus.is_odd()) {
    // Montgomery reduction needs an odd modulus; plain square-and-multiply.
    BigNum result(1);
    BigNum b = Mod(base, modulus);
    size_t bits = exponent.bit_length();
    for (size_t i = 0; i < bits; ++i) {
      if (exponent.Bit(i)) {
        result = Mod(Mul(result, b), modulus);
      }
      b = Mod(Mul(b, b), modulus);
    }
    return result;
  }

  // Left-to-right square-and-multiply in Montgomery form: one division to
  // enter (b*R mod m), one MontMul by 1 to leave, and no allocation between.
  const size_t n = modulus.limbs_.size();
  const uint32_t* m = modulus.limbs_.data();
  const uint32_t m_factor = MontgomeryFactor(m[0]);
  BigNum entered = Mod(ShiftLeft(base, n * kLimbBits), modulus);
  // Scratch: [b*R | accumulator | MontMul temporary (n + 1)].
  std::vector<uint32_t> scratch(3 * n + 1, 0);
  uint32_t* b = scratch.data();
  uint32_t* acc = b + n;
  uint32_t* t = acc + n;
  std::copy(entered.limbs_.begin(), entered.limbs_.end(), b);
  std::copy(b, b + n, acc);  // the exponent's top bit
  for (size_t i = exponent.bit_length() - 1; i-- > 0;) {
    MontMul(acc, acc, m, m_factor, n, t, acc);
    if (exponent.Bit(i)) {
      MontMul(acc, b, m, m_factor, n, t, acc);
    }
  }
  // Leave Montgomery form: acc * 1 * R^-1.
  std::fill(b, b + n, 0u);
  b[0] = 1;
  BigNum result;
  result.limbs_.resize(n);
  MontMul(acc, b, m, m_factor, n, t, result.limbs_.data());
  result.Trim();
  return result;
}

BigNum BigNum::Gcd(const BigNum& a, const BigNum& b) {
  BigNum x = a;
  BigNum y = b;
  while (!y.is_zero()) {
    BigNum r = Mod(x, y);
    x = y;
    y = r;
  }
  return x;
}

BigNum BigNum::ModInverse(const BigNum& a, const BigNum& m) {
  // Iterative extended Euclid tracking only the coefficient of `a`, with sign
  // handled separately (limbs are unsigned).
  BigNum r0 = Mod(a, m);
  BigNum r1 = m;
  BigNum t0(1);
  bool t0_neg = false;
  BigNum t1;
  bool t1_neg = false;

  if (r0.is_zero()) {
    return BigNum();
  }

  // Maintain: t0 * a == r0 (mod m), t1 * a == r1 (mod m).
  while (!r1.is_zero()) {
    BigNum q, r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 with explicit sign arithmetic.
    BigNum qt = Mul(q, t1);
    BigNum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: result is a true subtraction.
      if (Compare(t0, qt) >= 0) {
        t2 = Sub(t0, qt);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }

  if (Compare(r0, BigNum(1)) != 0) {
    return BigNum();  // not invertible
  }
  BigNum inv = Mod(t0, m);
  if (t0_neg && !inv.is_zero()) {
    inv = Sub(m, inv);
  }
  return inv;
}

bool BigNum::IsProbablePrime(const BigNum& n, int rounds, para::Random& rng) {
  if (n < BigNum(2)) {
    return false;
  }
  static const uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31,
                                          37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                                          83, 89, 97, 101, 103, 107, 109, 113};
  for (uint32_t p : kSmallPrimes) {
    BigNum bp(p);
    if (Compare(n, bp) == 0) {
      return true;
    }
    if (Mod(n, bp).is_zero()) {
      return false;
    }
  }

  // n - 1 = d * 2^s with d odd.
  BigNum n_minus_1 = Sub(n, BigNum(1));
  BigNum d = n_minus_1;
  size_t s = 0;
  while (!d.is_odd()) {
    d = ShiftRight(d, 1);
    ++s;
  }

  BigNum two(2);
  for (int round = 0; round < rounds; ++round) {
    // Witness in [2, n-2].
    BigNum a = Add(RandomBelow(Sub(n, BigNum(3)), rng), two);
    BigNum x = ModExp(a, d, n);
    if (Compare(x, BigNum(1)) == 0 || Compare(x, n_minus_1) == 0) {
      continue;
    }
    bool composite = true;
    for (size_t i = 0; i + 1 < s && composite; ++i) {
      x = Mod(Mul(x, x), n);
      if (Compare(x, n_minus_1) == 0) {
        composite = false;
      }
    }
    if (composite) {
      return false;
    }
  }
  return true;
}

BigNum BigNum::GeneratePrime(size_t bits, para::Random& rng) {
  PARA_CHECK(bits >= 8);
  for (;;) {
    BigNum candidate = RandomWithBits(bits, rng);
    if (!candidate.is_odd()) {
      candidate = Add(candidate, BigNum(1));
    }
    if (IsProbablePrime(candidate, 20, rng)) {
      return candidate;
    }
  }
}

}  // namespace para::crypto
