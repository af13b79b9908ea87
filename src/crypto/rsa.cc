#include "src/crypto/rsa.h"

#include <cstring>

#include "src/base/log.h"

namespace para::crypto {

namespace {

// DigestInfo-style marker distinguishing "SHA-256 digest" payloads. (A real
// PKCS#1 encoding embeds an ASN.1 AlgorithmIdentifier; a fixed 4-byte marker
// carries the same tamper-evidence with none of the DER machinery.)
constexpr uint8_t kSha256Marker[4] = {0x53, 0x32, 0x35, 0x36};  // "S256"

// The shortest padded block, 00 01 00 marker digest with no FF run: 39 bytes.
constexpr size_t kMinPaddedBytes = 3 + sizeof(kSha256Marker) + sizeof(Digest);

// Builds 00 01 FF..FF 00 marker digest, `len` bytes total.
std::vector<uint8_t> PadDigest(const Digest& digest, size_t len) {
  PARA_CHECK(len >= kMinPaddedBytes);
  std::vector<uint8_t> out(len, 0xFF);
  out[0] = 0x00;
  out[1] = 0x01;
  size_t payload = digest.size() + sizeof(kSha256Marker);
  out[len - payload - 1] = 0x00;
  std::memcpy(&out[len - payload], kSha256Marker, sizeof(kSha256Marker));
  std::memcpy(&out[len - digest.size()], digest.data(), digest.size());
  return out;
}

}  // namespace

Digest RsaPublicKey::Fingerprint() const {
  Sha256 h;
  auto n_bytes = modulus.ToBytes();
  auto e_bytes = exponent.ToBytes();
  h.Update(n_bytes);
  h.Update(e_bytes);
  return h.Finish();
}

RsaKeyPair GenerateKeyPair(size_t bits, para::Random& rng) {
  PARA_CHECK(bits >= 128);
  const BigNum e(65537);
  for (;;) {
    BigNum p = BigNum::GeneratePrime(bits / 2, rng);
    BigNum q = BigNum::GeneratePrime(bits - bits / 2, rng);
    if (p == q) {
      continue;
    }
    BigNum n = BigNum::Mul(p, q);
    BigNum phi = BigNum::Mul(BigNum::Sub(p, BigNum(1)), BigNum::Sub(q, BigNum(1)));
    if (BigNum::Gcd(e, phi) != BigNum(1)) {
      continue;  // e not coprime with phi; re-draw primes
    }
    BigNum d = BigNum::ModInverse(e, phi);
    if (d.is_zero()) {
      continue;
    }
    RsaKeyPair pair;
    pair.public_key = RsaPublicKey{n, e};
    pair.private_key = RsaPrivateKey{n, d};
    return pair;
  }
}

std::vector<uint8_t> Sign(const RsaPrivateKey& key, const Digest& digest) {
  size_t len = (key.modulus.bit_length() + 7) / 8;
  std::vector<uint8_t> padded = PadDigest(digest, len);
  BigNum m = BigNum::FromBytes(padded);
  BigNum s = BigNum::ModExp(m, key.exponent, key.modulus);
  return s.ToBytesPadded(len);
}

para::Status Verify(const RsaPublicKey& key, const Digest& digest,
                    std::span<const uint8_t> signature) {
  size_t len = key.modulus_bytes();
  // A key too short for the padded digest can verify nothing. The key comes
  // from a registered grant and the signature from outside, so this is a
  // rejection, not a check failure.
  if (len < kMinPaddedBytes) {
    return para::Status(para::ErrorCode::kCertificateInvalid, "modulus too short");
  }
  if (signature.size() != len) {
    return para::Status(para::ErrorCode::kCertificateInvalid, "signature length mismatch");
  }
  BigNum s = BigNum::FromBytes(signature);
  if (s >= key.modulus) {
    return para::Status(para::ErrorCode::kCertificateInvalid, "signature out of range");
  }
  BigNum m = BigNum::ModExp(s, key.exponent, key.modulus);
  std::vector<uint8_t> recovered = m.ToBytesPadded(len);
  std::vector<uint8_t> expected = PadDigest(digest, len);
  // Constant-time compare over the full encoded block.
  uint8_t diff = 0;
  for (size_t i = 0; i < len; ++i) {
    diff |= static_cast<uint8_t>(recovered[i] ^ expected[i]);
  }
  if (diff != 0) {
    return para::Status(para::ErrorCode::kCertificateInvalid, "bad signature");
  }
  return para::OkStatus();
}

}  // namespace para::crypto
