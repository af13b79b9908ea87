#include "src/crypto/rsa.h"

#include <gtest/gtest.h>

#include "src/base/hexdump.h"
#include "src/base/random.h"

namespace para::crypto {
namespace {

// Key generation is the slow part; share one pair across tests.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    para::Random rng(0xC0FFEE);
    keys_ = new RsaKeyPair(GenerateKeyPair(512, rng));
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }

  static RsaKeyPair* keys_;
};

RsaKeyPair* RsaTest::keys_ = nullptr;

TEST_F(RsaTest, KeyShape) {
  EXPECT_EQ(keys_->public_key.modulus.bit_length(), 512u);
  EXPECT_EQ(keys_->public_key.exponent, BigNum(65537));
  EXPECT_EQ(keys_->public_key.modulus, keys_->private_key.modulus);
  EXPECT_EQ(keys_->public_key.modulus_bytes(), 64u);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Digest digest = Sha256::HashString("certify me");
  auto signature = Sign(keys_->private_key, digest);
  EXPECT_EQ(signature.size(), keys_->public_key.modulus_bytes());
  EXPECT_TRUE(Verify(keys_->public_key, digest, signature).ok());
}

TEST_F(RsaTest, TamperedDigestFails) {
  Digest digest = Sha256::HashString("original");
  auto signature = Sign(keys_->private_key, digest);
  Digest other = Sha256::HashString("tampered");
  auto status = Verify(keys_->public_key, other, signature);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), para::ErrorCode::kCertificateInvalid);
}

TEST_F(RsaTest, TamperedSignatureFails) {
  Digest digest = Sha256::HashString("payload");
  auto signature = Sign(keys_->private_key, digest);
  signature[10] ^= 0x40;
  EXPECT_FALSE(Verify(keys_->public_key, digest, signature).ok());
}

TEST_F(RsaTest, WrongLengthSignatureFails) {
  Digest digest = Sha256::HashString("payload");
  auto signature = Sign(keys_->private_key, digest);
  signature.pop_back();
  EXPECT_FALSE(Verify(keys_->public_key, digest, signature).ok());
}

TEST_F(RsaTest, SignatureOutOfRangeFails) {
  Digest digest = Sha256::HashString("payload");
  // All-FF "signature" >= modulus must be rejected before exponentiation.
  std::vector<uint8_t> bogus(keys_->public_key.modulus_bytes(), 0xFF);
  EXPECT_FALSE(Verify(keys_->public_key, digest, bogus).ok());
}

TEST_F(RsaTest, WrongKeyFails) {
  para::Random rng(0xBEEF);
  RsaKeyPair other = GenerateKeyPair(512, rng);
  Digest digest = Sha256::HashString("payload");
  auto signature = Sign(keys_->private_key, digest);
  EXPECT_FALSE(Verify(other.public_key, digest, signature).ok());
}

TEST_F(RsaTest, FingerprintStableAndDistinct) {
  para::Random rng(0xDEAD);
  RsaKeyPair other = GenerateKeyPair(512, rng);
  EXPECT_TRUE(DigestEqual(keys_->public_key.Fingerprint(), keys_->public_key.Fingerprint()));
  EXPECT_FALSE(DigestEqual(keys_->public_key.Fingerprint(), other.public_key.Fingerprint()));
}

TEST_F(RsaTest, DeterministicSignatures) {
  Digest digest = Sha256::HashString("same input");
  EXPECT_EQ(Sign(keys_->private_key, digest), Sign(keys_->private_key, digest));
}

TEST(RsaKeygenTest, DistinctSeedsDistinctKeys) {
  para::Random rng1(1), rng2(2);
  RsaKeyPair a = GenerateKeyPair(256, rng1);
  RsaKeyPair b = GenerateKeyPair(256, rng2);
  EXPECT_NE(a.public_key.modulus, b.public_key.modulus);
}

// Keys and signatures are pure functions of the seed and the digest. These
// values come from a square-and-multiply ModExp with a division per step,
// independent of the Montgomery one; the seeds are the end-to-end bench's.
TEST(RsaKeygenTest, FixedSeedsGiveKnownKeysAndSignatures) {
  para::Random authority_rng(0xA07704177);
  para::Random delegate_rng(0x5EED);
  RsaKeyPair authority = GenerateKeyPair(512, authority_rng);
  RsaKeyPair delegate = GenerateKeyPair(512, delegate_rng);
  EXPECT_EQ(authority.public_key.modulus.ToHex(),
            "8f4fe063d5b78a0c0a8d7bcf6ec6b6cadee3c9f787f52550a62e6cde4f83b419"
            "be85b231c6002df91fe7cd57c66fb30f6bd3bd03ca51e2bc50be48ba41adc609");
  EXPECT_EQ(delegate.public_key.modulus.ToHex(),
            "85e4b35f6fd9ce24b68553c26d870f5ee5f46e6a43bee5b321a75ad2761c8776"
            "c2daa250ef00cb55d8e717b169adf59d125071d5b150b0fdfeae1dd84488fea5");
  Digest digest = Sha256::HashString("paramecium");
  EXPECT_EQ(para::HexEncode(Sign(authority.private_key, digest)),
            "4a907856430ecb0eb1d177d0a37e7c1621abe7a4909849bc525cf57610f5d083"
            "ba1285a700676e3dda83f2f5846aaa308e893cb202f58c994be60ed9c0963945");
  EXPECT_EQ(para::HexEncode(Sign(delegate.private_key, digest)),
            "78bc987c73d790446d89d247fef1df811fd5b4b509a554cd78fa48f7d2943b00"
            "4eabbdbfdf7eba9173d84b0ff4a2e90c44451ac0b5de80eda9654b1252867244");
}

TEST(RsaKeygenTest, ModulusTooShortForPaddingIsRejected) {
  // 32 bytes cannot hold the 39-byte padded digest. Verify sees keys from
  // registered grants and signatures from outside, so it must refuse, not
  // abort.
  para::Random rng(0x5407);
  RsaKeyPair keys = GenerateKeyPair(256, rng);
  ASSERT_EQ(keys.public_key.modulus_bytes(), 32u);
  std::vector<uint8_t> signature(32, 0x01);  // below any 256-bit modulus
  auto status = Verify(keys.public_key, Sha256::HashString("x"), signature);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), para::ErrorCode::kCertificateInvalid);
}

TEST(RsaKeygenTest, SmallKeysWork) {
  // 384 bits is the smallest modulus that fits the padded SHA-256 block.
  para::Random rng(99);
  RsaKeyPair keys = GenerateKeyPair(384, rng);
  Digest digest = Sha256::HashString("x");
  EXPECT_TRUE(Verify(keys.public_key, digest, Sign(keys.private_key, digest)).ok());
}

}  // namespace
}  // namespace para::crypto
