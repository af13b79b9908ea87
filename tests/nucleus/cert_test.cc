#include "src/nucleus/cert.h"

#include <gtest/gtest.h>

#include "src/base/random.h"

namespace para::nucleus {
namespace {

// Shared fixture: key generation is expensive, do it once.
class CertTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    para::Random rng(2025);
    authority_ = new CertificationAuthority(crypto::GenerateKeyPair(512, rng));
    prover_keys_ = new crypto::RsaKeyPair(crypto::GenerateKeyPair(512, rng));
    admin_keys_ = new crypto::RsaKeyPair(crypto::GenerateKeyPair(512, rng));
    rogue_keys_ = new crypto::RsaKeyPair(crypto::GenerateKeyPair(512, rng));
  }
  static void TearDownTestSuite() {
    delete authority_;
    delete prover_keys_;
    delete admin_keys_;
    delete rogue_keys_;
  }

  static std::vector<uint8_t> Code(const std::string& text) {
    return std::vector<uint8_t>(text.begin(), text.end());
  }

  static CertificationAuthority* authority_;
  static crypto::RsaKeyPair* prover_keys_;
  static crypto::RsaKeyPair* admin_keys_;
  static crypto::RsaKeyPair* rogue_keys_;
};

CertificationAuthority* CertTest::authority_ = nullptr;
crypto::RsaKeyPair* CertTest::prover_keys_ = nullptr;
crypto::RsaKeyPair* CertTest::admin_keys_ = nullptr;
crypto::RsaKeyPair* CertTest::rogue_keys_ = nullptr;

CertifierPolicy AcceptAll() {
  return [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); };
}

CertifierPolicy RejectAll(const char* why = "cannot complete the proof") {
  return [why](const std::string&, std::span<const uint8_t>, uint32_t) {
    return Status(ErrorCode::kUnavailable, why);
  };
}

TEST_F(CertTest, CertificateSerializationRoundTrip) {
  Certificate cert;
  cert.component_name = "net.stack";
  cert.version = 3;
  cert.code_digest = crypto::Sha256::HashString("code");
  cert.signer = crypto::Sha256::HashString("signer");
  cert.flags = kCertKernelEligible | kCertDriverClass;
  cert.issued_at = 12345;
  cert.signature = {1, 2, 3, 4};

  auto wire = cert.Serialize();
  auto parsed = Certificate::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->component_name, cert.component_name);
  EXPECT_EQ(parsed->version, cert.version);
  EXPECT_TRUE(crypto::DigestEqual(parsed->code_digest, cert.code_digest));
  EXPECT_EQ(parsed->flags, cert.flags);
  EXPECT_EQ(parsed->issued_at, cert.issued_at);
  EXPECT_EQ(parsed->signature, cert.signature);
}

TEST_F(CertTest, MalformedCertificateRejected) {
  EXPECT_FALSE(Certificate::Deserialize(std::vector<uint8_t>{1, 2, 3}).ok());
  Certificate cert;
  cert.component_name = "x";
  auto wire = cert.Serialize();
  wire.push_back(0);  // trailing garbage
  EXPECT_FALSE(Certificate::Deserialize(wire).ok());
}

TEST_F(CertTest, EndToEndCertifyAndValidate) {
  Certifier prover("prover", *prover_keys_,
                   authority_->Grant("prover", prover_keys_->public_key, kCertKernelEligible),
                   AcceptAll());
  CertificationService service(authority_->public_key());
  ASSERT_TRUE(service.RegisterGrant(prover.grant()).ok());

  auto code = Code("trusted component body");
  auto cert = prover.Certify("comp", 1, code, kCertKernelEligible, 1000);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(service.Validate(*cert, code).ok());
  EXPECT_TRUE(service.ValidateForKernel(*cert, code).ok());
  EXPECT_EQ(service.stats().accepted, 2u);
}

TEST_F(CertTest, ModifiedComponentRejected) {
  // "Certificates include a message digest of the component so that it is
  // impossible to modify the component after it has been certified."
  Certifier prover("prover", *prover_keys_,
                   authority_->Grant("prover", prover_keys_->public_key, kCertKernelEligible),
                   AcceptAll());
  CertificationService service(authority_->public_key());
  ASSERT_TRUE(service.RegisterGrant(prover.grant()).ok());

  auto code = Code("original body");
  auto cert = prover.Certify("comp", 1, code, kCertKernelEligible, 1);
  ASSERT_TRUE(cert.ok());
  auto tampered = Code("original bodY");
  auto status = service.Validate(*cert, tampered);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(service.stats().rejected_digest, 1u);
}

TEST_F(CertTest, UnknownSignerRejected) {
  Certifier rogue("rogue", *rogue_keys_,
                  authority_->Grant("rogue", rogue_keys_->public_key, kCertKernelEligible),
                  AcceptAll());
  CertificationService service(authority_->public_key());
  // The rogue's grant was never registered with the kernel.
  auto code = Code("body");
  auto cert = rogue.Certify("comp", 1, code, kCertKernelEligible, 1);
  ASSERT_TRUE(cert.ok());
  EXPECT_FALSE(service.Validate(*cert, code).ok());
  EXPECT_EQ(service.stats().rejected_signer, 1u);
}

TEST_F(CertTest, ForgedGrantRejected) {
  // A grant signed by someone other than the authority must not register.
  para::Random rng(777);
  CertificationAuthority fake(crypto::GenerateKeyPair(512, rng));
  DelegationGrant forged = fake.Grant("evil", rogue_keys_->public_key, kCertKernelEligible);
  CertificationService service(authority_->public_key());
  EXPECT_FALSE(service.RegisterGrant(forged).ok());
}

TEST_F(CertTest, FlagsBoundedByDelegation) {
  // The delegate may only issue flags within its grant.
  Certifier limited("tester", *prover_keys_,
                    authority_->Grant("tester", prover_keys_->public_key, kCertDriverClass),
                    AcceptAll());
  auto code = Code("body");
  auto too_much = limited.Certify("comp", 1, code, kCertKernelEligible, 1);
  EXPECT_FALSE(too_much.ok());
  EXPECT_EQ(too_much.status().code(), ErrorCode::kPermissionDenied);

  // And a certificate whose flags exceed the registered grant is rejected at
  // validation even if the delegate misbehaves.
  Certificate cheat;
  cheat.component_name = "comp";
  cheat.version = 1;
  cheat.code_digest = ComponentDigest("comp", 1, code);
  cheat.signer = prover_keys_->public_key.Fingerprint();
  cheat.flags = kCertKernelEligible;
  crypto::Digest digest = crypto::Sha256::Hash(cheat.SignedBytes());
  cheat.signature = crypto::Sign(prover_keys_->private_key, digest);

  CertificationService service(authority_->public_key());
  ASSERT_TRUE(service.RegisterGrant(
      authority_->Grant("tester", prover_keys_->public_key, kCertDriverClass)).ok());
  EXPECT_FALSE(service.Validate(cheat, code).ok());
  EXPECT_EQ(service.stats().rejected_flags, 1u);
}

TEST_F(CertTest, KernelEligibilityRequired) {
  Certifier prover("prover", *prover_keys_,
                   authority_->Grant("prover", prover_keys_->public_key,
                                     kCertKernelEligible | kCertDriverClass),
                   AcceptAll());
  CertificationService service(authority_->public_key());
  ASSERT_TRUE(service.RegisterGrant(prover.grant()).ok());
  auto code = Code("driver");
  auto cert = prover.Certify("comp", 1, code, kCertDriverClass, 1);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(service.Validate(*cert, code).ok());
  auto kernel = service.ValidateForKernel(*cert, code);
  EXPECT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.code(), ErrorCode::kPermissionDenied);
}

TEST_F(CertTest, EscapeHatchFallsThroughDelegates) {
  // "When the automatic program correctness prover decides that it cannot
  // complete the proof, it might turn the problem over to the system
  // administrator."
  Certifier prover("prover", *prover_keys_,
                   authority_->Grant("prover", prover_keys_->public_key, kCertKernelEligible),
                   RejectAll());
  Certifier admin("admin", *admin_keys_,
                  authority_->Grant("admin", admin_keys_->public_key, kCertKernelEligible),
                  AcceptAll());
  CertifierChain chain;
  chain.Add(&prover);
  chain.Add(&admin);

  auto code = Code("tricky component");
  auto cert = chain.Certify("comp", 1, code, kCertKernelEligible, 1);
  ASSERT_TRUE(cert.ok());
  EXPECT_EQ(prover.attempts(), 1u);
  EXPECT_EQ(prover.issued(), 0u);
  EXPECT_EQ(admin.issued(), 1u);
  // The certificate chains to the admin's key.
  EXPECT_TRUE(crypto::DigestEqual(cert->signer, admin_keys_->public_key.Fingerprint()));
}

TEST_F(CertTest, ChainFailsWhenAllDelegatesRefuse) {
  Certifier a("a", *prover_keys_,
              authority_->Grant("a", prover_keys_->public_key, kCertKernelEligible),
              RejectAll());
  Certifier b("b", *admin_keys_,
              authority_->Grant("b", admin_keys_->public_key, kCertKernelEligible),
              RejectAll("still no"));
  CertifierChain chain;
  chain.Add(&a);
  chain.Add(&b);
  auto code = Code("bad component");
  auto cert = chain.Certify("comp", 1, code, kCertKernelEligible, 1);
  EXPECT_FALSE(cert.ok());
  EXPECT_EQ(a.attempts(), 1u);
  EXPECT_EQ(b.attempts(), 1u);
}

TEST_F(CertTest, EmptyChainUnavailable) {
  CertifierChain chain;
  auto cert = chain.Certify("comp", 1, Code("x"), 0, 1);
  EXPECT_FALSE(cert.ok());
  EXPECT_EQ(cert.status().code(), ErrorCode::kUnavailable);
}

TEST_F(CertTest, PolicyDecidesPerComponent) {
  // A "trusted compiler" delegate that only certifies components whose code
  // identity carries its stamp — the SPIN-style delegation of §5.
  CertifierPolicy compiler_policy = [](const std::string&, std::span<const uint8_t> code,
                                       uint32_t) {
    const std::string stamp = "typesafe:";
    if (code.size() >= stamp.size() &&
        std::equal(stamp.begin(), stamp.end(), code.begin())) {
      return OkStatus();
    }
    return Status(ErrorCode::kPermissionDenied, "not produced by the trusted compiler");
  };
  Certifier compiler("compiler", *prover_keys_,
                     authority_->Grant("compiler", prover_keys_->public_key,
                                       kCertKernelEligible),
                     compiler_policy);
  EXPECT_TRUE(compiler.Certify("good", 1, Code("typesafe:abc"), kCertKernelEligible, 1).ok());
  EXPECT_FALSE(compiler.Certify("bad", 1, Code("handwritten"), kCertKernelEligible, 1).ok());
}

TEST_F(CertTest, ShortDelegateKeyRejectsCertificatesInsteadOfAborting) {
  // The authority may grant a key too short to hold a padded digest. A
  // certificate naming it is outside input: it must be rejected, never
  // allowed to take the nucleus down.
  para::Random rng(0x5407);
  crypto::RsaKeyPair short_keys = crypto::GenerateKeyPair(256, rng);
  CertificationService service(authority_->public_key());
  DelegationGrant grant = authority_->Grant("short", short_keys.public_key, kCertKernelEligible);
  ASSERT_TRUE(service.RegisterGrant(grant).ok());

  auto code = Code("body");
  Certificate cert;
  cert.component_name = "comp";
  cert.version = 1;
  cert.code_digest = ComponentDigest(cert.component_name, cert.version, code);
  cert.signer = short_keys.public_key.Fingerprint();
  cert.flags = kCertKernelEligible;
  cert.signature.assign(short_keys.public_key.modulus_bytes(), 0x01);  // below the modulus
  auto status = service.Validate(cert, code);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kCertificateInvalid);
  EXPECT_EQ(service.stats().rejected_signature, 1u);
}

TEST_F(CertTest, DuplicateGrantRejected) {
  CertificationService service(authority_->public_key());
  auto grant = authority_->Grant("x", prover_keys_->public_key, 0);
  EXPECT_TRUE(service.RegisterGrant(grant).ok());
  EXPECT_FALSE(service.RegisterGrant(grant).ok());
}

TEST_F(CertTest, ComponentDigestBindsNameAndVersion) {
  auto code = Code("same bytes");
  auto d1 = ComponentDigest("a", 1, code);
  auto d2 = ComponentDigest("b", 1, code);
  auto d3 = ComponentDigest("a", 2, code);
  EXPECT_FALSE(crypto::DigestEqual(d1, d2));
  EXPECT_FALSE(crypto::DigestEqual(d1, d3));
}

}  // namespace
}  // namespace para::nucleus
