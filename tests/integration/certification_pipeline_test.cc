// Integration: the full §4 pipeline — authority, ordered delegates with the
// escape hatch, repository images, and kernel-vs-user loading. Also the SFI
// contrast: the same logical component admitted to the kernel only when
// certified, or run sandboxed when not.
#include <gtest/gtest.h>

#include "src/sfi/assembler.h"
#include "src/sfi/component.h"
#include "tests/components/test_fixture.h"

namespace para {
namespace {

using namespace para::nucleus;  // NOLINT
using para::testing::NucleusFixture;

const obj::TypeInfo* FilterType() {
  static const obj::TypeInfo type("test.pktfilter", 1, {"classify"});
  return &type;
}

class CertPipelineTest : public NucleusFixture {
 protected:
  CertPipelineTest() {
    para::Random rng(0x5EED);
    prover_keys_ = crypto::GenerateKeyPair(512, rng);
    admin_keys_ = crypto::GenerateKeyPair(512, rng);

    CertificationAuthority authority(AuthorityKeys());
    // Ordered delegates: a fussy automated prover, then the administrator.
    prover_ = std::make_unique<Certifier>(
        "prover", prover_keys_,
        authority.Grant("prover", prover_keys_.public_key, kCertKernelEligible),
        [](const std::string& name, std::span<const uint8_t>, uint32_t) {
          // The prover only manages small proofs: components with "simple"
          // in the name.
          if (name.find("simple") != std::string::npos) {
            return OkStatus();
          }
          return Status(ErrorCode::kUnavailable, "cannot complete the proof");
        });
    admin_ = std::make_unique<Certifier>(
        "admin", admin_keys_,
        authority.Grant("admin", admin_keys_.public_key,
                        kCertKernelEligible | kCertDriverClass),
        [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
    chain_.Add(prover_.get());
    chain_.Add(admin_.get());

    EXPECT_TRUE(nucleus_->certification().RegisterGrant(prover_->grant()).ok());
    EXPECT_TRUE(nucleus_->certification().RegisterGrant(admin_->grant()).ok());

    // A packet-filter component in SFI bytecode: classify(len) -> accept if
    // len < 1500.
    auto program = sfi::Assembler::Assemble(R"(
      ldarg 0
      push 1500
      ltu
      retv
    )");
    EXPECT_TRUE(program.ok());
    program_ = std::move(*program);

    EXPECT_TRUE(nucleus_->repository()
                    .RegisterFactory("pktfilter.trusted",
                                     [this](Context*) {
                                       auto c = sfi::SfiComponent::Create(
                                           program_, FilterType(), sfi::ExecMode::kTrusted);
                                       return c.ok() ? std::move(*c) : nullptr;
                                     })
                    .ok());
  }

  ComponentImage MakeImage(const std::string& name, bool certify) {
    ComponentImage image;
    image.name = name;
    image.version = 1;
    image.factory = "pktfilter.trusted";
    image.code = program_.code;
    if (certify) {
      auto cert = chain_.Certify(name, 1, image.code, kCertKernelEligible, 42);
      EXPECT_TRUE(cert.ok());
      image.certificate = cert->Serialize();
    }
    return image;
  }

  crypto::RsaKeyPair prover_keys_;
  crypto::RsaKeyPair admin_keys_;
  std::unique_ptr<Certifier> prover_;
  std::unique_ptr<Certifier> admin_;
  CertifierChain chain_;
  sfi::Program program_;
};

TEST_F(CertPipelineTest, SimpleComponentCertifiedByProver) {
  auto image = MakeImage("simple-filter", true);
  ASSERT_TRUE(nucleus_->repository().Store(image).ok());
  auto loaded = nucleus_->loader().Load("simple-filter", nucleus_->kernel_context(),
                                        "/kernel/simple-filter");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(prover_->issued(), 1u);
  EXPECT_EQ(admin_->issued(), 0u);
}

TEST_F(CertPipelineTest, EscapeHatchFallsBackToAdmin) {
  auto image = MakeImage("gnarly-filter", true);
  ASSERT_TRUE(nucleus_->repository().Store(image).ok());
  auto loaded = nucleus_->loader().Load("gnarly-filter", nucleus_->kernel_context(),
                                        "/kernel/gnarly-filter");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(prover_->issued(), 0u);
  EXPECT_EQ(prover_->attempts(), 1u);
  EXPECT_EQ(admin_->issued(), 1u);
}

TEST_F(CertPipelineTest, UncertifiedComponentStaysOutOfKernel) {
  auto image = MakeImage("rogue-filter", false);
  ASSERT_TRUE(nucleus_->repository().Store(image).ok());
  auto kernel_load = nucleus_->loader().Load("rogue-filter", nucleus_->kernel_context(),
                                             "/kernel/rogue-filter");
  EXPECT_FALSE(kernel_load.ok());
  // But the user may run it in its own domain.
  Context* user = nucleus_->CreateUserContext("app");
  auto user_load = nucleus_->loader().Load("rogue-filter", user, "/app/rogue-filter");
  EXPECT_TRUE(user_load.ok());
}

TEST_F(CertPipelineTest, LoadedComponentActuallyRuns) {
  auto image = MakeImage("simple-filter", true);
  ASSERT_TRUE(nucleus_->repository().Store(image).ok());
  auto loaded = nucleus_->loader().Load("simple-filter", nucleus_->kernel_context(),
                                        "/kernel/filter");
  ASSERT_TRUE(loaded.ok());
  auto binding = nucleus_->directory().Bind("/kernel/filter", nucleus_->kernel_context());
  ASSERT_TRUE(binding.ok());
  auto iface = binding->object->GetInterface(FilterType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(0, 512), 1u);    // small frame: accept
  EXPECT_EQ((*iface)->Invoke(0, 9000), 0u);   // jumbo: reject
}

TEST_F(CertPipelineTest, RepeatedKernelLoadsHitBothCaches) {
  // The load-and-cache contract on the nucleus path: the first kernel load
  // pays full certificate validation; loading the same certified image again
  // skips the RSA work (the validation cache, keyed by program identity).
  // Each load verifies its own instance of the bytecode.
  auto image = MakeImage("simple-filter", true);
  ASSERT_TRUE(nucleus_->repository().Store(image).ok());

  ASSERT_TRUE(nucleus_->loader()
                  .Load("simple-filter", nucleus_->kernel_context(), "/kernel/filter-a")
                  .ok());
  EXPECT_EQ(nucleus_->certification().stats().cache_hits, 0u);

  ASSERT_TRUE(nucleus_->loader()
                  .Load("simple-filter", nucleus_->kernel_context(), "/kernel/filter-b")
                  .ok());
  EXPECT_EQ(nucleus_->certification().stats().cache_hits, 1u);

  // Both instances are live, distinct objects.
  auto a = nucleus_->directory().Bind("/kernel/filter-a", nucleus_->kernel_context());
  auto b = nucleus_->directory().Bind("/kernel/filter-b", nucleus_->kernel_context());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->object, b->object);
}

TEST_F(CertPipelineTest, TamperedImageRejectedAtLoad) {
  auto image = MakeImage("simple-filter", true);
  image.code.push_back(0x00);  // modify the code after certification
  ASSERT_TRUE(nucleus_->repository().Store(image).ok());
  auto loaded = nucleus_->loader().Load("simple-filter", nucleus_->kernel_context(),
                                        "/kernel/tampered");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(nucleus_->certification().stats().rejected_digest, 1u);
}

TEST_F(CertPipelineTest, CertifiedAndSandboxedAgreeOnBehavior) {
  // The paper's efficiency claim only matters because the two execution
  // modes are semantically identical: verify that here.
  auto trusted = sfi::SfiComponent::Create(program_, FilterType(), sfi::ExecMode::kTrusted);
  auto sandboxed =
      sfi::SfiComponent::Create(program_, FilterType(), sfi::ExecMode::kSandboxed);
  ASSERT_TRUE(trusted.ok());
  ASSERT_TRUE(sandboxed.ok());
  auto ti = (*trusted)->GetInterface(FilterType()->name());
  auto si = (*sandboxed)->GetInterface(FilterType()->name());
  ASSERT_TRUE(ti.ok());
  ASSERT_TRUE(si.ok());
  for (uint64_t len : {0u, 100u, 1499u, 1500u, 65535u}) {
    EXPECT_EQ((*ti)->Invoke(0, len), (*si)->Invoke(0, len)) << len;
  }
  // ...but only the sandbox pays run-time checks.
  EXPECT_EQ((*trusted)->vm().stats().bounds_checks, 0u);
}

}  // namespace
}  // namespace para
