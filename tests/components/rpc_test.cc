// RPC component tests — the paper's §2 example object, including the
// measurement-interface evolution scenario verbatim.
#include "src/components/rpc.h"

#include <gtest/gtest.h>

#include "src/components/net_driver.h"
#include "tests/components/test_fixture.h"

namespace para::components {
namespace {

using para::testing::NucleusFixture;

class RpcTest : public NucleusFixture {
 protected:
  void SetUp() override {
    auto* kernel = nucleus_->kernel_context();
    auto da = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
    auto db = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_b_, kernel);
    ASSERT_TRUE(da.ok() && db.ok());
    driver_a_ = std::move(*da);
    driver_b_ = std::move(*db);
    ASSERT_TRUE(nucleus_->directory().Register("/net/a", driver_a_.get(), kernel).ok());
    ASSERT_TRUE(nucleus_->directory().Register("/net/b", driver_b_.get(), kernel).ok());

    StackComponent::Deps deps{&nucleus_->vmem(), &nucleus_->events(),
                              &nucleus_->directory()};
    auto client_stack =
        StackComponent::Create(deps, kernel, "/net/a", net::StackConfig{0xAAAA, 0x0A000001});
    auto server_stack =
        StackComponent::Create(deps, kernel, "/net/b", net::StackConfig{0xBBBB, 0x0A000002});
    ASSERT_TRUE(client_stack.ok() && server_stack.ok());
    client_stack_ = std::move(*client_stack);
    server_stack_ = std::move(*server_stack);
    client_stack_->stack().AddNeighbor(0x0A000002, 0xBBBB);
    server_stack_->stack().AddNeighbor(0x0A000001, 0xAAAA);

    RpcComponent::Config client_config;
    client_config.local_port = 700;
    client_config.peer_ip = 0x0A000002;
    client_config.peer_port = 800;
    auto client = RpcComponent::Create(&nucleus_->vmem(), &nucleus_->scheduler(),
                                       client_stack_.get(), client_config);
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);

    RpcComponent::Config server_config;
    server_config.local_port = 800;
    auto server = RpcComponent::Create(&nucleus_->vmem(), &nucleus_->scheduler(),
                                       server_stack_.get(), server_config);
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);

    // Echo and sum procedures.
    ASSERT_TRUE(server_->RegisterProcedure(1, [](std::span<const uint8_t> req)
                                                  -> Result<std::vector<uint8_t>> {
      return std::vector<uint8_t>(req.begin(), req.end());
    }).ok());
    ASSERT_TRUE(server_->RegisterProcedure(2, [](std::span<const uint8_t> req)
                                                  -> Result<std::vector<uint8_t>> {
      uint64_t sum = 0;
      for (uint8_t b : req) {
        sum += b;
      }
      return std::vector<uint8_t>{static_cast<uint8_t>(sum), static_cast<uint8_t>(sum >> 8)};
    }).ok());
    ASSERT_TRUE(server_->RegisterProcedure(9, [](std::span<const uint8_t>)
                                                  -> Result<std::vector<uint8_t>> {
      return Status(ErrorCode::kInternal, "deliberate failure");
    }).ok());
  }

  // Runs `fn` on a scheduler thread with the machine pumping virtual time.
  void OnThread(std::function<void()> fn) {
    nucleus_->scheduler().Spawn("rpc-client", std::move(fn));
    nucleus_->Run();
  }

  std::unique_ptr<NetDriver> driver_a_;
  std::unique_ptr<NetDriver> driver_b_;
  std::unique_ptr<StackComponent> client_stack_;
  std::unique_ptr<StackComponent> server_stack_;
  std::unique_ptr<RpcComponent> client_;
  std::unique_ptr<RpcComponent> server_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  OnThread([&]() {
    std::vector<uint8_t> request = {'h', 'i', '!'};
    auto reply = client_->Call(1, request);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply, request);
  });
  EXPECT_EQ(client_->stats().calls, 1u);
  EXPECT_EQ(client_->stats().replies, 1u);
  EXPECT_EQ(server_->stats().server_requests, 1u);
}

TEST_F(RpcTest, ComputationProcedure) {
  OnThread([&]() {
    std::vector<uint8_t> request = {100, 200, 255};
    auto reply = client_->Call(2, request);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->size(), 2u);
    EXPECT_EQ((*reply)[0] | ((*reply)[1] << 8), 555);
  });
}

TEST_F(RpcTest, UnknownProcedureFails) {
  OnThread([&]() {
    auto reply = client_->Call(77, std::vector<uint8_t>{1});
    EXPECT_FALSE(reply.ok());
  });
  EXPECT_EQ(server_->stats().server_errors, 1u);
}

TEST_F(RpcTest, RemoteFailurePropagates) {
  OnThread([&]() {
    auto reply = client_->Call(9, std::vector<uint8_t>{});
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), ErrorCode::kFailedPrecondition);
  });
}

TEST_F(RpcTest, SequentialCallsMatchXids) {
  OnThread([&]() {
    for (uint8_t i = 0; i < 10; ++i) {
      std::vector<uint8_t> request = {i};
      auto reply = client_->Call(1, request);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(*reply, request);
    }
  });
  EXPECT_EQ(client_->stats().replies, 10u);
}

TEST_F(RpcTest, ConcurrentCallersAreDemultiplexed) {
  std::vector<int> completed;
  for (int i = 0; i < 4; ++i) {
    nucleus_->scheduler().Spawn("caller", [&, i]() {
      std::vector<uint8_t> request = {static_cast<uint8_t>(i * 11)};
      auto reply = client_->Call(1, request);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(*reply, request);  // each caller gets its own reply
      completed.push_back(i);
    });
  }
  nucleus_->Run();
  EXPECT_EQ(completed.size(), 4u);
}

TEST_F(RpcTest, BlockingProcedureKeepsItsRequestWhileTheNextOneArrives) {
  // Procedure 10 sleeps before it echoes, which promotes its RX pop-up; the
  // second caller's request lands in the server stack's RX page meanwhile.
  // The sleeper must still echo its own request.
  ASSERT_TRUE(server_->RegisterProcedure(10, [this](std::span<const uint8_t> req)
                                                   -> Result<std::vector<uint8_t>> {
    nucleus_->scheduler().Sleep(1'000'000);
    return std::vector<uint8_t>(req.begin(), req.end());
  }).ok());
  const std::vector<uint8_t> slow = {'s', 'l', 'o', 'w'};
  const std::vector<uint8_t> fast = {'F', 'A', 'S', 'T'};
  std::vector<uint8_t> slow_reply;
  std::vector<uint8_t> fast_reply;
  nucleus_->scheduler().Spawn("slow", [&]() {
    auto reply = client_->Call(10, slow);
    ASSERT_TRUE(reply.ok());
    slow_reply = *reply;
  });
  nucleus_->scheduler().Spawn("fast", [&]() {
    auto reply = client_->Call(1, fast);
    ASSERT_TRUE(reply.ok());
    fast_reply = *reply;
  });
  nucleus_->Run();
  EXPECT_EQ(fast_reply, fast);
  EXPECT_EQ(slow_reply, slow);
  EXPECT_EQ(server_->stats().server_requests, 2u);
}

TEST_F(RpcTest, InterfaceSlotCall) {
  // Drive the RPC through the uniform interface convention.
  auto iface = client_->GetInterface(RpcType()->name());
  ASSERT_TRUE(iface.ok());
  auto buf = nucleus_->vmem().AllocatePages(nucleus_->kernel_context(), 1,
                                            nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  std::vector<uint8_t> request = {9, 8, 7};
  ASSERT_TRUE(nucleus_->vmem().Write(nucleus_->kernel_context(), *buf, request).ok());

  uint64_t reply_len = 0;
  OnThread([&]() { reply_len = (*iface)->Invoke(0, 1, *buf, 3, nucleus::kPageSize); });
  ASSERT_EQ(reply_len, 3u);
  std::vector<uint8_t> reply(3);
  ASSERT_TRUE(nucleus_->vmem().Read(nucleus_->kernel_context(), *buf, reply).ok());
  EXPECT_EQ(reply, request);
}

TEST_F(RpcTest, MeasurementInterfaceEvolution) {
  // §2 verbatim: the RPC object grew a measurement interface; RPC clients
  // did not have to change, and monitoring tools can now observe it.
  auto rpc_iface = client_->GetInterface(RpcType()->name());
  auto measure = client_->GetInterface(MeasurementType()->name());
  ASSERT_TRUE(rpc_iface.ok());
  ASSERT_TRUE(measure.ok());
  EXPECT_EQ((*measure)->Invoke(0), 0u);

  OnThread([&]() { (void)client_->Call(1, std::vector<uint8_t>{1}); });
  OnThread([&]() { (void)client_->Call(1, std::vector<uint8_t>{2}); });

  EXPECT_EQ((*measure)->Invoke(0), 2u);  // invocations observed
  EXPECT_EQ((*measure)->Invoke(1), 0u);  // reset
  EXPECT_EQ((*measure)->Invoke(0), 0u);

  // The server side's measurement interface counts served requests.
  auto server_measure = server_->GetInterface(MeasurementType()->name());
  ASSERT_TRUE(server_measure.ok());
  EXPECT_GE((*server_measure)->Invoke(0), 2u);
}

TEST_F(RpcTest, TimeoutWhenPeerSilent) {
  // Point the client at a port nobody serves: the reply never comes; the
  // call must end in a bounded timeout, not a hang.
  RpcComponent::Config config;
  config.local_port = 701;
  config.peer_ip = 0x0A000002;
  config.peer_port = 9999;  // unserved
  config.call_timeout = 100'000;
  auto lonely = RpcComponent::Create(&nucleus_->vmem(), &nucleus_->scheduler(),
                                     client_stack_.get(), config);
  ASSERT_TRUE(lonely.ok());
  OnThread([&]() {
    auto reply = (*lonely)->Call(1, std::vector<uint8_t>{1});
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  });
  EXPECT_EQ((*lonely)->stats().timeouts, 1u);
}

TEST_F(RpcTest, DuplicatePortAndProcedureRejected) {
  EXPECT_FALSE(server_->RegisterProcedure(1, [](std::span<const uint8_t>)
                                                 -> Result<std::vector<uint8_t>> {
    return std::vector<uint8_t>{};
  }).ok());
  RpcComponent::Config config;
  config.local_port = 800;  // taken by server_
  auto clash = RpcComponent::Create(&nucleus_->vmem(), &nucleus_->scheduler(),
                                    server_stack_.get(), config);
  EXPECT_FALSE(clash.ok());
}

}  // namespace
}  // namespace para::components
