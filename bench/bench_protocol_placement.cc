// E9 — component placement: protocol stack in kernel vs user domain (§1,§3).
//
// The paper's motivating example: "inserting application components for fast
// protocol processing into a shared network device driver." The same
// StackComponent is bound to the driver either directly (same protection
// domain) or through the fault-based proxy; the measured gap in datagram
// throughput is the configurability dividend that certification makes safe
// to claim. BM_StackRxBurst prices the stack's receive body on its own, and
// the FCS and checksum rows the sums every frame pays on that path.
#include <benchmark/benchmark.h>

#include <array>
#include <span>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/log.h"
#include "src/base/random.h"

#include "src/components/net_driver.h"
#include "src/components/protocol_stack.h"
#include "src/net/headers.h"
#include "src/net/pktbuf.h"
#include "src/net/stack.h"
#include "src/nucleus/nucleus.h"

namespace {

// Benchmark output stays clean: suppress the nucleus boot banner.
const bool kQuietLogs = [] {
  para::Logger::Get().set_min_level(para::LogLevel::kError);
  return true;
}();


using namespace para;              // NOLINT
using namespace para::components;  // NOLINT

struct Testbed {
  Testbed() {
    net_a = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n0", 4, 0xAAAA));
    net_b = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n1", 5, 0xBBBB));
    link = machine.AddLink(hw::NetworkLink::Config{.latency = 10, .loss_rate = 0, .seed = 1});
    link->Attach(net_a, net_b);

    nucleus::Nucleus::Config config;
    config.physical_pages = 1024;
    config.authority_key = AuthorityKey();
    nucleus = std::make_unique<nucleus::Nucleus>(&machine, config);
    PARA_CHECK(nucleus->Boot().ok());

    auto* kernel = nucleus->kernel_context();
    auto a = NetDriver::Create(&nucleus->vmem(), &nucleus->events(), net_a, kernel);
    auto b = NetDriver::Create(&nucleus->vmem(), &nucleus->events(), net_b, kernel);
    PARA_CHECK(a.ok() && b.ok());
    driver_a = std::move(*a);
    driver_b = std::move(*b);
    PARA_CHECK(nucleus->directory().Register("/shared/net0", driver_a.get(), kernel).ok());
    PARA_CHECK(nucleus->directory().Register("/shared/net1", driver_b.get(), kernel).ok());
  }

  static const crypto::RsaPublicKey& AuthorityKey() {
    static const crypto::RsaKeyPair keys = [] {
      para::Random rng(0xE9);
      return crypto::GenerateKeyPair(512, rng);
    }();
    return keys.public_key;
  }

  StackComponent::Deps Deps() {
    return StackComponent::Deps{&nucleus->vmem(), &nucleus->events(), &nucleus->directory()};
  }

  hw::Machine machine;
  hw::NetworkDevice* net_a;
  hw::NetworkDevice* net_b;
  hw::NetworkLink* link;
  std::unique_ptr<nucleus::Nucleus> nucleus;
  std::unique_ptr<NetDriver> driver_a;
  std::unique_ptr<NetDriver> driver_b;
};

// Sends `count` datagrams from tx (payload pre-staged at `buf`) and pumps
// until rx has them all.
void PumpDatagrams(Testbed& bed, StackComponent* tx, StackComponent* rx,
                   nucleus::VAddr buf, size_t payload_bytes, int count) {
  obj::Interface* siface = *tx->GetInterface(StackType()->name());
  uint64_t before = rx->stack().stats().datagrams_in;
  for (int i = 0; i < count; ++i) {
    siface->Invoke(0, 0x0A000002, (uint64_t{1} << 16) | 9, buf, payload_bytes);
    bed.machine.Advance(20);
    bed.nucleus->scheduler().RunUntilIdle();
  }
  // Drain stragglers.
  for (int spin = 0; spin < 32 && rx->stack().stats().datagrams_in <
                                      before + static_cast<uint64_t>(count);
       ++spin) {
    bed.machine.Advance(100);
    bed.nucleus->scheduler().RunUntilIdle();
  }
}

void RunPlacement(benchmark::State& state, bool user_placed) {
  Testbed bed;
  auto* kernel = bed.nucleus->kernel_context();
  nucleus::Context* tx_home = user_placed ? bed.nucleus->CreateUserContext("app") : kernel;

  auto tx = StackComponent::Create(bed.Deps(), tx_home, "/shared/net0",
                                   net::StackConfig{0xAAAA, 0x0A000001});
  auto rx = StackComponent::Create(bed.Deps(), kernel, "/shared/net1",
                                   net::StackConfig{0xBBBB, 0x0A000002});
  PARA_CHECK(tx.ok());
  PARA_CHECK(rx.ok());
  (*tx)->stack().AddNeighbor(0x0A000002, 0xBBBB);
  obj::Interface* riface = *(*rx)->GetInterface(StackType()->name());
  PARA_CHECK(riface->Invoke(1, 9) == 0);

  size_t payload = static_cast<size_t>(state.range(0));
  auto buf = bed.nucleus->vmem().AllocatePages(tx_home, 1, nucleus::kProtReadWrite);
  PARA_CHECK(buf.ok());
  std::vector<uint8_t> bytes(payload, 0x42);
  PARA_CHECK(bed.nucleus->vmem().Write(tx_home, *buf, bytes).ok());

  constexpr int kBatch = 32;
  for (auto _ : state) {
    PumpDatagrams(bed, tx->get(), rx->get(), *buf, payload, kBatch);
  }
  uint64_t delivered = (*rx)->stack().stats().datagrams_in;
  state.counters["datagrams"] = static_cast<double>(delivered);
  state.counters["via_proxy"] = (*tx)->bound_via_proxy() ? 1 : 0;
  state.counters["proxy_calls"] =
      static_cast<double>(bed.nucleus->proxies().stats().calls);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBatch *
                          static_cast<int64_t>(payload));
}

void BM_StackInKernel(benchmark::State& state) { RunPlacement(state, /*user_placed=*/false); }

void BM_StackInUserDomain(benchmark::State& state) {
  RunPlacement(state, /*user_placed=*/true);
}

// The stack's receive body alone, no filter: one OnFrameBurst of
// state.range(0) prebuilt 64-B frames, each to one of 64 bound ports picked
// at random; every handler reads its payload.
void BM_StackRxBurst(benchmark::State& state) {
  constexpr net::IpAddr kIp = 0x0A000002;
  constexpr net::MacAddr kMac = 0xBBBB;
  constexpr net::Port kFirstPort = 1000;
  constexpr size_t kPorts = 64;
  constexpr size_t kPayload = 22;  // a 64-B frame less 42 B of headers and FCS
  net::ProtocolStack stack(net::StackConfig{kMac, kIp},
                           [](std::span<const uint8_t>) { return OkStatus(); });
  uint64_t read = 0;
  auto handler = [&read](const net::Datagram& d) {
    read += d.payload.size() + d.payload.data()[0];
  };
  for (size_t p = 0; p < kPorts; ++p) {
    PARA_CHECK(stack.BindPort(static_cast<net::Port>(kFirstPort + p), handler).ok());
  }
  para::Random rng(0x5B);
  std::vector<std::vector<uint8_t>> frames(static_cast<size_t>(state.range(0)));
  for (std::vector<uint8_t>& frame : frames) {
    const std::vector<uint8_t> payload(kPayload, static_cast<uint8_t>(rng.Next()));
    const auto src_port = static_cast<net::Port>(1024 + rng.NextBelow(60000));
    const auto dst_port = static_cast<net::Port>(kFirstPort + rng.NextBelow(kPorts));
    const uint32_t src_ip = 0x0A010000u | static_cast<uint32_t>(rng.NextBelow(1u << 16));
    net::PacketBuffer packet;
    packet.Append(payload);
    net::UdpEncap(packet, net::UdpHeader{src_port, dst_port, 0});
    net::IpEncap(packet, net::IpHeader{64, net::kIpProtoUdpLite, src_ip, kIp, 0});
    net::EthEncap(packet, net::EthHeader{kMac, 0xAAAA, net::kEtherTypeIpLite});
    frame.assign(packet.data().begin(), packet.data().end());
    PARA_CHECK(frame.size() == 64);
  }
  const std::vector<std::span<const uint8_t>> burst(frames.begin(), frames.end());
  for (auto _ : state) {
    stack.OnFrameBurst(burst);
  }
  benchmark::DoNotOptimize(read);
  const auto packets = static_cast<int64_t>(state.iterations()) * state.range(0);
  PARA_CHECK(stack.stats().datagrams_in == static_cast<uint64_t>(packets));
  state.SetItemsProcessed(packets);
}

// The frame check sequence, at the rx_* frame size (60 B), the mean
// wire_mix frame (361 B) and a near-MTU frame (1326 B): the Crc32 every
// encap and decap runs (folded where the host has PCLMULQDQ), the portable
// sliced loop every other host runs, and the one-table bytewise loop (kept
// here only as the reference row).
uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
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
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// The classic two-bytes-at-a-time Internet checksum, the reference row for
// the word-wide InternetChecksum.
uint16_t BytewiseInternetChecksum(std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

std::vector<uint8_t> CrcInput(size_t len) {
  para::Random rng(0xFC5);
  std::vector<uint8_t> data(len);
  for (uint8_t& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data = CrcInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_Crc32Sliced(benchmark::State& state) {
  std::vector<uint8_t> data = CrcInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32Final(Crc32UpdateSliced(Crc32Init(), data)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_Crc32Bytewise(benchmark::State& state) {
  std::vector<uint8_t> data = CrcInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BytewiseCrc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

// The Internet checksum over the UDP datagram of an rx_* frame (30 B), of the
// mean wire_mix frame (327 B) and of a 1280-B wire_mix payload (1288 B):
// UdpEncap and UdpDecap sum the whole datagram, IpEncap and IpDecap the 16-B
// header.
void BM_InternetChecksum(benchmark::State& state) {
  std::vector<uint8_t> data = CrcInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::InternetChecksum(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_InternetChecksumBytewise(benchmark::State& state) {
  std::vector<uint8_t> data = CrcInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BytewiseInternetChecksum(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

BENCHMARK(BM_Crc32)->Arg(60)->Arg(361)->Arg(1326);
BENCHMARK(BM_Crc32Sliced)->Arg(60)->Arg(361)->Arg(1326);
BENCHMARK(BM_Crc32Bytewise)->Arg(60)->Arg(361)->Arg(1326);
BENCHMARK(BM_InternetChecksum)->Arg(30)->Arg(327)->Arg(1288);
BENCHMARK(BM_InternetChecksumBytewise)->Arg(30)->Arg(327)->Arg(1288);
BENCHMARK(BM_StackRxBurst)->Arg(32);
BENCHMARK(BM_StackInKernel)->Arg(64)->Arg(512)->Arg(1280);
BENCHMARK(BM_StackInUserDomain)->Arg(64)->Arg(512)->Arg(1280);

}  // namespace

BENCHMARK_MAIN();
