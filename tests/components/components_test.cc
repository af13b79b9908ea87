// Toolbox component tests: allocator, matrix, interposers, thread package,
// console/timer/network drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/components/allocator.h"
#include "src/components/console_driver.h"
#include "src/components/interposer.h"
#include "src/components/matrix.h"
#include "src/components/net_driver.h"
#include "src/components/thread_pkg.h"
#include "src/components/timer_driver.h"
#include "tests/components/test_fixture.h"

namespace para::components {
namespace {

using para::testing::NucleusFixture;

class ComponentsTest : public NucleusFixture {};

TEST_F(ComponentsTest, AllocatorAllocAndFree) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 4);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());

  uint64_t a = (*iface)->Invoke(0, 100);
  uint64_t b = (*iface)->Invoke(0, 200);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_GE((*iface)->Invoke(2), 300u);     // allocated_bytes
  EXPECT_EQ((*iface)->Invoke(3), 2u);        // block_count
  EXPECT_EQ((*iface)->Invoke(1, a), 0u);     // free
  EXPECT_EQ((*iface)->Invoke(1, a), ~uint64_t{0});  // double free detected
  EXPECT_EQ((*iface)->Invoke(3), 1u);
}

TEST_F(ComponentsTest, AllocatorMemoryIsUsable) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 4);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t addr = (*iface)->Invoke(0, 64);
  ASSERT_NE(addr, 0u);
  ASSERT_TRUE(nucleus_->vmem().WriteU64(nucleus_->kernel_context(), addr, 0xCAFE).ok());
  auto value = nucleus_->vmem().ReadU64(nucleus_->kernel_context(), addr);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xCAFEu);
}

TEST_F(ComponentsTest, AllocatorExhaustionReturnsZero) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 1);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(0, 8192), 0u);  // larger than the region
}

TEST_F(ComponentsTest, AllocatorCoalescesFreeBlocks) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 1);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());
  // Fill the whole page with four 1 KiB blocks, free them all, then the
  // full page must be allocatable again (requires coalescing).
  uint64_t blocks[4];
  for (auto& block : blocks) {
    block = (*iface)->Invoke(0, 1024);
    ASSERT_NE(block, 0u);
  }
  EXPECT_EQ((*iface)->Invoke(0, 16), 0u);  // exhausted
  for (auto& block : blocks) {
    EXPECT_EQ((*iface)->Invoke(1, block), 0u);
  }
  EXPECT_NE((*iface)->Invoke(0, 4096), 0u);
}

TEST_F(ComponentsTest, MatrixCreateSetGet) {
  MatrixComponent matrices;
  auto iface = matrices.GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t m = (*iface)->Invoke(0, 2, 2);
  ASSERT_NE(m, 0u);
  (*iface)->Invoke(2, m, 0, DoubleToBits(1.5));
  (*iface)->Invoke(2, m, 3, DoubleToBits(2.5));
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(3, m, 0)), 1.5);
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(3, m, 3)), 2.5);
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(5, m)), 4.0);  // sum
  EXPECT_EQ((*iface)->Invoke(1, m), 0u);                        // destroy
  EXPECT_EQ((*iface)->Invoke(1, m), ~uint64_t{0});
}

TEST_F(ComponentsTest, MatrixMultiply) {
  MatrixComponent matrices;
  auto iface = matrices.GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t a = (*iface)->Invoke(0, 2, 3);
  uint64_t b = (*iface)->Invoke(0, 3, 2);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]].
  for (int i = 0; i < 6; ++i) {
    (*iface)->Invoke(2, a, i, DoubleToBits(1.0 + i));
    (*iface)->Invoke(2, b, i, DoubleToBits(7.0 + i));
  }
  uint64_t c = (*iface)->Invoke(4, a, b);
  ASSERT_NE(c, 0u);
  auto at = [&](size_t idx) { return BitsToDouble((*iface)->Invoke(3, c, idx)); };
  EXPECT_DOUBLE_EQ(at(0), 58.0);
  EXPECT_DOUBLE_EQ(at(1), 64.0);
  EXPECT_DOUBLE_EQ(at(2), 139.0);
  EXPECT_DOUBLE_EQ(at(3), 154.0);
}

TEST_F(ComponentsTest, MatrixDimensionMismatch) {
  MatrixComponent matrices;
  auto iface = matrices.GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t a = (*iface)->Invoke(0, 2, 3);
  uint64_t b = (*iface)->Invoke(0, 2, 3);
  EXPECT_EQ((*iface)->Invoke(4, a, b), 0u);
  EXPECT_EQ((*iface)->Invoke(0, 0, 5), 0u);  // zero dimension
}

TEST_F(ComponentsTest, NetDriverSendsAndReceives) {
  auto* vmem = &nucleus_->vmem();
  auto* kernel = nucleus_->kernel_context();
  auto driver_a = NetDriver::Create(vmem, &nucleus_->events(), net_a_, kernel);
  auto driver_b = NetDriver::Create(vmem, &nucleus_->events(), net_b_, kernel);
  ASSERT_TRUE(driver_a.ok());
  ASSERT_TRUE(driver_b.ok());

  auto iface_a = (*driver_a)->GetInterface(NetDriverType()->name());
  auto iface_b = (*driver_b)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface_a.ok());
  ASSERT_TRUE(iface_b.ok());

  EXPECT_EQ((*iface_a)->Invoke(2), 0xAAAAu);  // get_mac

  // Stage a payload in kernel memory and send it.
  auto buf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  const char msg[] = "over the wire";
  ASSERT_TRUE(vmem->Write(kernel, *buf,
                          std::span<const uint8_t>(
                              reinterpret_cast<const uint8_t*>(msg), sizeof(msg)))
                  .ok());
  EXPECT_EQ((*iface_a)->Invoke(0, *buf, sizeof(msg)), 0u);

  // Let the frame cross the link; the RX interrupt fires driver B's pop-up.
  machine_.Advance(200);
  Settle();

  auto rxbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(rxbuf.ok());
  uint64_t len = (*iface_b)->Invoke(1, *rxbuf, nucleus::kPageSize);
  ASSERT_EQ(len, sizeof(msg));
  char out[sizeof(msg)] = {};
  ASSERT_TRUE(vmem->Read(kernel, *rxbuf,
                         std::span<uint8_t>(reinterpret_cast<uint8_t*>(out), sizeof(out)))
                  .ok());
  EXPECT_STREQ(out, msg);
  // Stats flow through.
  EXPECT_EQ((*iface_a)->Invoke(5, 0), 1u);  // tx
  EXPECT_EQ((*iface_b)->Invoke(5, 1), 1u);  // rx
}

TEST_F(ComponentsTest, NetDriverFramesCrossTheWireByteExact) {
  // Odd lengths cover the tail of a frame that is not a whole number of
  // 32-bit words; 2048 is the largest frame the device carries.
  auto* vmem = &nucleus_->vmem();
  auto* kernel = nucleus_->kernel_context();
  auto driver_a = NetDriver::Create(vmem, &nucleus_->events(), net_a_, kernel);
  auto driver_b = NetDriver::Create(vmem, &nucleus_->events(), net_b_, kernel);
  ASSERT_TRUE(driver_a.ok());
  ASSERT_TRUE(driver_b.ok());
  obj::Interface* tx = *(*driver_a)->GetInterface(NetDriverType()->name());
  obj::Interface* rx = *(*driver_b)->GetInterface(NetDriverType()->name());
  auto txbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  auto rxbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(txbuf.ok());
  ASSERT_TRUE(rxbuf.ok());

  std::vector<size_t> lengths = {1, 2, 3, 4, 5, 6, 7, 8, hw::NetworkDevice::kMaxFrame};
  for (size_t len : lengths) {
    std::vector<uint8_t> frame(len);
    for (size_t i = 0; i < len; ++i) {
      frame[i] = static_cast<uint8_t>(len * 31 + i * 13 + 1);
    }
    ASSERT_TRUE(vmem->Write(kernel, *txbuf, frame).ok());
    // Poison the receive page so a short copy shows.
    std::vector<uint8_t> poison(nucleus::kPageSize, 0xEE);
    ASSERT_TRUE(vmem->Write(kernel, *rxbuf, poison).ok());

    ASSERT_EQ(tx->Invoke(0, *txbuf, len), 0u) << len;
    machine_.Advance(200);
    Settle();
    ASSERT_EQ(rx->Invoke(1, *rxbuf, nucleus::kPageSize), len);
    std::vector<uint8_t> got(len + 4);
    ASSERT_TRUE(vmem->Read(kernel, *rxbuf, got).ok());
    EXPECT_TRUE(std::equal(frame.begin(), frame.end(), got.begin())) << len;
    EXPECT_EQ(got[len], 0xEE) << len;  // nothing past the frame was written
    EXPECT_EQ(rx->Invoke(1, *rxbuf, nucleus::kPageSize), 0u);  // exactly one frame
  }
  // One past the device's largest frame is refused before staging.
  EXPECT_EQ(tx->Invoke(0, *txbuf, hw::NetworkDevice::kMaxFrame + 1), ~uint64_t{0});
}

TEST_F(ComponentsTest, NetDriverOversizeFrameDoesNotStrandTheFrameBehindIt) {
  auto* vmem = &nucleus_->vmem();
  auto* kernel = nucleus_->kernel_context();
  auto driver_a = NetDriver::Create(vmem, &nucleus_->events(), net_a_, kernel);
  auto driver_b = NetDriver::Create(vmem, &nucleus_->events(), net_b_, kernel);
  ASSERT_TRUE(driver_a.ok());
  ASSERT_TRUE(driver_b.ok());
  obj::Interface* tx = *(*driver_a)->GetInterface(NetDriverType()->name());
  obj::Interface* rx = *(*driver_b)->GetInterface(NetDriverType()->name());
  auto txbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  auto rxbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(txbuf.ok());
  ASSERT_TRUE(rxbuf.ok());

  // A 100-byte frame, then a 40-byte one, both queued before anyone polls.
  std::vector<uint8_t> big(100, 0xB1);
  std::vector<uint8_t> small(40);
  for (size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<uint8_t>(i + 1);
  }
  ASSERT_TRUE(vmem->Write(kernel, *txbuf, big).ok());
  ASSERT_EQ(tx->Invoke(0, *txbuf, big.size()), 0u);
  ASSERT_TRUE(vmem->Write(kernel, *txbuf, small).ok());
  ASSERT_EQ(tx->Invoke(0, *txbuf, small.size()), 0u);
  machine_.Advance(200);
  Settle();
  ASSERT_EQ((*driver_b)->rx_frames_buffered(), 2u);

  // A 64-byte buffer: the 100-byte frame is dropped and counted, and the
  // same poll returns the 40-byte frame behind it.
  ASSERT_EQ(rx->Invoke(1, *rxbuf, 64), small.size());
  std::vector<uint8_t> got(small.size());
  ASSERT_TRUE(vmem->Read(kernel, *rxbuf, got).ok());
  EXPECT_EQ(got, small);
  EXPECT_EQ((*driver_b)->frames_oversize(), 1u);
  EXPECT_EQ(rx->Invoke(5, 5), 1u);  // stats slot 5
  // 0 now means the queue is empty.
  EXPECT_EQ((*driver_b)->rx_frames_buffered(), 0u);
  EXPECT_EQ(rx->Invoke(1, *rxbuf, 64), 0u);
  EXPECT_EQ((*driver_b)->frames_oversize(), 1u);
}

TEST_F(ComponentsTest, NetDriverPollIntoAnUnmappedBufferKeepsTheFrame) {
  auto* vmem = &nucleus_->vmem();
  auto* kernel = nucleus_->kernel_context();
  auto driver_a = NetDriver::Create(vmem, &nucleus_->events(), net_a_, kernel);
  auto driver_b = NetDriver::Create(vmem, &nucleus_->events(), net_b_, kernel);
  ASSERT_TRUE(driver_a.ok());
  ASSERT_TRUE(driver_b.ok());
  obj::Interface* tx = *(*driver_a)->GetInterface(NetDriverType()->name());
  obj::Interface* rx = *(*driver_b)->GetInterface(NetDriverType()->name());
  auto txbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  auto rxbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(txbuf.ok());
  ASSERT_TRUE(rxbuf.ok());
  const std::vector<uint8_t> frame = {1, 2, 3, 4, 5};
  ASSERT_TRUE(vmem->Write(kernel, *txbuf, frame).ok());
  ASSERT_EQ(tx->Invoke(0, *txbuf, frame.size()), 0u);
  machine_.Advance(200);
  Settle();

  // The copy out fails, so the frame stays in the device, unacked.
  constexpr uint64_t kUnmapped = 0x7FFF'0000'0000;
  EXPECT_EQ(rx->Invoke(1, kUnmapped, nucleus::kPageSize), 0u);
  EXPECT_EQ((*driver_b)->rx_frames_buffered(), 1u);
  ASSERT_EQ(rx->Invoke(1, *rxbuf, nucleus::kPageSize), frame.size());
  std::vector<uint8_t> got(frame.size());
  ASSERT_TRUE(vmem->Read(kernel, *rxbuf, got).ok());
  EXPECT_EQ(got, frame);
  EXPECT_EQ((*driver_b)->rx_frames_buffered(), 0u);
}

TEST_F(ComponentsTest, NetDriverMeasurementInterface) {
  auto driver = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_,
                                  nucleus_->kernel_context());
  ASSERT_TRUE(driver.ok());
  auto measure = (*driver)->GetInterface(MeasurementType()->name());
  ASSERT_TRUE(measure.ok());
  auto net = (*driver)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(net.ok());
  (*net)->Invoke(2);
  (*net)->Invoke(2);
  EXPECT_EQ((*measure)->Invoke(0), 2u);
  EXPECT_EQ((*measure)->Invoke(1), 0u);  // reset
  EXPECT_EQ((*measure)->Invoke(0), 0u);
}

TEST_F(ComponentsTest, NetDriverRegistersAreExclusive) {
  auto first = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_,
                                 nucleus_->kernel_context());
  ASSERT_TRUE(first.ok());
  nucleus::Context* user = nucleus_->CreateUserContext("user");
  auto second = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, user);
  EXPECT_FALSE(second.ok());  // I/O space is exclusive
}

TEST_F(ComponentsTest, CallMonitorCountsAndForwards) {
  MatrixComponent matrices;
  auto monitor = CallMonitor::Wrap(&matrices);
  auto iface = monitor->GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());

  uint64_t m = (*iface)->Invoke(0, 2, 2);
  ASSERT_NE(m, 0u);
  (*iface)->Invoke(2, m, 0, DoubleToBits(4.0));
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(3, m, 0)), 4.0);

  EXPECT_EQ(monitor->total_calls(), 3u);
  EXPECT_EQ(monitor->calls_for(MatrixType()->name(), 0), 1u);
  EXPECT_EQ(monitor->calls_for(MatrixType()->name(), 2), 1u);
  ASSERT_GE(monitor->trace().size(), 1u);
  EXPECT_EQ(monitor->trace()[0].slot, 0u);

  // The monitor exports the measurement superset (§2 evolution example).
  auto measure = monitor->GetInterface(MeasurementType()->name());
  ASSERT_TRUE(measure.ok());
  EXPECT_EQ((*measure)->Invoke(0), 3u);
}

TEST_F(ComponentsTest, MonitorStacksOnMonitor) {
  MatrixComponent matrices;
  auto inner = CallMonitor::Wrap(&matrices);
  auto outer = CallMonitor::Wrap(inner.get());
  auto iface = outer->GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  (*iface)->Invoke(0, 1, 1);
  EXPECT_GE(outer->total_calls(), 1u);
  EXPECT_GE(inner->total_calls(), 1u);
}

TEST_F(ComponentsTest, PacketSnoopCapturesPayloads) {
  auto* kernel = nucleus_->kernel_context();
  auto driver = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
  ASSERT_TRUE(driver.ok());
  auto snoop = PacketSnoop::Wrap(driver->get(), &nucleus_->vmem(), kernel);
  ASSERT_TRUE(snoop.ok());

  auto iface = (*snoop)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface.ok());
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  std::vector<uint8_t> secret = {'s', 'e', 'c', 'r', 'e', 't'};
  ASSERT_TRUE(nucleus_->vmem().Write(kernel, *buf, secret).ok());

  EXPECT_EQ((*iface)->Invoke(0, *buf, secret.size()), 0u);  // send succeeds
  // The caller saw normal behavior, but the payload leaked.
  ASSERT_EQ((*snoop)->captured().size(), 1u);
  EXPECT_EQ((*snoop)->captured()[0], secret);
  // Non-intercepted methods forward untouched.
  EXPECT_EQ((*iface)->Invoke(2), 0xAAAAu);
}

TEST_F(ComponentsTest, PacketSnoopForwardsAnOversizeSendWithoutCapturing) {
  // A length past any frame sizes no copy: the snoop captures nothing, and
  // the driver still sees the call and refuses it itself.
  auto* kernel = nucleus_->kernel_context();
  auto driver = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
  ASSERT_TRUE(driver.ok());
  auto snoop = PacketSnoop::Wrap(driver->get(), &nucleus_->vmem(), kernel);
  ASSERT_TRUE(snoop.ok());
  auto iface = (*snoop)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface.ok());
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());

  const uint64_t calls = (*driver)->Invocations(0, 0, 0, 0);
  EXPECT_EQ((*iface)->Invoke(0, *buf, uint64_t{1} << 62), ~uint64_t{0});
  EXPECT_EQ((*driver)->Invocations(0, 0, 0, 0), calls + 1);
  EXPECT_TRUE((*snoop)->captured().empty());
}

TEST_F(ComponentsTest, ThreadPackageComponent) {
  ThreadPackage pkg(&nucleus_->scheduler());
  auto iface = pkg.GetInterface(ThreadPackageType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(2), 0u);  // no current thread from the host

  static int spawned_arg;
  spawned_arg = 0;
  auto entry = +[](uint64_t arg) { spawned_arg = static_cast<int>(arg); };
  uint64_t id = (*iface)->Invoke(3, reinterpret_cast<uint64_t>(entry), 77, 4);
  EXPECT_NE(id, 0u);
  nucleus_->scheduler().Run();
  EXPECT_EQ(spawned_arg, 77);
}

TEST_F(ComponentsTest, ConsoleDriverWrites) {
  auto* kernel = nucleus_->kernel_context();
  auto driver = ConsoleDriver::Create(&nucleus_->vmem(), console_, kernel);
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(ConsoleType()->name());
  ASSERT_TRUE(iface.ok());

  EXPECT_EQ((*iface)->Invoke(0, 'H'), 0u);
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  const char msg[] = "ello";
  ASSERT_TRUE(nucleus_->vmem().Write(kernel, *buf,
                                     std::span<const uint8_t>(
                                         reinterpret_cast<const uint8_t*>(msg), 4)).ok());
  EXPECT_EQ((*iface)->Invoke(1, *buf, 4), 4u);
  EXPECT_EQ(console_->output(), "Hello");
}

TEST_F(ComponentsTest, ConsoleDriverHugeWriteStopsAtTheFirstFault) {
  // A length far past any mapping sizes no allocation: the driver writes
  // every readable byte, across a page boundary, and returns that count at
  // the first unmapped page.
  auto* kernel = nucleus_->kernel_context();
  auto driver = ConsoleDriver::Create(&nucleus_->vmem(), console_, kernel);
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(ConsoleType()->name());
  ASSERT_TRUE(iface.ok());
  auto buf = nucleus_->vmem().AllocatePages(kernel, 3, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(nucleus_->vmem().FreePages(kernel, *buf + 2 * nucleus::kPageSize, 1).ok());
  const uint64_t start = *buf + nucleus::kPageSize - 100;
  std::string text;
  for (size_t i = 0; i < nucleus::kPageSize + 100; ++i) {
    text.push_back(static_cast<char>('a' + i % 26));
  }
  ASSERT_TRUE(nucleus_->vmem()
                  .Write(kernel, start,
                         std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(text.data()), text.size()))
                  .ok());

  console_->ClearOutput();
  EXPECT_EQ((*iface)->Invoke(1, start, uint64_t{1} << 62), text.size());
  EXPECT_EQ(console_->output(), text);
}

TEST_F(ComponentsTest, ConsoleDriverReads) {
  auto driver = ConsoleDriver::Create(&nucleus_->vmem(), console_, nucleus_->kernel_context());
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(ConsoleType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(2), ~uint64_t{0});  // nothing pending
  console_->InjectInput("k");
  EXPECT_EQ((*iface)->Invoke(2), uint64_t{'k'});
}

TEST_F(ComponentsTest, TimerDriverProgramsHardware) {
  auto driver = TimerDriver::Create(&nucleus_->vmem(), timer_, nucleus_->kernel_context());
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(TimerType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(0, 100, 1), 0u);  // program periodic 100ns
  machine_.Advance(550);
  EXPECT_EQ((*iface)->Invoke(2), 5u);  // expirations
  EXPECT_EQ((*iface)->Invoke(1), 0u);  // stop
  machine_.Advance(550);
  EXPECT_EQ((*iface)->Invoke(2), 5u);
  EXPECT_EQ((*iface)->Invoke(3), nucleus::IrqEvent(kTimerIrq));
}

}  // namespace
}  // namespace para::components
