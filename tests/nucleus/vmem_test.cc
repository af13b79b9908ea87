#include "src/nucleus/vmem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/hw/machine.h"
#include "src/hw/timer.h"

namespace para::nucleus {
namespace {

class VmemTest : public ::testing::Test {
 protected:
  VirtualMemoryService vmem_{64};
  Context* kernel_ = vmem_.kernel_context();
};

TEST_F(VmemTest, KernelContextIsContextZero) {
  EXPECT_EQ(kernel_->id(), kKernelContextId);
  EXPECT_TRUE(kernel_->is_kernel());
  EXPECT_EQ(kernel_->parent(), nullptr);
  EXPECT_EQ(vmem_.FindContext(kKernelContextId), kernel_);
}

TEST_F(VmemTest, CreateAndDestroyContext) {
  Context* user = vmem_.CreateContext("user", kernel_);
  EXPECT_FALSE(user->is_kernel());
  EXPECT_EQ(user->parent(), kernel_);
  EXPECT_EQ(vmem_.FindContext(user->id()), user);
  EXPECT_TRUE(vmem_.DestroyContext(user).ok());
  EXPECT_FALSE(vmem_.DestroyContext(kernel_).ok());
}

TEST_F(VmemTest, AllocateReadWrite) {
  auto base = vmem_.AllocatePages(kernel_, 2, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  const char msg[] = "hello vmem";
  ASSERT_TRUE(vmem_.Write(kernel_, *base + 100,
                          std::span<const uint8_t>(
                              reinterpret_cast<const uint8_t*>(msg), sizeof(msg)))
                  .ok());
  char out[sizeof(msg)] = {};
  ASSERT_TRUE(vmem_.Read(kernel_, *base + 100,
                         std::span<uint8_t>(reinterpret_cast<uint8_t*>(out), sizeof(out)))
                  .ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(VmemTest, FreshPagesAreZeroed) {
  auto base = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(vmem_.WriteU64(kernel_, *base, 0xDEADBEEF).ok());
  ASSERT_TRUE(vmem_.FreePages(kernel_, *base, 1).ok());
  auto again = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(again.ok());
  auto value = vmem_.ReadU64(kernel_, *again);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0u);
}

TEST_F(VmemTest, CrossPageAccess) {
  auto base = vmem_.AllocatePages(kernel_, 2, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  // Straddle the page boundary.
  std::vector<uint8_t> data(256, 0x5A);
  VAddr addr = *base + kPageSize - 128;
  ASSERT_TRUE(vmem_.Write(kernel_, addr, data).ok());
  std::vector<uint8_t> out(256, 0);
  ASSERT_TRUE(vmem_.Read(kernel_, addr, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VmemTest, UnmappedAccessFaults) {
  auto status = vmem_.ReadU64(kernel_, 0xDEAD0000);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), ErrorCode::kFault);
  EXPECT_EQ(vmem_.stats().faults, 1u);
}

TEST_F(VmemTest, ProtectionEnforced) {
  auto base = vmem_.AllocatePages(kernel_, 1, kProtRead);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(vmem_.ReadU64(kernel_, *base).ok());
  EXPECT_FALSE(vmem_.WriteU64(kernel_, *base, 1).ok());
  // Upgrade to read-write.
  ASSERT_TRUE(vmem_.Protect(kernel_, *base, 1, kProtReadWrite).ok());
  EXPECT_TRUE(vmem_.WriteU64(kernel_, *base, 1).ok());
  // Downgrade to none.
  ASSERT_TRUE(vmem_.Protect(kernel_, *base, 1, kProtNone).ok());
  EXPECT_FALSE(vmem_.ReadU64(kernel_, *base).ok());
}

TEST_F(VmemTest, ContextsAreIsolated) {
  Context* user = vmem_.CreateContext("user", kernel_);
  auto base = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(vmem_.WriteU64(kernel_, *base, 42).ok());
  // Same virtual address in another context: fault, not data leak.
  EXPECT_FALSE(vmem_.ReadU64(user, *base).ok());
}

TEST_F(VmemTest, SharedPagesSeeEachOthersWrites) {
  Context* user = vmem_.CreateContext("user", kernel_);
  auto kbase = vmem_.AllocatePages(kernel_, 2, kProtReadWrite);
  ASSERT_TRUE(kbase.ok());
  auto ubase = vmem_.SharePages(kernel_, *kbase, 2, user, kProtReadWrite);
  ASSERT_TRUE(ubase.ok());
  ASSERT_TRUE(vmem_.WriteU64(kernel_, *kbase + 8, 0xABCD).ok());
  auto seen = vmem_.ReadU64(user, *ubase + 8);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, 0xABCDu);
  // And the reverse direction.
  ASSERT_TRUE(vmem_.WriteU64(user, *ubase + 4096, 0x1234).ok());
  auto back = vmem_.ReadU64(kernel_, *kbase + 4096);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, 0x1234u);
}

TEST_F(VmemTest, SharedReadOnlyMapping) {
  Context* user = vmem_.CreateContext("user", kernel_);
  auto kbase = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(kbase.ok());
  auto ubase = vmem_.SharePages(kernel_, *kbase, 1, user, kProtRead);
  ASSERT_TRUE(ubase.ok());
  EXPECT_TRUE(vmem_.ReadU64(user, *ubase).ok());
  EXPECT_FALSE(vmem_.WriteU64(user, *ubase, 1).ok());
}

TEST_F(VmemTest, SharedPhysicalPageFreedOnlyAtLastUnmap) {
  Context* user = vmem_.CreateContext("user", kernel_);
  size_t before = vmem_.free_pages();
  auto kbase = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(kbase.ok());
  auto ubase = vmem_.SharePages(kernel_, *kbase, 1, user, kProtReadWrite);
  ASSERT_TRUE(ubase.ok());
  EXPECT_EQ(vmem_.free_pages(), before - 1);
  ASSERT_TRUE(vmem_.FreePages(kernel_, *kbase, 1).ok());
  EXPECT_EQ(vmem_.free_pages(), before - 1);  // still held by user
  ASSERT_TRUE(vmem_.FreePages(user, *ubase, 1).ok());
  EXPECT_EQ(vmem_.free_pages(), before);
}

TEST_F(VmemTest, ShareUnmappedRangeFails) {
  Context* user = vmem_.CreateContext("user", kernel_);
  EXPECT_FALSE(vmem_.SharePages(kernel_, 0x999000, 1, user, kProtRead).ok());
}

TEST_F(VmemTest, ExhaustionReportsResourceExhausted) {
  auto big = vmem_.AllocatePages(kernel_, 65, kProtReadWrite);
  EXPECT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), ErrorCode::kResourceExhausted);
}

TEST_F(VmemTest, FaultHandlerRepairsMapping) {
  Context* user = vmem_.CreateContext("user", kernel_);
  VAddr lazy = user->AllocateRegion(1);
  int handler_runs = 0;
  ASSERT_TRUE(vmem_.SetFaultHandler(user, lazy, [&](const FaultInfo& info) {
    ++handler_runs;
    EXPECT_EQ(info.context, user);
    // Demand-map a page at the faulting address.
    auto backing = vmem_.AllocatePages(user, 1, kProtReadWrite);
    if (!backing.ok()) {
      return backing.status();
    }
    Pte* pte = user->LookupMutable(*backing);
    Pte copy = *pte;
    user->Uninstall(*backing);
    user->Install(lazy, copy);
    return OkStatus();
  }).ok());

  // First touch faults, handler maps, access retries and succeeds.
  EXPECT_TRUE(vmem_.WriteU64(user, lazy, 77).ok());
  EXPECT_EQ(handler_runs, 1);
  auto value = vmem_.ReadU64(user, lazy);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 77u);
  EXPECT_EQ(vmem_.stats().fault_handler_runs, 1u);
}

TEST_F(VmemTest, FaultHandlerFailurePropagates) {
  Context* user = vmem_.CreateContext("user", kernel_);
  VAddr addr = user->AllocateRegion(1);
  ASSERT_TRUE(vmem_.SetFaultHandler(user, addr, [](const FaultInfo&) {
    return Status(ErrorCode::kPermissionDenied, "no");
  }).ok());
  auto result = vmem_.ReadU64(user, addr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(VmemTest, FaultHandlerThatDoesNotRepairFails) {
  Context* user = vmem_.CreateContext("user", kernel_);
  VAddr addr = user->AllocateRegion(1);
  ASSERT_TRUE(
      vmem_.SetFaultHandler(user, addr, [](const FaultInfo&) { return OkStatus(); }).ok());
  auto result = vmem_.ReadU64(user, addr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFault);
}

TEST_F(VmemTest, ClearFaultHandler) {
  Context* user = vmem_.CreateContext("user", kernel_);
  VAddr addr = user->AllocateRegion(1);
  ASSERT_TRUE(
      vmem_.SetFaultHandler(user, addr, [](const FaultInfo&) { return OkStatus(); }).ok());
  EXPECT_TRUE(vmem_.ClearFaultHandler(user, addr).ok());
  EXPECT_FALSE(vmem_.ClearFaultHandler(user, addr).ok());
}

TEST_F(VmemTest, TranslateForKernelBypass) {
  auto base = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  auto ptr = vmem_.TranslateForKernel(kernel_, *base + 16, 8, /*write=*/true);
  ASSERT_TRUE(ptr.ok());
  std::memset(*ptr, 0xEE, 8);
  auto value = vmem_.ReadU64(kernel_, *base + 16);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xEEEEEEEEEEEEEEEEull);
  // Cross-page translation is refused.
  EXPECT_FALSE(vmem_.TranslateForKernel(kernel_, *base + kPageSize - 4, 8, false).ok());
}

TEST_F(VmemTest, IoRegisterWindow) {
  hw::Machine machine;
  auto* timer = machine.AddDevice(std::make_unique<hw::TimerDevice>("t", 0));
  auto io = vmem_.MapDeviceRegisters(kernel_, timer);
  ASSERT_TRUE(io.ok());
  // Writing CTRL through the window programs the device.
  ASSERT_TRUE(vmem_.WriteIo32(kernel_, *io + hw::TimerDevice::kRegIntervalLo, 500).ok());
  ASSERT_TRUE(vmem_.WriteIo32(kernel_, *io + hw::TimerDevice::kRegCtrl,
                              hw::TimerDevice::kCtrlEnable).ok());
  ASSERT_TRUE(machine.NextEventTime().has_value());
  EXPECT_EQ(*machine.NextEventTime(), 500u);
  auto ctrl = vmem_.ReadIo32(kernel_, *io + hw::TimerDevice::kRegCtrl);
  ASSERT_TRUE(ctrl.ok());
  EXPECT_EQ(*ctrl, hw::TimerDevice::kCtrlEnable);
}

TEST_F(VmemTest, IoRegistersAreExclusive) {
  hw::Machine machine;
  auto* timer = machine.AddDevice(std::make_unique<hw::TimerDevice>("t", 0));
  Context* user = vmem_.CreateContext("user", kernel_);
  ASSERT_TRUE(vmem_.MapDeviceRegisters(kernel_, timer).ok());
  auto second = vmem_.MapDeviceRegisters(user, timer);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(VmemTest, IoUnmapReleasesExclusivity) {
  hw::Machine machine;
  auto* timer = machine.AddDevice(std::make_unique<hw::TimerDevice>("t", 0));
  Context* user = vmem_.CreateContext("user", kernel_);
  auto first = vmem_.MapDeviceRegisters(kernel_, timer);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(vmem_.UnmapIo(kernel_, *first).ok());
  EXPECT_TRUE(vmem_.MapDeviceRegisters(user, timer).ok());
}

TEST_F(VmemTest, IoBufferSharedAcrossContexts) {
  hw::Machine machine;
  auto* netdev = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n", 1, 0xA));
  Context* user = vmem_.CreateContext("user", kernel_);
  auto kwin = vmem_.MapDeviceBuffer(kernel_, netdev, kProtReadWrite);
  auto uwin = vmem_.MapDeviceBuffer(user, netdev, kProtReadWrite);
  ASSERT_TRUE(kwin.ok());
  ASSERT_TRUE(uwin.ok());
  ASSERT_TRUE(vmem_.WriteIo32(kernel_, *kwin + 8, 0x11223344).ok());
  auto seen = vmem_.ReadIo32(user, *uwin + 8);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, 0x11223344u);
}

TEST_F(VmemTest, ByteAccessToIoWindowRejected) {
  hw::Machine machine;
  auto* timer = machine.AddDevice(std::make_unique<hw::TimerDevice>("t", 0));
  auto io = vmem_.MapDeviceRegisters(kernel_, timer);
  ASSERT_TRUE(io.ok());
  EXPECT_FALSE(vmem_.ReadU64(kernel_, *io).ok());
}

TEST_F(VmemTest, RegisterAccessPastTheRegisterBlockIsOutOfRange) {
  // Regression: any in-page offset used to reach Device::ReadReg/WriteReg,
  // whose bounds check aborted the process — reachable from any domain
  // holding a register mapping, a user-domain driver included.
  hw::Machine machine;
  auto* netdev = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n", 1, 0xA));
  Context* user = vmem_.CreateContext("user", kernel_);
  auto io = vmem_.MapDeviceRegisters(user, netdev);
  ASSERT_TRUE(io.ok());
  std::vector<uint8_t> before(netdev->register_block().begin(),
                              netdev->register_block().end());
  for (VAddr offset : {VAddr{hw::NetworkDevice::kRegisterBytes}, VAddr{0xFFC}}) {
    auto read = vmem_.ReadIo32(user, *io + offset);
    EXPECT_EQ(read.status().code(), ErrorCode::kOutOfRange) << offset;
    EXPECT_EQ(vmem_.WriteIo32(user, *io + offset, 0xDEADBEEF).code(), ErrorCode::kOutOfRange)
        << offset;
  }
  EXPECT_TRUE(std::equal(before.begin(), before.end(), netdev->register_block().begin()));
  // The last register still works.
  auto last = vmem_.ReadIo32(user, *io + hw::NetworkDevice::kRegisterBytes - 4);
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(vmem_.WriteIo32(user, *io + hw::NetworkDevice::kRegisterBytes - 4, *last).ok());
}

// Fills a device's buffer with a recognizable pattern.
void FillPattern(std::span<uint8_t> bytes) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 3);
  }
}

TEST_F(VmemTest, IoSpanRoundTripsAgainstWordAccess) {
  hw::Machine machine;
  auto* netdev = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n", 1, 0xA));
  auto win = vmem_.MapDeviceBuffer(kernel_, netdev, kProtReadWrite);
  ASSERT_TRUE(win.ok());
  auto buffer = netdev->device_buffer();
  for (size_t start = 100; start < 108; ++start) {
    for (size_t len = 0; len <= 9; ++len) {
      FillPattern(buffer);
      // ReadIo sees exactly the bytes the word accessor sees.
      std::vector<uint8_t> got(len, 0xEE);
      ASSERT_TRUE(vmem_.ReadIo(kernel_, *win + start, got).ok());
      for (size_t i = 0; i < len; ++i) {
        auto word = vmem_.ReadIo32(kernel_, *win + start + i);
        ASSERT_TRUE(word.ok());
        EXPECT_EQ(got[i], static_cast<uint8_t>(*word)) << start << "+" << i;
      }
      // WriteIo changes exactly [start, start + len); word reads see it.
      std::vector<uint8_t> data(len);
      for (size_t i = 0; i < len; ++i) {
        data[i] = static_cast<uint8_t>(0xA0 + i);
      }
      ASSERT_TRUE(vmem_.WriteIo(kernel_, *win + start, data).ok());
      for (size_t i = 0; i < len; ++i) {
        auto word = vmem_.ReadIo32(kernel_, *win + start + i);
        ASSERT_TRUE(word.ok());
        EXPECT_EQ(static_cast<uint8_t>(*word), data[i]);
      }
      EXPECT_EQ(buffer[start - 1], static_cast<uint8_t>((start - 1) * 7 + 3));
      EXPECT_EQ(buffer[start + len], static_cast<uint8_t>((start + len) * 7 + 3));
    }
  }
}

TEST_F(VmemTest, IoSpanPastTheBufferEndCopiesNothing) {
  hw::Machine machine;
  auto* netdev = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n", 1, 0xA));
  auto win = vmem_.MapDeviceBuffer(kernel_, netdev, kProtReadWrite);
  ASSERT_TRUE(win.ok());
  auto buffer = netdev->device_buffer();
  FillPattern(buffer);
  VAddr near_end = *win + buffer.size() - 3;
  std::vector<uint8_t> out(4, 0xEE);
  EXPECT_EQ(vmem_.ReadIo(kernel_, near_end, out).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(out, std::vector<uint8_t>(4, 0xEE));
  std::vector<uint8_t> data(4, 0x55);
  EXPECT_EQ(vmem_.WriteIo(kernel_, near_end, data).code(), ErrorCode::kOutOfRange);
  for (size_t i = buffer.size() - 3; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], static_cast<uint8_t>(i * 7 + 3));
  }
  // The word accessors share the bounds check.
  EXPECT_EQ(vmem_.ReadIo32(kernel_, near_end).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(vmem_.WriteIo32(kernel_, near_end, 0).code(), ErrorCode::kOutOfRange);
  // The bytes up to the end are still reachable.
  ASSERT_TRUE(vmem_.ReadIo(kernel_, near_end, std::span<uint8_t>(out).first(3)).ok());
  EXPECT_EQ(out[0], static_cast<uint8_t>((buffer.size() - 3) * 7 + 3));
}

TEST_F(VmemTest, IoSpanDoesNotRunIntoTheNextDevicesWindow) {
  hw::Machine machine;
  auto* first = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n0", 1, 0xA));
  auto* second = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n1", 2, 0xB));
  auto win_a = vmem_.MapDeviceBuffer(kernel_, first, kProtReadWrite);
  auto win_b = vmem_.MapDeviceBuffer(kernel_, second, kProtReadWrite);
  ASSERT_TRUE(win_a.ok());
  ASSERT_TRUE(win_b.ok());
  ASSERT_EQ(*win_b, *win_a + first->device_buffer().size());  // mapped back to back
  FillPattern(first->device_buffer());
  FillPattern(second->device_buffer());
  VAddr straddle = *win_b - 4;
  std::vector<uint8_t> out(8, 0xEE);
  EXPECT_EQ(vmem_.ReadIo(kernel_, straddle, out).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(out, std::vector<uint8_t>(8, 0xEE));
  std::vector<uint8_t> data(8, 0x55);
  EXPECT_EQ(vmem_.WriteIo(kernel_, straddle, data).code(), ErrorCode::kOutOfRange);
  for (auto* dev : {first, second}) {
    auto bytes = dev->device_buffer();
    for (size_t i = 0; i < bytes.size(); ++i) {
      ASSERT_EQ(bytes[i], static_cast<uint8_t>(i * 7 + 3)) << dev->name() << " @" << i;
    }
  }
}

TEST_F(VmemTest, IoSpanRejectsRegisterWindows) {
  hw::Machine machine;
  auto* netdev = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n", 1, 0xA));
  auto io = vmem_.MapDeviceRegisters(kernel_, netdev);
  ASSERT_TRUE(io.ok());
  std::vector<uint8_t> bytes(4);
  EXPECT_EQ(vmem_.ReadIo(kernel_, *io, bytes).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(vmem_.WriteIo(kernel_, *io + hw::NetworkDevice::kRegCtrl, bytes).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(netdev->ReadReg(hw::NetworkDevice::kRegCtrl), 0u);  // device untouched
  // A plain memory page is not an I/O window either.
  auto page = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(vmem_.ReadIo(kernel_, *page, bytes).code(), ErrorCode::kInvalidArgument);
}

TEST_F(VmemTest, IoSpanHonorsProtectionAndFaults) {
  hw::Machine machine;
  auto* netdev = machine.AddDevice(std::make_unique<hw::NetworkDevice>("n", 1, 0xA));
  Context* user = vmem_.CreateContext("user", kernel_);
  auto ro = vmem_.MapDeviceBuffer(user, netdev, kProtRead);
  ASSERT_TRUE(ro.ok());
  FillPattern(netdev->device_buffer());
  std::vector<uint8_t> bytes(16, 0x55);
  EXPECT_FALSE(vmem_.WriteIo(user, *ro + 32, bytes).ok());
  EXPECT_EQ(netdev->device_buffer()[32], static_cast<uint8_t>(32 * 7 + 3));
  EXPECT_TRUE(vmem_.ReadIo(user, *ro + 32, bytes).ok());  // reading is allowed
  EXPECT_EQ(bytes[0], static_cast<uint8_t>(32 * 7 + 3));
  // An address with no mapping faults.
  VAddr unmapped = user->AllocateRegion(1);
  EXPECT_EQ(vmem_.ReadIo(user, unmapped, bytes).code(), ErrorCode::kFault);
  EXPECT_EQ(vmem_.WriteIo(user, unmapped, bytes).code(), ErrorCode::kFault);
}

TEST_F(VmemTest, IoSpanCrossesPagesOfOneDeviceBuffer) {
  // A device whose buffer spans two pages: one window, two PTEs.
  hw::Device device("big", 3, 16, 2 * kPageSize);
  auto win = vmem_.MapDeviceBuffer(kernel_, &device, kProtReadWrite);
  ASSERT_TRUE(win.ok());
  std::vector<uint8_t> data(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(255 - i);
  }
  VAddr start = *win + kPageSize - 100;
  ASSERT_TRUE(vmem_.WriteIo(kernel_, start, data).ok());
  EXPECT_TRUE(std::equal(data.begin(), data.end(),
                         device.device_buffer().begin() + kPageSize - 100));
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(vmem_.ReadIo(kernel_, start, back).ok());
  EXPECT_EQ(back, data);
  // A word straddling the page boundary resolves both pages.
  auto word = vmem_.ReadIo32(kernel_, *win + kPageSize - 2);
  ASSERT_TRUE(word.ok());
  uint32_t expected;
  std::memcpy(&expected, device.device_buffer().data() + kPageSize - 2, 4);
  EXPECT_EQ(*word, expected);
  // With the second page unmapped, the same copy faults and copies nothing.
  ASSERT_TRUE(vmem_.UnmapIo(kernel_, *win + kPageSize).ok());
  std::vector<uint8_t> out(data.size(), 0xEE);
  EXPECT_FALSE(vmem_.ReadIo(kernel_, start, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(data.size(), 0xEE));
  std::vector<uint8_t> zeros(data.size(), 0);
  EXPECT_FALSE(vmem_.WriteIo(kernel_, start, zeros).ok());
  EXPECT_EQ(device.device_buffer()[kPageSize - 100], data[0]);
}

TEST_F(VmemTest, FaultHandlerKeysAreNotTruncated) {
  // Regression: the old handler map keyed on (ctx id << 32 | vpage), so a
  // virtual page >= 2^32 (vaddr >= 16 TiB) aliased the id bits — here the
  // handler at 16 TiB in context 1 collided with the one at page 0. The
  // flat per-page slot table keys on the full virtual page.
  Context* user = vmem_.CreateContext("user", kernel_);  // id 1
  ASSERT_EQ(user->id(), 1u);
  VAddr low = 0;                  // vpage 0
  VAddr high = VAddr{1} << 44;    // vpage 2^32: old key == (1 << 32 | 0)
  VAddr observed_low = ~VAddr{0};
  VAddr observed_high = ~VAddr{0};
  ASSERT_TRUE(vmem_.SetFaultHandler(user, low, [&](const FaultInfo& info) {
    observed_low = info.vaddr;
    return Status(ErrorCode::kPermissionDenied, "low");
  }).ok());
  ASSERT_TRUE(vmem_.SetFaultHandler(user, high, [&](const FaultInfo& info) {
    observed_high = info.vaddr;
    return Status(ErrorCode::kPermissionDenied, "high");
  }).ok());

  EXPECT_EQ(vmem_.ReadU64(user, high).status().message(), "high");
  EXPECT_EQ(observed_high, high);
  EXPECT_EQ(observed_low, ~VAddr{0});  // low handler untouched

  EXPECT_EQ(vmem_.ReadU64(user, low).status().message(), "low");
  EXPECT_EQ(observed_low, low);

  // Clearing one must not disturb the other.
  ASSERT_TRUE(vmem_.ClearFaultHandler(user, high).ok());
  EXPECT_FALSE(vmem_.ClearFaultHandler(user, high).ok());
  EXPECT_EQ(vmem_.ReadU64(user, low).status().message(), "low");
}

TEST_F(VmemTest, TranslateSpanCoversContiguousRange) {
  auto base = vmem_.AllocatePages(kernel_, 3, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  // Cross-page span: write through the span, read back through the MMU.
  auto span = vmem_.TranslateSpan(kernel_, *base + 100, 2 * kPageSize, /*write=*/true);
  ASSERT_TRUE(span.ok());
  ASSERT_EQ(span->size(), 2 * kPageSize);
  std::memset(span->data(), 0x7C, span->size());
  auto value = vmem_.ReadU64(kernel_, *base + 100 + kPageSize);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0x7C7C7C7C7C7C7C7Cull);
}

TEST_F(VmemTest, TranslateSpanHonorsProtection) {
  auto base = vmem_.AllocatePages(kernel_, 1, kProtRead);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(vmem_.TranslateSpan(kernel_, *base, 8, /*write=*/false).ok());
  EXPECT_FALSE(vmem_.TranslateSpan(kernel_, *base, 8, /*write=*/true).ok());
  EXPECT_FALSE(vmem_.TranslateSpan(kernel_, 0xDEAD0000, 8, /*write=*/false).ok());
  EXPECT_FALSE(vmem_.TranslateSpan(kernel_, *base, 0, /*write=*/false).ok());
}

TEST_F(VmemTest, TranslateSpanRejectsNonContiguousRange) {
  // Two separate single-page allocations with a hole burned between them:
  // virtually adjacent regions whose physical pages cannot be adjacent.
  auto first = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(first.ok());
  auto hole = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(hole.ok());
  auto second = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(second.ok());
  // first/hole/second are virtually consecutive (bump allocator); physically
  // consecutive too — so remap: share `first` and `second` into a fresh
  // context at adjacent virtual addresses and check the combined span fails.
  Context* user = vmem_.CreateContext("user", kernel_);
  auto a = vmem_.SharePages(kernel_, *second, 1, user, kProtReadWrite);
  ASSERT_TRUE(a.ok());
  auto b = vmem_.SharePages(kernel_, *first, 1, user, kProtReadWrite);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(*b, *a + kPageSize);  // virtually adjacent, physically reversed
  auto span = vmem_.TranslateSpan(user, *a, 2 * kPageSize, /*write=*/false);
  EXPECT_FALSE(span.ok());
  EXPECT_EQ(span.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(VmemTest, TranslationCacheInvalidatedByProtect) {
  auto base = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  // Prime the translation cache.
  ASSERT_TRUE(vmem_.WriteU64(kernel_, *base, 1).ok());
  ASSERT_TRUE(vmem_.ReadU64(kernel_, *base).ok());
  // Downgrade: cached write permission must not survive.
  ASSERT_TRUE(vmem_.Protect(kernel_, *base, 1, kProtRead).ok());
  EXPECT_FALSE(vmem_.WriteU64(kernel_, *base, 2).ok());
  auto value = vmem_.ReadU64(kernel_, *base);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 1u);
}

TEST_F(VmemTest, TranslationCacheInvalidatedByFree) {
  auto base = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(vmem_.WriteU64(kernel_, *base, 42).ok());  // prime cache
  ASSERT_TRUE(vmem_.FreePages(kernel_, *base, 1).ok());
  EXPECT_FALSE(vmem_.ReadU64(kernel_, *base).ok());  // unmapped: faults
}

TEST_F(VmemTest, TranslationCacheCoherentAcrossSharedWrites) {
  Context* user = vmem_.CreateContext("user", kernel_);
  auto kbase = vmem_.AllocatePages(kernel_, 1, kProtReadWrite);
  ASSERT_TRUE(kbase.ok());
  auto ubase = vmem_.SharePages(kernel_, *kbase, 1, user, kProtReadWrite);
  ASSERT_TRUE(ubase.ok());
  // Prime both contexts' caches, then ping-pong writes: both sides must see
  // every update (the cache stores host pointers into the same physical
  // page, so coherence is structural, not protocol-driven).
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vmem_.WriteU64(kernel_, *kbase, i).ok());
    auto seen = vmem_.ReadU64(user, *ubase);
    ASSERT_TRUE(seen.ok());
    EXPECT_EQ(*seen, i);
    ASSERT_TRUE(vmem_.WriteU64(user, *ubase, i * 10).ok());
    auto back = vmem_.ReadU64(kernel_, *kbase);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, i * 10);
  }
}

// Read and Write move exactly the bytes asked for, at every length and
// alignment, whether the translation cache misses or hits: each case is
// compared byte for byte with the bytes behind TranslateSpan, and a Write
// must leave every byte outside its span as it was. The host side of each
// copy is a heap block of exactly the span's size, so a copy that reads or
// writes past it is caught by AddressSanitizer.
TEST_F(VmemTest, ReadWriteMatchHostBytesAtEveryLengthAndOffset) {
  constexpr size_t kPages = 3;
  auto base = vmem_.AllocatePages(kernel_, kPages, kProtReadWrite);
  ASSERT_TRUE(base.ok());
  auto host = vmem_.TranslateSpan(kernel_, *base, kPages * kPageSize, /*write=*/false);
  ASSERT_TRUE(host.ok());
  const std::span<const uint8_t> region = *host;

  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 256; ++len) {
    lengths.push_back(len);
  }
  para::Random rng(0x5EED'C0DE);
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(rng.NextBelow(kPages * kPageSize + 1));
  }
  std::vector<size_t> offsets;
  for (size_t o = 0; o < 16; ++o) {
    offsets.push_back(o);
    offsets.push_back(kPageSize - 16 + o);
  }

  std::vector<uint8_t> before(region.size());
  for (size_t i = 0; i < before.size(); ++i) {
    before[i] = static_cast<uint8_t>(i * 7 + (i >> 8) + 1);
  }
  ASSERT_TRUE(vmem_.Write(kernel_, *base, before).ok());
  ASSERT_TRUE(std::equal(region.begin(), region.end(), before.begin()));

  uint8_t stamp = 0;
  for (size_t len : lengths) {
    for (size_t offset : offsets) {
      if (offset + len > region.size()) {
        continue;
      }
      const VAddr at = *base + offset;
      for (bool warm : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "len " << len << " offset " << offset
                                          << (warm ? " warm" : " cold"));
        if (!warm) {
          // Same protection: the pages stay as they are, their cached
          // translations go.
          ASSERT_TRUE(vmem_.Protect(kernel_, *base, kPages, kProtReadWrite).ok());
        }
        std::vector<uint8_t> out(len);
        ASSERT_TRUE(vmem_.Read(kernel_, at, out).ok());
        ASSERT_TRUE(std::equal(out.begin(), out.end(), region.begin() + offset));

        if (!warm) {
          ASSERT_TRUE(vmem_.Protect(kernel_, *base, kPages, kProtReadWrite).ok());
        }
        ++stamp;
        std::vector<uint8_t> in(len);
        for (size_t i = 0; i < len; ++i) {
          in[i] = static_cast<uint8_t>(i * 13 + stamp);
        }
        ASSERT_TRUE(vmem_.Write(kernel_, at, in).ok());
        std::copy(in.begin(), in.end(), before.begin() + offset);
        ASSERT_TRUE(std::equal(region.begin(), region.end(), before.begin()));
      }
    }
  }

  // A span that runs into an unmapped page fails with kFault once it gets
  // there; the pages before it have been copied.
  ASSERT_TRUE(vmem_.FreePages(kernel_, *base + 2 * kPageSize, 1).ok());
  const size_t offset = 100;
  const size_t mapped = 2 * kPageSize - offset;
  std::vector<uint8_t> out(mapped + 50, 0xEE);
  Status read = vmem_.Read(kernel_, *base + offset, out);
  EXPECT_EQ(read.code(), ErrorCode::kFault);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + mapped, region.begin() + offset));
  EXPECT_TRUE(std::all_of(out.begin() + mapped, out.end(), [](uint8_t b) { return b == 0xEE; }));

  std::vector<uint8_t> in(mapped + 50, 0x5A);
  Status wrote = vmem_.Write(kernel_, *base + offset, in);
  EXPECT_EQ(wrote.code(), ErrorCode::kFault);
  std::fill(before.begin() + offset, before.begin() + 2 * kPageSize, 0x5A);
  EXPECT_TRUE(std::equal(region.begin(), region.begin() + 2 * kPageSize, before.begin()));
}

TEST_F(VmemTest, DestroyContextReleasesItsPages) {
  size_t before = vmem_.free_pages();
  Context* user = vmem_.CreateContext("user", kernel_);
  ASSERT_TRUE(vmem_.AllocatePages(user, 4, kProtReadWrite).ok());
  EXPECT_EQ(vmem_.free_pages(), before - 4);
  ASSERT_TRUE(vmem_.DestroyContext(user).ok());
  EXPECT_EQ(vmem_.free_pages(), before);  // no leak through destroy-without-free
}

TEST_F(VmemTest, DestroyContextKeepsPagesSharedElsewhere) {
  Context* user = vmem_.CreateContext("user", kernel_);
  auto ubase = vmem_.AllocatePages(user, 1, kProtReadWrite);
  ASSERT_TRUE(ubase.ok());
  ASSERT_TRUE(vmem_.WriteU64(user, *ubase, 0xCAFE).ok());
  auto kbase = vmem_.SharePages(user, *ubase, 1, kernel_, kProtReadWrite);
  ASSERT_TRUE(kbase.ok());
  ASSERT_TRUE(vmem_.DestroyContext(user).ok());
  // The kernel's shared mapping still holds the physical page and its data.
  auto value = vmem_.ReadU64(kernel_, *kbase);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xCAFEu);
}

TEST_F(VmemTest, DestroyContextReleasesExclusiveIoWindow) {
  hw::Machine machine;
  auto* timer = machine.AddDevice(std::make_unique<hw::TimerDevice>("t", 0));
  Context* user = vmem_.CreateContext("user", kernel_);
  ASSERT_TRUE(vmem_.MapDeviceRegisters(user, timer).ok());
  ASSERT_TRUE(vmem_.DestroyContext(user).ok());
  // The exclusivity died with the context; the device is mappable again.
  EXPECT_TRUE(vmem_.MapDeviceRegisters(kernel_, timer).ok());
}

TEST_F(VmemTest, HandlerSlotsRecycledAcrossContextDestruction) {
  // Create/destroy contexts with handlers repeatedly: the flat pool must
  // recycle slots instead of growing without bound.
  for (int round = 0; round < 4; ++round) {
    Context* user = vmem_.CreateContext("user", kernel_);
    for (int i = 0; i < 8; ++i) {
      VAddr addr = user->AllocateRegion(1);
      ASSERT_TRUE(vmem_.SetFaultHandler(user, addr, [](const FaultInfo&) {
        return Status(ErrorCode::kPermissionDenied, "nope");
      }).ok());
    }
    ASSERT_TRUE(vmem_.DestroyContext(user).ok());
  }
  // No direct pool-size accessor on purpose; the property under test is that
  // behaviour stays correct after heavy recycling.
  Context* user = vmem_.CreateContext("user", kernel_);
  VAddr addr = user->AllocateRegion(1);
  int runs = 0;
  ASSERT_TRUE(vmem_.SetFaultHandler(user, addr, [&](const FaultInfo&) {
    ++runs;
    return Status(ErrorCode::kPermissionDenied, "still fine");
  }).ok());
  EXPECT_FALSE(vmem_.ReadU64(user, addr).ok());
  EXPECT_EQ(runs, 1);
}

class VmemAllocSweep : public ::testing::TestWithParam<size_t> {};

// Property: alloc/free round trips of any size restore the free-page count.
TEST_P(VmemAllocSweep, AllocFreeRestoresFreePages) {
  VirtualMemoryService vmem(128);
  Context* kernel = vmem.kernel_context();
  size_t before = vmem.free_pages();
  auto base = vmem.AllocatePages(kernel, GetParam(), kProtReadWrite);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(vmem.free_pages(), before - GetParam());
  ASSERT_TRUE(vmem.FreePages(kernel, *base, GetParam()).ok());
  EXPECT_EQ(vmem.free_pages(), before);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VmemAllocSweep, ::testing::Values(1, 2, 3, 7, 16, 64, 128));

}  // namespace
}  // namespace para::nucleus
