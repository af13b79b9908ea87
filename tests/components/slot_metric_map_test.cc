// Stats-slot drift audit (table-driven): every numbered stats slot a
// component serves over its control interface must agree with the slot-name
// table it publishes AND with the registry metric registered under that
// name. A slot added to one of the three without the others fails here.
#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/base/telemetry.h"
#include "src/components/net_driver.h"
#include "src/components/protocol_stack.h"
#include "src/filter/filter.h"
#include "src/filter/rule.h"
#include "src/net/stack.h"
#include "tests/components/test_fixture.h"

namespace para::components {
namespace {

using para::testing::NucleusFixture;

// Looks up `name` in a fresh registry snapshot. Returns false if absent.
bool SnapshotValue(const std::string& name, uint64_t* value) {
  const telemetry::Snapshot snap = telemetry::Registry::Get().TakeSnapshot();
  for (const telemetry::MetricValue& mv : snap.metrics) {
    if (mv.name == name) {
      *value = mv.value;
      return true;
    }
  }
  return false;
}

TEST(SlotMetricMapTest, FilterSlotsMatchTableAndRegistry) {
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  filter::FilterConfig config;
  config.name = "slotmap";
  auto filter = filter::PacketFilter::Create(config);
  ASSERT_TRUE(filter.ok());
  auto rules = filter::ParseRules(
      "pass dport 80\n"
      "default drop\n");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE((*filter)->Load(*rules).ok());

  // Perturb the counters so a wrong slot↔metric pairing cannot hide behind
  // all-zero values: distinct counts of evaluated/pass/drop plus a reload.
  for (int i = 0; i < 3; ++i) {
    net::PacketView view{1, 2, 1234, 80, net::kIpProtoUdpLite, 64, {}};
    (*filter)->Evaluate(view, net::FilterDirection::kIngress);
  }
  net::PacketView dropped{1, 2, 1234, 7777, net::kIpProtoUdpLite, 64, {}};
  (*filter)->Evaluate(dropped, net::FilterDirection::kIngress);

  auto iface = (*filter)->GetInterface(filter::FilterType()->name());
  ASSERT_TRUE(iface.ok());
  for (size_t slot = 0; slot < std::size(filter::kFilterStatsSlots); ++slot) {
    const std::string_view slot_name = filter::kFilterStatsSlots[slot].name;
    ASSERT_FALSE(slot_name.empty()) << "filter slot " << slot << " has no name";
    const std::string metric = "filter.slotmap." + std::string(slot_name);
    uint64_t registry_value = 0;
    ASSERT_TRUE(SnapshotValue(metric, &registry_value)) << metric << " not registered";
    EXPECT_EQ(registry_value, (*iface)->Invoke(0, slot))
        << "slot " << slot << " (" << slot_name << ") disagrees with " << metric;
  }
  // Sanity: the perturbation reached the fields the table points at.
  EXPECT_EQ((*iface)->Invoke(0, 0), 4u);  // evaluated
  EXPECT_EQ((*iface)->Invoke(0, 1), 3u);  // pass
  EXPECT_EQ((*iface)->Invoke(0, 2), 1u);  // drop
}

class StackSlotMapTest : public NucleusFixture {};

TEST_F(StackSlotMapTest, StackSlotsMatchTableAndRegistry) {
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  auto* kernel = nucleus_->kernel_context();
  auto driver = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(nucleus_->directory().Register("/shared/net0", driver->get(), kernel).ok());

  net::StackConfig config;
  config.mac = net_a_->mac();
  config.ip = (10u << 24) | 77;  // -> metrics "net.stack.10.0.0.77.*"
  auto stack = StackComponent::Create(
      StackComponent::Deps{&nucleus_->vmem(), &nucleus_->events(), &nucleus_->directory()},
      kernel, "/shared/net0", config);
  ASSERT_TRUE(stack.ok());

  // Perturb: one datagram out (frames_out/datagrams_out move to 1).
  auto iface = (*stack)->GetInterface(StackType()->name());
  ASSERT_TRUE(iface.ok());
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  (*stack)->stack().AddNeighbor((10u << 24) | 78, net_b_->mac());
  EXPECT_EQ((*iface)->Invoke(0, (10u << 24) | 78, (uint64_t{1111} << 16) | 2222, *buf, 8), 0u);

  for (size_t slot = 0; slot < std::size(net::kStackStatsSlots); ++slot) {
    const std::string_view slot_name = net::kStackStatsSlots[slot].name;
    if (slot == 7 || slot == 11) {
      // Reserved slots: no name, no metric, always read 0.
      EXPECT_TRUE(slot_name.empty());
      EXPECT_EQ((*iface)->Invoke(3, slot), 0u);
      continue;
    }
    ASSERT_FALSE(slot_name.empty()) << "stack slot " << slot << " has no name";
    const std::string metric = "net.stack.10.0.0.77." + std::string(slot_name);
    uint64_t registry_value = 0;
    ASSERT_TRUE(SnapshotValue(metric, &registry_value)) << metric << " not registered";
    EXPECT_EQ(registry_value, (*iface)->Invoke(3, slot))
        << "slot " << slot << " (" << slot_name << ") disagrees with " << metric;
  }
  EXPECT_EQ((*iface)->Invoke(3, 0), 1u);  // frames_out moved
}

class NetDriverSlotMapTest : public NucleusFixture {};

TEST_F(NetDriverSlotMapTest, DriverSlotsMatchTableAndRegistry) {
  if constexpr (!telemetry::kEnabled) GTEST_SKIP() << "built with PARA_NO_TELEMETRY";
  auto* kernel = nucleus_->kernel_context();
  auto driver = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface.ok());

  // The table's rows, by slot number.
  ASSERT_EQ(std::size(kNetDriverStatsSlots), 6u);
  EXPECT_EQ(kNetDriverStatsSlots[4].name, "frames_empty");
  EXPECT_EQ(kNetDriverStatsSlots[5].name, "frames_oversize");

  // Perturb: send one frame through the driver (frames_sent moves to 1).
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  std::vector<uint8_t> frame(64, 0xAB);
  ASSERT_TRUE(nucleus_->vmem().Write(kernel, *buf, frame).ok());
  (*iface)->Invoke(0, *buf, frame.size());

  for (size_t slot = 0; slot < std::size(kNetDriverStatsSlots); ++slot) {
    const std::string_view slot_name = kNetDriverStatsSlots[slot].name;
    if (slot == 3) {
      // Reserved slot (once frames_filtered): no name, no metric, reads 0.
      EXPECT_TRUE(slot_name.empty());
      EXPECT_EQ((*iface)->Invoke(5, slot), 0u);
      uint64_t unused = 0;
      EXPECT_FALSE(SnapshotValue("components.net_driver.frames_filtered", &unused));
      continue;
    }
    ASSERT_FALSE(slot_name.empty()) << "driver slot " << slot << " has no name";
    const std::string metric = "components.net_driver." + std::string(slot_name);
    uint64_t registry_value = 0;
    ASSERT_TRUE(SnapshotValue(metric, &registry_value)) << metric << " not registered";
    EXPECT_EQ(registry_value, (*iface)->Invoke(5, slot))
        << "slot " << slot << " (" << slot_name << ") disagrees with " << metric;
  }
  EXPECT_EQ((*iface)->Invoke(5, 0), 1u);  // frames_sent moved
}

}  // namespace
}  // namespace para::components
