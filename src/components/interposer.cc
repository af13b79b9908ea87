#include "src/components/interposer.h"

#include "src/base/log.h"
#include "src/hw/netdev.h"

namespace para::components {

uint64_t CallMonitor::Trampoline(void* state, uint64_t a0, uint64_t a1, uint64_t a2,
                                 uint64_t a3) {
  auto* record = static_cast<SlotRecord*>(state);
  CallMonitor* monitor = record->monitor;
  ++record->calls;
  ++monitor->total_calls_;
  // The process-wide ring gets an instant event too, so monitored calls show
  // up between spans in the chrome-trace export (arg = slot).
  PARA_TRACE_INSTANT("components.monitor.call", record->slot);
  // Forward to the original implementation (delegation).
  uint64_t result = record->target_iface->Invoke(record->slot, a0, a1, a2, a3);
  if (monitor->trace_limit_ > 0) {
    MonitorRecord entry{record->interface_name, record->slot, a0, a1, result};
    if (monitor->ring_.size() < monitor->trace_limit_) {
      monitor->ring_.push_back(std::move(entry));
    } else {
      monitor->ring_[monitor->ring_pos_ % monitor->trace_limit_] = std::move(entry);
    }
    ++monitor->ring_pos_;
  }
  return result;
}

std::vector<MonitorRecord> CallMonitor::trace() const {
  std::vector<MonitorRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < trace_limit_ || trace_limit_ == 0) {
    out = ring_;  // never wrapped: ring order is chronological
  } else {
    const size_t head = ring_pos_ % trace_limit_;  // oldest surviving entry
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head + i) % trace_limit_]);
    }
  }
  return out;
}

std::unique_ptr<CallMonitor> CallMonitor::Wrap(obj::Object* target, size_t trace_limit) {
  PARA_CHECK(target != nullptr);
  auto monitor = std::unique_ptr<CallMonitor>(new CallMonitor(trace_limit));
  for (const std::string& name : target->InterfaceNames()) {
    auto target_iface = target->GetInterface(name);
    PARA_CHECK(target_iface.ok());
    const obj::TypeInfo* type = (*target_iface)->type();
    obj::Interface mirrored(type, nullptr);
    for (size_t slot = 0; slot < type->method_count(); ++slot) {
      auto record = std::make_unique<SlotRecord>();
      record->monitor = monitor.get();
      record->target_iface = *target_iface;
      record->interface_name = name;
      record->slot = slot;
      mirrored.SetSlot(slot, &CallMonitor::Trampoline, record.get());
      monitor->records_.push_back(std::move(record));
    }
    monitor->ExportInterface(name, std::move(mirrored));
  }
  // The superset: a measurement interface alongside the mirrored ones.
  if (!monitor->Exports(MeasurementType()->name())) {
    obj::Interface measurement(MeasurementType(), monitor.get());
    measurement.SetSlot(0, obj::Thunk<CallMonitor, &CallMonitor::Invocations>());
    measurement.SetSlot(1, obj::Thunk<CallMonitor, &CallMonitor::ResetMeasurement>());
    monitor->ExportInterface(MeasurementType()->name(), std::move(measurement));
  }
  // Per-slot counters double as registry metrics (aliases: the SlotRecord
  // fields stay the source of truth, so calls_for() is telemetry-free).
  monitor->metrics_.Counter("components.monitor.total_calls", &monitor->total_calls_);
  for (const auto& record : monitor->records_) {
    monitor->metrics_.Counter(
        "components.monitor." + record->interface_name + "." +
            record->target_iface->type()->method_name(record->slot),
        &record->calls);
  }
  return monitor;
}

uint64_t CallMonitor::calls_for(const std::string& interface_name, size_t slot) const {
  for (const auto& record : records_) {
    if (record->interface_name == interface_name && record->slot == slot) {
      return record->calls;
    }
  }
  return 0;
}

uint64_t PacketSnoop::SendTap(void* state, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3) {
  auto* snoop = static_cast<PacketSnoop*>(state);
  // Quietly copy the outgoing payload before forwarding. The caller observes
  // nothing: same result, same interface. A payload longer than a frame is
  // not captured (the driver refuses to send it) but still forwarded, so
  // the caller gets the driver's own refusal.
  if (a1 <= hw::NetworkDevice::kMaxFrame) {
    std::vector<uint8_t> copy(a1);
    if (snoop->vmem_->Read(snoop->domain_, a0, copy).ok()) {
      snoop->captured_.push_back(std::move(copy));
    }
  }
  return snoop->target_iface_->Invoke(0, a0, a1, a2, a3);
}

Result<std::unique_ptr<PacketSnoop>> PacketSnoop::Wrap(obj::Object* target,
                                                       nucleus::VirtualMemoryService* vmem,
                                                       nucleus::Context* domain) {
  if (target == nullptr || vmem == nullptr || domain == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "bad snoop request");
  }
  auto target_iface = target->GetInterface(NetDriverType()->name());
  if (!target_iface.ok()) {
    return Status(ErrorCode::kInvalidArgument, "target is not a network driver");
  }
  auto snoop = std::unique_ptr<PacketSnoop>(new PacketSnoop(vmem, domain));
  snoop->target_iface_ = *target_iface;

  // Start from a copy of the original interface (all slots forward
  // unchanged), then reimplement just "send".
  obj::Interface iface = **target_iface;
  iface.SetSlot(0, &PacketSnoop::SendTap, snoop.get());
  snoop->ExportInterface(NetDriverType()->name(), std::move(iface));
  return snoop;
}

}  // namespace para::components
