#include "src/sfi/component.h"

#include "src/base/log.h"
#include "src/sfi/verifier.h"

namespace para::sfi {

SfiComponent::SfiComponent(std::shared_ptr<const VerifiedProgram> program, ExecMode mode)
    : program_(std::move(program)), vm_(program_.get(), mode) {}

uint64_t SfiComponent::Trampoline(void* state, uint64_t a0, uint64_t a1, uint64_t a2,
                                  uint64_t a3) {
  auto* record = static_cast<SlotRecord*>(state);
  auto result = record->component->vm_.Run(record->slot, a0, a1, a2, a3);
  if (!result.ok()) {
    PARA_ERROR("sfi method %zu failed: %s", record->slot, result.status().message().data());
    return ~uint64_t{0};
  }
  return *result;
}

Result<std::unique_ptr<SfiComponent>> SfiComponent::Create(Program program,
                                                           const obj::TypeInfo* type,
                                                           ExecMode mode) {
  if (type == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "component needs a type");
  }
  PARA_ASSIGN_OR_RETURN(VerifiedProgram owned, Verify(std::move(program)));
  auto verified = std::make_shared<const VerifiedProgram>(std::move(owned));
  if (verified->entry_points.size() != type->method_count()) {
    return Status(ErrorCode::kInvalidArgument, "entry points do not match interface");
  }
  auto component =
      std::unique_ptr<SfiComponent>(new SfiComponent(std::move(verified), mode));
  obj::Interface iface(type, nullptr);
  for (size_t slot = 0; slot < type->method_count(); ++slot) {
    auto record = std::make_unique<SlotRecord>(SlotRecord{component.get(), slot});
    iface.SetSlot(slot, &SfiComponent::Trampoline, record.get());
    component->records_.push_back(std::move(record));
  }
  component->ExportInterface(type->name(), std::move(iface));
  return component;
}

}  // namespace para::sfi
