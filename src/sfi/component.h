// Bridges SFI programs into the object architecture: an SfiComponent is an
// ordinary Paramecium object whose interface slots execute bytecode entry
// points. The same program can be instantiated sandboxed (user-supplied,
// unverified) or trusted (after certification) — the two sides of
// experiment E7. Creation always goes through sfi::Verify: the component
// executes the VerifiedProgram artifact it built.
#ifndef PARAMECIUM_SRC_SFI_COMPONENT_H_
#define PARAMECIUM_SRC_SFI_COMPONENT_H_

#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/obj/object.h"
#include "src/sfi/vm.h"

namespace para::sfi {

class SfiComponent : public obj::Object {
 public:
  // The program must verify; its entry-point count must match the type's
  // method count.
  static Result<std::unique_ptr<SfiComponent>> Create(Program program,
                                                      const obj::TypeInfo* type, ExecMode mode);

  Vm& vm() { return vm_; }
  const VerifiedProgram& verified_program() const { return *program_; }
  const Program& program() const { return program_->program; }

 private:
  struct SlotRecord {
    SfiComponent* component;
    size_t slot;
  };

  SfiComponent(std::shared_ptr<const VerifiedProgram> program, ExecMode mode);

  static uint64_t Trampoline(void* state, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3);

  std::shared_ptr<const VerifiedProgram> program_;
  Vm vm_;
  std::vector<std::unique_ptr<SlotRecord>> records_;
};

}  // namespace para::sfi

#endif  // PARAMECIUM_SRC_SFI_COMPONENT_H_
