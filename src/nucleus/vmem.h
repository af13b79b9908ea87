// Memory-management service (§3): virtual and physical pages, MMU contexts,
// exclusive/shared allocation, per-page fault call-backs, and I/O-space
// allocation. This is a *software MMU*: components access memory through
// Read/Write/ReadU64/WriteU64, which translate through the owning context's
// page table and deliver faults exactly where real hardware would.
//
// Cross-domain invocation (§3 directory service) is built on the per-page
// fault call-backs this service provides, as in the paper (which cites
// SPACE's fault-based cross-domain calls).
#ifndef PARAMECIUM_SRC_NUCLEUS_VMEM_H_
#define PARAMECIUM_SRC_NUCLEUS_VMEM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/status.h"
#include "src/base/telemetry.h"
#include "src/hw/device.h"
#include "src/nucleus/context.h"
#include "src/obj/object.h"

namespace para::nucleus {

// Why a page access faulted.
enum class FaultKind : uint8_t { kNotPresent, kProtection, kFaultHandler };

struct FaultInfo {
  Context* context;
  VAddr vaddr;
  FaultKind kind;
  bool write;
};

// Per-page fault call-back: return OkStatus to retry the access (the handler
// is expected to have fixed the mapping), anything else to fail the access.
using FaultHandler = std::function<Status(const FaultInfo&)>;

struct VmemStats {
  uint64_t pages_allocated = 0;
  uint64_t pages_freed = 0;
  uint64_t faults = 0;
  uint64_t fault_handler_runs = 0;
  uint64_t shared_mappings = 0;
  uint64_t io_mappings = 0;
};

class VirtualMemoryService : public obj::Object {
 public:
  // `physical_pages` is the size of the simulated physical memory.
  explicit VirtualMemoryService(size_t physical_pages);

  // --- context management ---
  Context* CreateContext(std::string name, Context* parent);
  Status DestroyContext(Context* context);
  Context* kernel_context() { return contexts_.front().get(); }
  Context* FindContext(ContextId id);

  // --- page allocation (§3: "pages can be allocated exclusively or shared
  // among different protection domains") ---

  // Allocates `count` fresh physical pages and maps them at a fresh virtual
  // region of `context`. Returns the base virtual address.
  Result<VAddr> AllocatePages(Context* context, size_t count, uint8_t prot);

  // Maps the physical pages backing [vaddr, vaddr + count*kPageSize) of
  // `from` into a fresh region of `to` (shared memory). Returns the base
  // address in `to`.
  Result<VAddr> SharePages(Context* from, VAddr vaddr, size_t count, Context* to, uint8_t prot);

  // Unmaps; frees physical pages when the last mapping goes away.
  Status FreePages(Context* context, VAddr vaddr, size_t count);

  Status Protect(Context* context, VAddr vaddr, size_t count, uint8_t prot);

  // Installs a fault call-back on one page ("individual virtual pages can
  // have fault call-backs associated with them"). The page need not be
  // mapped: installing a handler on an unmapped address creates a
  // fault-only PTE — this is what proxies use.
  Status SetFaultHandler(Context* context, VAddr vaddr, FaultHandler handler);
  Status ClearFaultHandler(Context* context, VAddr vaddr);

  // Raises a fault on `vaddr` as if the CPU had trapped on it, running the
  // installed per-page fault handler. Cross-domain proxies use this to model
  // "each interface entry will cause a page fault when referenced" (§3).
  Status Fault(Context* context, VAddr vaddr, FaultKind kind, bool write) {
    return RaiseFault(context, vaddr, kind, write);
  }

  // --- access through the software MMU ---
  //
  // Read/Write copy a span page by page: a translation-cache hit costs one
  // lookup, a miss resolves the page (running its fault handler). A page
  // that fails stops the copy with its error, after the pages before it
  // have been copied. Every page's bytes move through CopyBytes
  // (src/base/copy.h), not an inline memcpy: these calls carry each proxied
  // call's 48-byte argument frame and 8-byte result and each frame a stack
  // or driver stages, and GCC would expand a memcpy bounded by the page size
  // into a `rep movsq` that costs more to start than those copies take.
  Status Read(Context* context, VAddr vaddr, std::span<uint8_t> out);
  Status Write(Context* context, VAddr vaddr, std::span<const uint8_t> data);
  Result<uint64_t> ReadU64(Context* context, VAddr vaddr);
  Status WriteU64(Context* context, VAddr vaddr, uint64_t value);

  // Translates to a host pointer (used by trusted kernel-domain code that
  // has already been certified; bypasses per-access checks).
  Result<uint8_t*> TranslateForKernel(Context* context, VAddr vaddr, size_t len, bool write);

  // Translates a multi-page range to a host span, provided the backing
  // physical pages are contiguous (true for any AllocatePages region). This
  // is the bind-time half of the invocation fast path: proxies resolve
  // their argument and payload windows once and the per-call copies become
  // single memcpys. The span stays valid as long as the mapping does —
  // callers own the pages they translate and must not free or reprotect
  // them while holding the span.
  Result<std::span<uint8_t>> TranslateSpan(Context* context, VAddr vaddr, size_t len,
                                           bool write);

  // --- I/O space (§3: exclusive register windows, shared device buffers) ---
  //
  // I/O pages bypass the translation cache and byte access (Read/Write); they
  // are reached only through the accessors below, and every page they touch
  // goes through ResolvePage, so protection and fault handlers apply as for
  // memory. Shared error codes: a page that is not an I/O window is
  // kInvalidArgument, a retired window kUnavailable.
  //
  //   register window  ReadIo32/WriteIo32 only: 32-bit accesses with device
  //                    side effects. An offset whose 4 bytes run past the
  //                    device's register block is kOutOfRange (the device is
  //                    never asked). ReadIo/WriteIo reject it (kInvalidArgument).
  //   buffer window    ReadIo/WriteIo copy a span; ReadIo32/WriteIo32 are the
  //                    4-byte case of the same path. A span must stay inside
  //                    one device's buffer: running past its end — into
  //                    whatever is mapped next, even another device's
  //                    window — is kOutOfRange.
  //
  // Span copies resolve and check every page before moving a byte, so a
  // failed call copies nothing.

  // Maps a device register block into `context`. Exclusive: only one context
  // may hold it. Returns the I/O virtual base.
  Result<VAddr> MapDeviceRegisters(Context* context, hw::Device* device);
  // Maps the device's on-board buffer; shareable across contexts.
  Result<VAddr> MapDeviceBuffer(Context* context, hw::Device* device, uint8_t prot);
  Status UnmapIo(Context* context, VAddr vaddr);

  Result<uint32_t> ReadIo32(Context* context, VAddr vaddr);
  Status WriteIo32(Context* context, VAddr vaddr, uint32_t value);

  // Span copies out of / into a device-buffer window (one page lookup per
  // page). An empty span succeeds without touching the mapping.
  Status ReadIo(Context* context, VAddr vaddr, std::span<uint8_t> out);
  Status WriteIo(Context* context, VAddr vaddr, std::span<const uint8_t> data);

  // `len` bytes between a device-buffer window at `vaddr` and memory at
  // `dest`/`src` of the same context, in one copy: a driver moves a frame
  // between its caller's buffer and the device without staging it. The
  // window span is checked as ReadIo/WriteIo check it, before any byte
  // moves; the memory side is then copied, and can fail, as Write/Read copy
  // it. len 0 succeeds without touching either side.
  Status ReadIoToMemory(Context* context, VAddr vaddr, VAddr dest, size_t len);
  Status WriteIoFromMemory(Context* context, VAddr vaddr, VAddr src, size_t len);

  const VmemStats& stats() const { return stats_; }
  size_t free_pages() const;
  size_t physical_pages() const { return page_refcount_.size(); }

 private:
  struct IoWindow {
    hw::Device* device = nullptr;
    bool registers = false;  // true: register block; false: device buffer
    Context* exclusive_owner = nullptr;
    size_t buffer_page_offset = 0;  // byte offset of this window's page in the device buffer
  };

  // Resolves one page access; runs fault handlers and retries once. On
  // success, fills the context's translation cache for plain memory pages.
  Result<Pte*> ResolvePage(Context* context, VAddr vaddr, bool write);
  Status RaiseFault(Context* context, VAddr vaddr, FaultKind kind, bool write);

  // Resolves the page of `vaddr` to its live I/O window (by value: a fault
  // handler run by a later resolution may grow io_windows_).
  Result<IoWindow> ResolveIoWindow(Context* context, VAddr vaddr, bool write);
  // Resolves [vaddr, vaddr + len) to the device-buffer bytes behind it, given
  // `first`, the window of vaddr's page (a register window is rejected), and
  // checks every further page before returning.
  Result<std::span<uint8_t>> ResolveIoBuffer(Context* context, VAddr vaddr,
                                             const IoWindow& first, size_t len, bool write);

  // Flat fault-handler pool. PTEs store slot indices; a deque keeps the
  // slots address-stable so a running handler may register further handlers
  // (demand-mapping chains) without invalidating itself.
  uint32_t AllocHandlerSlot(FaultHandler handler);
  void ReleaseHandlerSlot(uint32_t index);

  uint8_t* PagePtr(PhysPage page) { return memory_.data() + static_cast<size_t>(page) * kPageSize; }

  std::vector<uint8_t> memory_;            // simulated physical memory
  Bitmap page_bitmap_;                     // physical allocator
  std::vector<uint16_t> page_refcount_;    // sharing refcounts
  std::vector<std::unique_ptr<Context>> contexts_;
  std::deque<FaultHandler> handler_pool_;  // indexed by Pte::handler
  std::vector<uint32_t> handler_free_;     // recycled pool slots
  std::vector<IoWindow> io_windows_;       // indexed by Pte::phys for io PTEs
  ContextId next_context_id_ = 0;
  VmemStats stats_;
  // Aliases onto stats_ — declared last so they unregister first.
  telemetry::ScopedMetricGroup metrics_;
};

}  // namespace para::nucleus

#endif  // PARAMECIUM_SRC_NUCLEUS_VMEM_H_
