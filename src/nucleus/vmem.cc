#include "src/nucleus/vmem.h"

#include <cstring>

#include "src/base/copy.h"
#include "src/base/log.h"

namespace para::nucleus {

VirtualMemoryService::VirtualMemoryService(size_t physical_pages)
    : memory_(physical_pages * kPageSize, 0),
      page_bitmap_(physical_pages),
      page_refcount_(physical_pages, 0) {
  // Context 0 is the kernel protection domain.
  contexts_.push_back(std::make_unique<Context>(next_context_id_++, "kernel", nullptr));
  metrics_.Counter("nucleus.vmem.pages_allocated", &stats_.pages_allocated);
  metrics_.Counter("nucleus.vmem.pages_freed", &stats_.pages_freed);
  metrics_.Counter("nucleus.vmem.faults", &stats_.faults);
  metrics_.Counter("nucleus.vmem.fault_handler_runs", &stats_.fault_handler_runs);
  metrics_.Counter("nucleus.vmem.shared_mappings", &stats_.shared_mappings);
  metrics_.Counter("nucleus.vmem.io_mappings", &stats_.io_mappings);
}

Context* VirtualMemoryService::CreateContext(std::string name, Context* parent) {
  contexts_.push_back(
      std::make_unique<Context>(next_context_id_++, std::move(name), parent));
  return contexts_.back().get();
}

Status VirtualMemoryService::DestroyContext(Context* context) {
  if (context == nullptr || context->is_kernel()) {
    return Status(ErrorCode::kInvalidArgument, "cannot destroy kernel context");
  }
  for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
    if (it->get() == context) {
      // Tear down the page table: fault-handler slots go back to the pool
      // (the PTE indices die with the table), backed pages drop their
      // reference — shared mappings held by other contexts keep the
      // physical page alive, everything else returns to the allocator —
      // and exclusively-held register windows are retired so the device
      // can be mapped again.
      for (const auto& [vpage, pte] : context->page_table()) {
        if (pte.handler != kNoFaultHandler) {
          ReleaseHandlerSlot(pte.handler);
        }
        if (pte.backed) {
          PARA_CHECK(page_refcount_[pte.phys] > 0);
          if (--page_refcount_[pte.phys] == 0) {
            page_bitmap_.Clear(pte.phys);
            ++stats_.pages_freed;
          }
        }
        if (pte.io) {
          IoWindow& window = io_windows_[pte.phys];
          if (window.registers && window.exclusive_owner == context) {
            window.exclusive_owner = nullptr;
            window.device = nullptr;  // window retired
          }
        }
      }
      contexts_.erase(it);
      return OkStatus();
    }
  }
  return Status(ErrorCode::kNotFound, "unknown context");
}

Context* VirtualMemoryService::FindContext(ContextId id) {
  for (const auto& context : contexts_) {
    if (context->id() == id) {
      return context.get();
    }
  }
  return nullptr;
}

Result<VAddr> VirtualMemoryService::AllocatePages(Context* context, size_t count, uint8_t prot) {
  if (context == nullptr || count == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad allocation request");
  }
  PARA_ASSIGN_OR_RETURN(size_t first, page_bitmap_.AllocateRun(count));
  VAddr base = context->AllocateRegion(count);
  for (size_t i = 0; i < count; ++i) {
    PhysPage page = static_cast<PhysPage>(first + i);
    page_refcount_[page] = 1;
    std::memset(PagePtr(page), 0, kPageSize);
    Pte pte;
    pte.phys = page;
    pte.prot = prot;
    pte.backed = true;
    context->Install(base + i * kPageSize, pte);
  }
  stats_.pages_allocated += count;
  return base;
}

Result<VAddr> VirtualMemoryService::SharePages(Context* from, VAddr vaddr, size_t count,
                                               Context* to, uint8_t prot) {
  if (from == nullptr || to == nullptr || count == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad share request");
  }
  // Validate the whole source range first so sharing is all-or-nothing.
  for (size_t i = 0; i < count; ++i) {
    const Pte* pte = from->Lookup(vaddr + i * kPageSize);
    if (pte == nullptr || pte->io) {
      return Status(ErrorCode::kNotFound, "source range not mapped");
    }
  }
  VAddr base = to->AllocateRegion(count);
  for (size_t i = 0; i < count; ++i) {
    Pte* src = from->LookupMutable(vaddr + i * kPageSize);
    src->shared = true;
    ++page_refcount_[src->phys];
    Pte pte;
    pte.phys = src->phys;
    pte.prot = prot;
    pte.shared = true;
    pte.backed = true;
    to->Install(base + i * kPageSize, pte);
  }
  stats_.shared_mappings += count;
  return base;
}

Status VirtualMemoryService::FreePages(Context* context, VAddr vaddr, size_t count) {
  if (context == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "null context");
  }
  for (size_t i = 0; i < count; ++i) {
    VAddr addr = vaddr + i * kPageSize;
    Pte* pte = context->LookupMutable(addr);
    if (pte == nullptr) {
      return Status(ErrorCode::kNotFound, "page not mapped");
    }
    if (pte->backed) {
      PARA_CHECK(page_refcount_[pte->phys] > 0);
      if (--page_refcount_[pte->phys] == 0) {
        page_bitmap_.Clear(pte->phys);
        ++stats_.pages_freed;
      }
    }
    if (pte->handler != kNoFaultHandler) {
      ReleaseHandlerSlot(pte->handler);
    }
    context->Uninstall(addr);
  }
  return OkStatus();
}

Status VirtualMemoryService::Protect(Context* context, VAddr vaddr, size_t count, uint8_t prot) {
  for (size_t i = 0; i < count; ++i) {
    Pte* pte = context->LookupMutable(vaddr + i * kPageSize);
    if (pte == nullptr) {
      return Status(ErrorCode::kNotFound, "page not mapped");
    }
    pte->prot = prot;
    context->TlbInvalidate(vaddr + i * kPageSize);
  }
  return OkStatus();
}

uint32_t VirtualMemoryService::AllocHandlerSlot(FaultHandler handler) {
  if (!handler_free_.empty()) {
    uint32_t index = handler_free_.back();
    handler_free_.pop_back();
    handler_pool_[index] = std::move(handler);
    return index;
  }
  handler_pool_.push_back(std::move(handler));
  return static_cast<uint32_t>(handler_pool_.size() - 1);
}

void VirtualMemoryService::ReleaseHandlerSlot(uint32_t index) {
  handler_pool_[index] = nullptr;
  handler_free_.push_back(index);
}

Status VirtualMemoryService::SetFaultHandler(Context* context, VAddr vaddr,
                                             FaultHandler handler) {
  if (context == nullptr || handler == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "bad fault handler");
  }
  Pte* pte = context->LookupMutable(vaddr);
  if (pte == nullptr) {
    // Fault-only PTE: no backing page, every touch runs the handler.
    Pte fresh;
    fresh.prot = kProtNone;
    fresh.handler = AllocHandlerSlot(std::move(handler));
    context->Install(vaddr, fresh);
  } else if (pte->has_fault_handler()) {
    handler_pool_[pte->handler] = std::move(handler);  // replace in place
  } else {
    pte->handler = AllocHandlerSlot(std::move(handler));
  }
  return OkStatus();
}

Status VirtualMemoryService::ClearFaultHandler(Context* context, VAddr vaddr) {
  Pte* pte = context->LookupMutable(vaddr);
  if (pte == nullptr || pte->handler == kNoFaultHandler) {
    return Status(ErrorCode::kNotFound, "no handler installed");
  }
  ReleaseHandlerSlot(pte->handler);
  pte->handler = kNoFaultHandler;
  return OkStatus();
}

Status VirtualMemoryService::RaiseFault(Context* context, VAddr vaddr, FaultKind kind,
                                        bool write) {
  ++stats_.faults;
  Pte* pte = context->LookupMutable(vaddr);
  if (pte == nullptr || pte->handler == kNoFaultHandler) {
    return Status(ErrorCode::kFault, "unhandled page fault");
  }
  ++stats_.fault_handler_runs;
  FaultInfo info{context, vaddr, kind, write};
  // The deque keeps slots address-stable, so the handler may install
  // further handlers (growing the pool) while it runs.
  return handler_pool_[pte->handler](info);
}

Result<Pte*> VirtualMemoryService::ResolvePage(Context* context, VAddr vaddr, bool write) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    Pte* pte = context->LookupMutable(vaddr);
    FaultKind kind;
    if (pte == nullptr) {
      kind = FaultKind::kNotPresent;
    } else if (pte->has_fault_handler() && pte->prot == kProtNone) {
      kind = FaultKind::kFaultHandler;  // fault-only page (proxy entry)
    } else if ((write && (pte->prot & kProtWrite) == 0) ||
               (!write && (pte->prot & kProtRead) == 0)) {
      kind = FaultKind::kProtection;
    } else {
      if (!pte->io) {
        context->TlbFill(vaddr, PagePtr(pte->phys), pte->prot);
      }
      return pte;  // access permitted
    }
    PARA_RETURN_IF_ERROR(RaiseFault(context, vaddr, kind, write));
    // Handler claims to have fixed the mapping; retry once.
  }
  return Status(ErrorCode::kFault, "fault handler did not repair mapping");
}

Status VirtualMemoryService::Read(Context* context, VAddr vaddr, std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    VAddr addr = vaddr + done;
    size_t in_page = kPageSize - (addr % kPageSize);
    size_t chunk = std::min(in_page, out.size() - done);
    if (uint8_t* host = context->TlbLookup(addr, kProtRead)) {
      CopyBytes(out.data() + done, host + (addr % kPageSize), chunk);
      done += chunk;
      continue;
    }
    PARA_ASSIGN_OR_RETURN(Pte * pte, ResolvePage(context, addr, /*write=*/false));
    if (pte->io) {
      return Status(ErrorCode::kInvalidArgument, "byte access to I/O window");
    }
    CopyBytes(out.data() + done, PagePtr(pte->phys) + (addr % kPageSize), chunk);
    done += chunk;
  }
  return OkStatus();
}

Status VirtualMemoryService::Write(Context* context, VAddr vaddr,
                                   std::span<const uint8_t> data) {
  size_t done = 0;
  while (done < data.size()) {
    VAddr addr = vaddr + done;
    size_t in_page = kPageSize - (addr % kPageSize);
    size_t chunk = std::min(in_page, data.size() - done);
    if (uint8_t* host = context->TlbLookup(addr, kProtWrite)) {
      CopyBytes(host + (addr % kPageSize), data.data() + done, chunk);
      done += chunk;
      continue;
    }
    PARA_ASSIGN_OR_RETURN(Pte * pte, ResolvePage(context, addr, /*write=*/true));
    if (pte->io) {
      return Status(ErrorCode::kInvalidArgument, "byte access to I/O window");
    }
    CopyBytes(PagePtr(pte->phys) + (addr % kPageSize), data.data() + done, chunk);
    done += chunk;
  }
  return OkStatus();
}

Result<uint64_t> VirtualMemoryService::ReadU64(Context* context, VAddr vaddr) {
  uint64_t value = 0;
  PARA_RETURN_IF_ERROR(Read(context, vaddr, std::span<uint8_t>(
                                                reinterpret_cast<uint8_t*>(&value), 8)));
  return value;
}

Status VirtualMemoryService::WriteU64(Context* context, VAddr vaddr, uint64_t value) {
  return Write(context, vaddr,
               std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), 8));
}

Result<uint8_t*> VirtualMemoryService::TranslateForKernel(Context* context, VAddr vaddr,
                                                          size_t len, bool write) {
  if (len == 0 || (vaddr % kPageSize) + len > kPageSize) {
    return Status(ErrorCode::kOutOfRange, "kernel translation must stay within one page");
  }
  PARA_ASSIGN_OR_RETURN(Pte * pte, ResolvePage(context, vaddr, write));
  if (pte->io) {
    return Status(ErrorCode::kInvalidArgument, "cannot translate I/O window");
  }
  return PagePtr(pte->phys) + (vaddr % kPageSize);
}

Result<std::span<uint8_t>> VirtualMemoryService::TranslateSpan(Context* context, VAddr vaddr,
                                                               size_t len, bool write) {
  if (context == nullptr || len == 0) {
    return Status(ErrorCode::kInvalidArgument, "bad span translation request");
  }
  VAddr first_page = vaddr & ~(kPageSize - 1);
  size_t offset = vaddr % kPageSize;
  size_t pages = (offset + len + kPageSize - 1) / kPageSize;
  PhysPage first_phys = 0;
  for (size_t i = 0; i < pages; ++i) {
    PARA_ASSIGN_OR_RETURN(Pte * pte,
                          ResolvePage(context, first_page + i * kPageSize, write));
    if (pte->io) {
      return Status(ErrorCode::kInvalidArgument, "cannot translate I/O window");
    }
    if (i == 0) {
      first_phys = pte->phys;
    } else if (pte->phys != first_phys + i) {
      return Status(ErrorCode::kFailedPrecondition, "range not physically contiguous");
    }
  }
  return std::span<uint8_t>(PagePtr(first_phys) + offset, len);
}

Result<VAddr> VirtualMemoryService::MapDeviceRegisters(Context* context, hw::Device* device) {
  if (context == nullptr || device == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "bad io mapping request");
  }
  // Exclusive: "allowing device registers to be mapped privately".
  for (const auto& window : io_windows_) {
    if (window.device == device && window.registers && window.exclusive_owner != nullptr) {
      return Status(ErrorCode::kPermissionDenied, "registers already mapped exclusively");
    }
  }
  io_windows_.push_back(IoWindow{device, /*registers=*/true, context});
  Pte pte;
  pte.phys = static_cast<PhysPage>(io_windows_.size() - 1);
  pte.prot = kProtReadWrite;
  pte.io = true;
  VAddr base = context->AllocateRegion(1);
  context->Install(base, pte);
  ++stats_.io_mappings;
  return base;
}

Result<VAddr> VirtualMemoryService::MapDeviceBuffer(Context* context, hw::Device* device,
                                                    uint8_t prot) {
  if (context == nullptr || device == nullptr || device->device_buffer().empty()) {
    return Status(ErrorCode::kInvalidArgument, "device has no buffer");
  }
  // Shared: "on-device buffers to be shared by other contexts". One window
  // entry per page so each PTE knows its byte offset into the buffer.
  size_t pages = (device->device_buffer().size() + kPageSize - 1) / kPageSize;
  VAddr base = context->AllocateRegion(pages);
  for (size_t i = 0; i < pages; ++i) {
    io_windows_.push_back(IoWindow{device, /*registers=*/false, nullptr, i * kPageSize});
    Pte pte;
    pte.phys = static_cast<PhysPage>(io_windows_.size() - 1);
    pte.prot = prot;
    pte.io = true;
    pte.shared = true;
    context->Install(base + i * kPageSize, pte);
  }
  ++stats_.io_mappings;
  return base;
}

Status VirtualMemoryService::UnmapIo(Context* context, VAddr vaddr) {
  Pte* pte = context->LookupMutable(vaddr);
  if (pte == nullptr || !pte->io) {
    return Status(ErrorCode::kNotFound, "no io mapping");
  }
  IoWindow& window = io_windows_[pte->phys];
  if (window.registers && window.exclusive_owner == context) {
    window.exclusive_owner = nullptr;
    window.device = nullptr;  // window retired
  }
  context->Uninstall(vaddr);
  return OkStatus();
}

Result<VirtualMemoryService::IoWindow> VirtualMemoryService::ResolveIoWindow(Context* context,
                                                                           VAddr vaddr,
                                                                           bool write) {
  PARA_ASSIGN_OR_RETURN(Pte * pte, ResolvePage(context, vaddr, write));
  if (!pte->io) {
    return Status(ErrorCode::kInvalidArgument, "not an io window");
  }
  const IoWindow& window = io_windows_[pte->phys];
  if (window.device == nullptr) {
    return Status(ErrorCode::kUnavailable, "io window retired");
  }
  return window;
}

Result<std::span<uint8_t>> VirtualMemoryService::ResolveIoBuffer(Context* context, VAddr vaddr,
                                                                 const IoWindow& first,
                                                                 size_t len, bool write) {
  if (first.registers) {
    return Status(ErrorCode::kInvalidArgument, "span access to a register window");
  }
  std::span<uint8_t> buffer = first.device->device_buffer();
  size_t start = first.buffer_page_offset + vaddr % kPageSize;
  if (start + len > buffer.size()) {
    return Status(ErrorCode::kOutOfRange, "io span runs past the device buffer");
  }
  // The first page is resolved; each further page must resolve to the next
  // page of the same device's buffer.
  VAddr first_page = vaddr & ~(kPageSize - 1);
  size_t pages = (vaddr % kPageSize + len + kPageSize - 1) / kPageSize;
  for (size_t i = 1; i < pages; ++i) {
    PARA_ASSIGN_OR_RETURN(Pte * pte, ResolvePage(context, first_page + i * kPageSize, write));
    const IoWindow* next = pte->io ? &io_windows_[pte->phys] : nullptr;
    if (next == nullptr || next->registers || next->device != first.device ||
        next->buffer_page_offset != first.buffer_page_offset + i * kPageSize) {
      return Status(ErrorCode::kOutOfRange, "io span leaves the device buffer window");
    }
  }
  return buffer.subspan(start, len);
}

Result<uint32_t> VirtualMemoryService::ReadIo32(Context* context, VAddr vaddr) {
  PARA_ASSIGN_OR_RETURN(IoWindow window, ResolveIoWindow(context, vaddr, /*write=*/false));
  size_t offset = vaddr % kPageSize;
  if (window.registers) {
    if (offset + 4 > window.device->register_block().size()) {
      return Status(ErrorCode::kOutOfRange, "io register read past the register block");
    }
    return window.device->ReadReg(offset);
  }
  PARA_ASSIGN_OR_RETURN(std::span<uint8_t> bytes,
                        ResolveIoBuffer(context, vaddr, window, 4, /*write=*/false));
  uint32_t value;
  std::memcpy(&value, bytes.data(), 4);
  return value;
}

Status VirtualMemoryService::WriteIo32(Context* context, VAddr vaddr, uint32_t value) {
  PARA_ASSIGN_OR_RETURN(IoWindow window, ResolveIoWindow(context, vaddr, /*write=*/true));
  size_t offset = vaddr % kPageSize;
  if (window.registers) {
    if (offset + 4 > window.device->register_block().size()) {
      return Status(ErrorCode::kOutOfRange, "io register write past the register block");
    }
    window.device->WriteReg(offset, value);
    return OkStatus();
  }
  PARA_ASSIGN_OR_RETURN(std::span<uint8_t> bytes,
                        ResolveIoBuffer(context, vaddr, window, 4, /*write=*/true));
  std::memcpy(bytes.data(), &value, 4);
  return OkStatus();
}

Status VirtualMemoryService::ReadIo(Context* context, VAddr vaddr, std::span<uint8_t> out) {
  if (out.empty()) {
    return OkStatus();
  }
  PARA_ASSIGN_OR_RETURN(IoWindow window, ResolveIoWindow(context, vaddr, /*write=*/false));
  PARA_ASSIGN_OR_RETURN(std::span<uint8_t> bytes,
                        ResolveIoBuffer(context, vaddr, window, out.size(), /*write=*/false));
  CopyBytes(out.data(), bytes.data(), out.size());
  return OkStatus();
}

Status VirtualMemoryService::WriteIo(Context* context, VAddr vaddr,
                                     std::span<const uint8_t> data) {
  if (data.empty()) {
    return OkStatus();
  }
  PARA_ASSIGN_OR_RETURN(IoWindow window, ResolveIoWindow(context, vaddr, /*write=*/true));
  PARA_ASSIGN_OR_RETURN(std::span<uint8_t> bytes,
                        ResolveIoBuffer(context, vaddr, window, data.size(), /*write=*/true));
  CopyBytes(bytes.data(), data.data(), data.size());
  return OkStatus();
}

Status VirtualMemoryService::ReadIoToMemory(Context* context, VAddr vaddr, VAddr dest,
                                            size_t len) {
  if (len == 0) {
    return OkStatus();
  }
  PARA_ASSIGN_OR_RETURN(IoWindow window, ResolveIoWindow(context, vaddr, /*write=*/false));
  PARA_ASSIGN_OR_RETURN(std::span<uint8_t> bytes,
                        ResolveIoBuffer(context, vaddr, window, len, /*write=*/false));
  return Write(context, dest, bytes);
}

Status VirtualMemoryService::WriteIoFromMemory(Context* context, VAddr vaddr, VAddr src,
                                               size_t len) {
  if (len == 0) {
    return OkStatus();
  }
  PARA_ASSIGN_OR_RETURN(IoWindow window, ResolveIoWindow(context, vaddr, /*write=*/true));
  PARA_ASSIGN_OR_RETURN(std::span<uint8_t> bytes,
                        ResolveIoBuffer(context, vaddr, window, len, /*write=*/true));
  return Read(context, src, bytes);
}

size_t VirtualMemoryService::free_pages() const {
  return page_bitmap_.size() - page_bitmap_.CountSet();
}

}  // namespace para::nucleus
