// Protocol-stack component: the configurability showcase (§1: "inserting
// application components for fast protocol processing into a shared network
// device driver"; experiment E9).
//
// The component binds to a network driver *by name* through the directory
// service. When instantiated in the driver's protection domain the binding
// is a direct object reference; in any other domain it is a fault-based
// proxy. The component itself is identical in both placements — exactly the
// paper's claim that components "can be configured dynamically to reside
// either in the kernel or in the application's address space".
//
// Frames move through two pages in the home domain, each translated once at
// Setup. Send reads the application's payload straight to its place in the
// TX page, the stack writes the headers and FCS around it, and the driver
// (or the proxy in front of it) reads the frame from there. PumpRx polls
// each frame into the RX page and hands it to the stack where it lies.
#ifndef PARAMECIUM_SRC_COMPONENTS_PROTOCOL_STACK_H_
#define PARAMECIUM_SRC_COMPONENTS_PROTOCOL_STACK_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/components/interfaces.h"
#include "src/net/stack.h"
#include "src/nucleus/directory.h"
#include "src/nucleus/event.h"
#include "src/nucleus/vmem.h"
#include "src/obj/object.h"

namespace para::components {

class StackComponent : public obj::Object {
 public:
  struct Deps {
    nucleus::VirtualMemoryService* vmem = nullptr;
    nucleus::EventService* events = nullptr;
    nucleus::DirectoryService* directory = nullptr;
  };

  // Binds to the driver at `driver_path` from `home` and wires RX interrupts
  // to the stack input path.
  static Result<std::unique_ptr<StackComponent>> Create(Deps deps, nucleus::Context* home,
                                                        const std::string& driver_path,
                                                        net::StackConfig config);

  ~StackComponent() override;

  // A handler bound here reads its payload view in the component's RX page,
  // which the next frame overwrites once the handler returns or blocks.
  net::ProtocolStack& stack() { return *stack_; }
  bool bound_via_proxy() const { return via_proxy_; }
  nucleus::Context* home() const { return home_; }
  // Each bound port queues at most this many datagrams for Recv.
  static constexpr size_t kInboxDepth = 64;

  // Datagrams Recv dropped because they were longer than the caller's buffer.
  uint64_t datagrams_oversize() const { return datagrams_oversize_; }
  // Datagrams dropped at the tail because their port's inbox was full.
  uint64_t datagrams_overflow() const { return datagrams_overflow_; }

  // Pulls every frame the driver has buffered into the stack (also invoked
  // from the RX interrupt pop-up thread).
  void PumpRx();

  // Method implementations (see interfaces.h for the slot contract).
  uint64_t Send(uint64_t dst_ip, uint64_t ports, uint64_t payload_vaddr, uint64_t len);
  uint64_t BindPort(uint64_t port, uint64_t, uint64_t, uint64_t);
  uint64_t Recv(uint64_t port, uint64_t dest_vaddr, uint64_t capacity, uint64_t);
  uint64_t Stats(uint64_t index, uint64_t, uint64_t, uint64_t);

 private:
  StackComponent(Deps deps, nucleus::Context* home) : deps_(deps), home_(home) {}

  // A bound port's queued payloads, copied out of the delivered frames: a
  // ring of kInboxDepth slots, each reusing the storage it grew to.
  struct Inbox {
    std::array<std::vector<uint8_t>, kInboxDepth> slots;
    size_t head = 0;
    size_t count = 0;
  };

  Status Setup(const std::string& driver_path, net::StackConfig config);
  Status SendFrame(std::span<const uint8_t> frame);
  void Enqueue(Inbox& inbox, std::span<const uint8_t> payload);

  Deps deps_;
  nucleus::Context* home_;
  const obj::Interface* driver_ = nullptr;
  bool via_proxy_ = false;
  std::unique_ptr<net::ProtocolStack> stack_;
  nucleus::VAddr tx_buffer_ = 0;  // the stack's TX storage, in the home domain
  nucleus::VAddr rx_buffer_ = 0;
  std::span<uint8_t> tx_page_;         // tx_buffer_, translated once at Setup
  std::span<const uint8_t> rx_frame_;  // rx_buffer_, translated once at Setup
  uint64_t event_registration_ = 0;
  uint64_t datagrams_oversize_ = 0;
  uint64_t datagrams_overflow_ = 0;
  // Map nodes stay put, so each port's handler holds its inbox.
  std::map<net::Port, Inbox> inboxes_;
};

}  // namespace para::components

#endif  // PARAMECIUM_SRC_COMPONENTS_PROTOCOL_STACK_H_
