// Interface type registry for the toolbox components. TypeInfos are
// process-lifetime singletons: interface identity is (name, version), and
// evolution happens by exporting additional named interfaces (§2).
//
// Method argument conventions (the uniform u64 convention of obj/interface.h):
// addresses are virtual addresses in the *callee's* protection domain — the
// cross-domain proxy re-maps payload buffers and rewrites the address
// argument, so callees never see foreign addresses.
#ifndef PARAMECIUM_SRC_COMPONENTS_INTERFACES_H_
#define PARAMECIUM_SRC_COMPONENTS_INTERFACES_H_

#include "src/obj/interface.h"

namespace para::components {

// Network device driver.
//   0 send(payload_vaddr, len)            -> 0 ok / ~0 error
//   1 poll_recv(dest_vaddr, capacity)     -> frame length, 0 if none (frames
//                                            longer than capacity are dropped)
//   2 get_mac()                           -> mac
//   3 irq_event()                         -> event number for RX interrupts
//   4 set_rx_irq(enable)                  -> 0
//   5 stats(index)                        -> counter (0 tx, 1 rx, 2 dropped,
//                                            3 reserved, reads 0,
//                                            4 empty frames discarded on RX,
//                                            5 frames dropped by poll_recv
//                                            as longer than capacity)
const obj::TypeInfo* NetDriverType();

// Memory allocator.
//   0 alloc(bytes)      -> vaddr, 0 on exhaustion
//   1 free(vaddr)       -> 0 ok / ~0 unknown block
//   2 allocated_bytes() -> current total
//   3 block_count()     -> live blocks
const obj::TypeInfo* AllocatorType();

// Matrix toolbox object (the paper's example of an application component).
//   0 create(rows, cols)          -> handle
//   1 destroy(handle)             -> 0/~0
//   2 set(handle, index, bits)    -> 0/~0   (bits = bit pattern of a double)
//   3 get(handle, index)          -> bits
//   4 multiply(lhs, rhs)          -> new handle, 0 on mismatch
//   5 sum(handle)                 -> bits of the element sum
const obj::TypeInfo* MatrixType();

// Console driver.
//   0 put_char(c)                 -> 0
//   1 write(vaddr, len)           -> bytes written
//   2 get_char()                  -> char, ~0 if none pending
const obj::TypeInfo* ConsoleType();

// Timer driver.
//   0 program(interval_ns, periodic) -> 0
//   1 stop()                         -> 0
//   2 expirations()                  -> count
//   3 irq_event()                    -> event number
const obj::TypeInfo* TimerType();

// Protocol stack.
//   0 send(dst_ip, ports, payload_vaddr, len) -> 0/~0   ports = src<<16 | dst
//   1 bind_port(port)                          -> 0/~0  (datagrams are queued)
//   2 recv(port, dest_vaddr, capacity)         -> payload length, 0 if none
//   3 stats(index)                             -> counter (see net::kStackStatsSlots)
const obj::TypeInfo* StackType();

// Thread package.
//   0 yield()          -> 0
//   1 sleep(ns)        -> 0
//   2 current_id()     -> thread id, 0 for none
//   3 spawn(fn, arg)   -> thread id   fn = host pointer to void(*)(uint64_t)
const obj::TypeInfo* ThreadPackageType();

// The measurement interface the paper's §2 uses as its interface-evolution
// example ("adding a measurement interface to an RPC object does not require
// recompilation of its users"). Components may export it alongside their
// primary interface.
//   0 invocations()  -> total calls observed
//   1 reset()        -> 0
const obj::TypeInfo* MeasurementType();

// Telemetry exporter: the process-wide metrics registry and trace rings as a
// directory-named object (observability is itself a reconfigurable
// component). The render slot follows the uniform u64 convention by caching
// the rendered document in the object and returning its byte length;
// in-process callers then read it via TelemetryObject::last_render().
//   0 metric_count()  -> metrics registered (owned + aliases)
//   1 reset()         -> 0 (zeroes metrics, rebases aliases, clears traces)
//   2 trace_count()   -> committed trace events currently visible
//   3 render(kind)    -> bytes rendered (0 text, 1 Prometheus, 2 trace JSON)
const obj::TypeInfo* TelemetryType();

}  // namespace para::components

#endif  // PARAMECIUM_SRC_COMPONENTS_INTERFACES_H_
