#!/usr/bin/env bash
# Keeps inline string-instruction copies off the per-call and per-frame
# paths. GCC expands a memcpy or memset whose length it can bound but not fix
# into `rep movsq`/`rep stosq`, whose start-up cost is larger than the small
# copies these paths make (src/base/copy.h). This disassembles the layer
# libraries of a Release build tree with `objdump -d -C` and prints, for
# each listed function, how many `rep movs`/`rep stos` it holds. It fails
# when any listed function holds one, or when a listed function is missing,
# so a rename or an inlining cannot switch the check off.
#
# A name below matches the function's symbol and the compiler's clones of it
# ([clone .cold], [clone .isra.0], ...). ProxyObject::Call and HandleFault
# have no symbol of their own: Trampoline inlines Call, and the invoker of
# the fault-handler lambda inlines HandleFault.
#
# Skips with a message (exit 0) off GCC on x86-64, or without objdump: other
# compilers and targets expand copies their own way.
# Usage: scripts/check-hot-copies.sh <build-dir>
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/check-hot-copies.sh <build-dir>" >&2
  exit 2
fi
BUILD_DIR="$1"

FUNCTIONS=(
  'para::CopyBytes('
  'para::nucleus::VirtualMemoryService::Read('
  'para::nucleus::VirtualMemoryService::Write('
  'para::nucleus::VirtualMemoryService::ReadU64('
  'para::nucleus::VirtualMemoryService::ReadIo('
  'para::nucleus::VirtualMemoryService::WriteIo('
  'para::nucleus::VirtualMemoryService::ReadIo32('
  'para::nucleus::VirtualMemoryService::WriteIo32('
  'para::nucleus::VirtualMemoryService::ReadIoToMemory('
  'para::nucleus::VirtualMemoryService::WriteIoFromMemory('
  'para::nucleus::ProxyObject::Trampoline('
  'std::_Function_handler<para::Status (para::nucleus::FaultInfo const&), para::nucleus::ProxyObject::Setup()::{lambda(para::nucleus::FaultInfo const&)#1}>::_M_invoke('
  'para::hw::NetworkDevice::WriteReg('
  'para::hw::NetworkDevice::DeliverFrame('
  'para::hw::NetworkDevice::FillRxArea('
  'para::hw::NetworkDevice::PumpRx('
  'para::hw::NetworkLink::Transmit('
  'para::hw::NetworkLink::DeliverDue('
  'para::components::NetDriver::Send('
  'para::components::NetDriver::PollRecv('
  'para::components::StackComponent::Send('
  'para::components::StackComponent::SendFrame('
  'para::components::StackComponent::PumpRx('
  'para::net::ProtocolStack::OnFrameBurst('
  'para::net::ProtocolStack::SendDatagram('
  'para::net::ProtocolStack::Deliver('
)

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  echo "check-hot-copies: ${BUILD_DIR} is not a configured build tree" >&2
  exit 2
fi
if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "${BUILD_DIR}/CMakeCache.txt"; then
  echo "check-hot-copies: ${BUILD_DIR} is not a Release build tree" >&2
  exit 2
fi
if ! command -v objdump >/dev/null 2>&1; then
  echo "check-hot-copies: skipped, objdump not found"
  exit 0
fi
if ! cat "${BUILD_DIR}"/CMakeFiles/*/CMakeCXXCompiler.cmake 2>/dev/null |
    grep -q 'set(CMAKE_CXX_COMPILER_ID "GNU")'; then
  echo "check-hot-copies: skipped, the build's C++ compiler is not GCC"
  exit 0
fi
if ! cat "${BUILD_DIR}"/CMakeFiles/*/CMakeSystem.cmake 2>/dev/null |
    grep -q 'set(CMAKE_SYSTEM_PROCESSOR "x86_64")'; then
  echo "check-hot-copies: skipped, the build does not target x86-64"
  exit 0
fi

shopt -s nullglob
LIBS=("${BUILD_DIR}"/src/*/libpara_*.a)
if [[ ${#LIBS[@]} -eq 0 ]]; then
  echo "check-hot-copies: no layer libraries under ${BUILD_DIR}/src; build first" >&2
  exit 2
fi

objdump -d -C --no-show-raw-insn "${LIBS[@]}" |
  awk -v names="$(printf '%s\n' "${FUNCTIONS[@]}")" '
    BEGIN { n = split(names, want, "\n"); if (want[n] == "") --n }
    /^[0-9a-f]+ <.*>:$/ {
      sym = substr($0, index($0, "<") + 1)
      current = 0
      for (i = 1; i <= n; ++i) {
        if (index(sym, want[i]) == 1) { current = i; ++found[i]; break }
      }
      next
    }
    current && /[[:space:]]rep[[:space:]]+(movs|stos)/ { ++reps[current] }
    END {
      bad = 0
      for (i = 1; i <= n; ++i) {
        if (!found[i]) {
          printf "MISSING  %s\n", want[i]; bad = 1
        } else {
          printf "%7d  %s\n", reps[i], want[i]
          if (reps[i]) bad = 1
        }
      }
      if (bad) {
        print "check-hot-copies: FAILED: a listed function holds rep movs/stos or is missing"
        exit 1
      }
      print "check-hot-copies: OK"
    }'
