// Transmit packet buffer with headroom, so each protocol layer prepends its
// header without copying the payload — the usual kernel mbuf/skb trick. The
// receive path needs no buffer: decap parses frames where they lie.
//
// The storage is never zero-filled. A frame is built from its source bytes:
// the payload is appended (or was written in place by the caller) and each
// header is written into the headroom it claims, so data() only ever covers
// bytes that were written. The storage is the buffer's own, or the caller's:
// a sender that builds every frame in one reusable area (a component's TX
// page) allocates nothing per frame.
#ifndef PARAMECIUM_SRC_NET_PKTBUF_H_
#define PARAMECIUM_SRC_NET_PKTBUF_H_

#include <cstdint>
#include <memory>
#include <span>

#include "src/base/copy.h"
#include "src/base/log.h"

namespace para::net {

class PacketBuffer {
 public:
  static constexpr size_t kDefaultHeadroom = 64;
  static constexpr size_t kDefaultCapacity = 2048;

  // An empty buffer with `headroom` bytes reserved for headers, in storage
  // of its own.
  explicit PacketBuffer(size_t headroom = kDefaultHeadroom,
                        size_t capacity = kDefaultCapacity)
      : owned_(std::make_unique_for_overwrite<uint8_t[]>(capacity)),
        storage_(owned_.get()),
        capacity_(capacity),
        begin_(headroom),
        end_(headroom) {
    PARA_CHECK(headroom <= capacity);
  }

  // A buffer over the caller's `storage`, which must outlive it, holding the
  // `size` bytes the caller has already written at offset `headroom`: the
  // headers go in front of them without a copy.
  PacketBuffer(std::span<uint8_t> storage, size_t headroom, size_t size)
      : storage_(storage.data()),
        capacity_(storage.size()),
        begin_(headroom),
        end_(headroom + size) {
    PARA_CHECK(headroom <= storage.size() && size <= storage.size() - headroom);
  }

  size_t size() const { return end_ - begin_; }
  size_t headroom() const { return begin_; }
  bool empty() const { return begin_ == end_; }

  std::span<uint8_t> data() { return std::span<uint8_t>(storage_ + begin_, size()); }
  std::span<const uint8_t> data() const {
    return std::span<const uint8_t>(storage_ + begin_, size());
  }

  // Appends payload bytes at the tail.
  void Append(std::span<const uint8_t> bytes) {
    PARA_CHECK(end_ + bytes.size() <= capacity_);
    CopyBytes(storage_ + end_, bytes.data(), bytes.size());
    end_ += bytes.size();
  }

  // Claims `bytes` of headroom for a header and returns it. The caller
  // writes every byte of the returned span.
  std::span<uint8_t> Prepend(size_t bytes) {
    PARA_CHECK(begin_ >= bytes);
    begin_ -= bytes;
    return std::span<uint8_t>(storage_ + begin_, bytes);
  }

 private:
  std::unique_ptr<uint8_t[]> owned_;  // null over the caller's storage
  uint8_t* storage_;
  size_t capacity_;
  size_t begin_;
  size_t end_;
};

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_PKTBUF_H_
