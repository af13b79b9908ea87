// Transmit packet buffer with headroom, so each protocol layer prepends its
// header without copying the payload — the usual kernel mbuf/skb trick. The
// receive path needs no buffer: decap parses frames where they lie.
//
// The storage is never zero-filled. A frame is built from its source bytes:
// the payload is appended and each header is written into the headroom it
// claims, so data() only ever covers bytes that were written.
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

  // An empty buffer with `headroom` bytes reserved for headers.
  explicit PacketBuffer(size_t headroom = kDefaultHeadroom,
                        size_t capacity = kDefaultCapacity)
      : storage_(std::make_unique_for_overwrite<uint8_t[]>(capacity)),
        capacity_(capacity),
        begin_(headroom),
        end_(headroom) {
    PARA_CHECK(headroom <= capacity);
  }

  size_t size() const { return end_ - begin_; }
  size_t headroom() const { return begin_; }
  bool empty() const { return begin_ == end_; }

  std::span<uint8_t> data() { return std::span<uint8_t>(storage_.get() + begin_, size()); }
  std::span<const uint8_t> data() const {
    return std::span<const uint8_t>(storage_.get() + begin_, size());
  }

  // Appends payload bytes at the tail.
  void Append(std::span<const uint8_t> bytes) {
    PARA_CHECK(end_ + bytes.size() <= capacity_);
    CopyBytes(storage_.get() + end_, bytes.data(), bytes.size());
    end_ += bytes.size();
  }

  // Claims `bytes` of headroom for a header and returns it. The caller
  // writes every byte of the returned span.
  std::span<uint8_t> Prepend(size_t bytes) {
    PARA_CHECK(begin_ >= bytes);
    begin_ -= bytes;
    return std::span<uint8_t>(storage_.get() + begin_, bytes);
  }

 private:
  std::unique_ptr<uint8_t[]> storage_;
  size_t capacity_;
  size_t begin_;
  size_t end_;
};

}  // namespace para::net

#endif  // PARAMECIUM_SRC_NET_PKTBUF_H_
