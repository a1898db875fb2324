// A message as the simulated wire carries it: a byte sequence assembled from
// runs of shared, immutable buffers (docs/PROTOCOLS.md, "Messages").
//
// Copying, slicing and joining a message share its buffers instead of
// copying bytes. That is how a page image goes from a data server's store to
// a client's frame by reference: the encoder splices the image into the
// message as a run of its own (Encoder::image), RaTP cuts the message into
// fragment views and joins the views again, and the decoder hands the image
// back (Decoder::image). The wire model charges size(); how the host holds
// the bytes is invisible to it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.hpp"

namespace clouds {

class Message {
 public:
  // Bytes [off, off + len) of buf.
  struct Run {
    SharedBytes buf;
    std::size_t off = 0;
    std::size_t len = 0;
    ByteSpan bytes() const noexcept { return ByteSpan(buf.data() + off, len); }
  };

  Message() = default;
  // Implicit: a message of one run that owns the bytes.
  Message(Bytes bytes) : Message(SharedBytes(std::move(bytes))) {}
  Message(SharedBytes bytes);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t runCount() const noexcept { return size_ == 0 ? 0 : 1 + more_.size(); }
  const Run& run(std::size_t i) const noexcept { return i == 0 ? first_ : more_[i - 1]; }

  // Bytes [off, off + len) of this message, sharing its buffers.
  Message slice(std::size_t off, std::size_t len) const;
  // Appends tail's runs. A run that continues the last one in the same
  // buffer merges into it, so the views of one message join back into its
  // original runs.
  void append(const Message& tail);
  void append(const Run& run);

  // The bytes in one contiguous copy.
  Bytes flatten() const;

  friend bool operator==(const Message& a, const Message& b);

 private:
  // The first run is held in place: most messages have one.
  Run first_;
  std::vector<Run> more_;
  std::size_t size_ = 0;
};

}  // namespace clouds
