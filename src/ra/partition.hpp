// Partition interface (paper §4.1).
//
// "A partition is an entity that provides non-volatile data storage for
//  segments. ... In order to access a segment, the partition containing the
//  segment has to be contacted. ... Note that Ra only defines the interface
//  to the partitions. The partitions themselves are implemented as system
//  objects."
//
// Two system objects implement it: dsm::DsmClientPartition (persistent
// segments homed on data servers, accessed through the DSM coherence
// protocol — on a combined machine its own data server among them) and
// ra::AnonPartition (volatile zero-fill segments local to this node). The
// MMU is the only caller.
#pragma once

#include <cassert>
#include <cstddef>

#include "common/error.hpp"
#include "ra/types.hpp"
#include "sim/process.hpp"

namespace clouds::ra {

// Grants direct access to a resident page frame. The pointer stays valid
// until the calling process next blocks (a frame may be stolen by eviction
// or coherence traffic afterwards), which is exactly the guarantee hardware
// gives between two faults. A frame's image may be shared with other frames,
// the store or messages in flight, so only a write handle gives out a
// mutable pointer: a write access copies a shared image into a private one
// first (copy-on-write), and a read access never copies.
class PageHandle {
 public:
  PageHandle() = default;
  // A read handle: nothing may write through it.
  static PageHandle readOnly(const std::byte* image) { return PageHandle(image, nullptr); }
  // A write handle on an image private to its frame.
  static PageHandle readWrite(std::byte* image) { return PageHandle(image, image); }

  const std::byte* data() const noexcept { return data_; }
  bool writable() const noexcept { return mutable_data_ != nullptr; }
  std::byte* mutableData() const noexcept {
    assert(writable());
    return mutable_data_;
  }

 private:
  PageHandle(const std::byte* data, std::byte* mutable_data)
      : data_(data), mutable_data_(mutable_data) {}

  const std::byte* data_ = nullptr;
  std::byte* mutable_data_ = nullptr;  // null for a read handle
};

class Partition {
 public:
  virtual ~Partition() = default;

  // True when this partition is responsible for the given segment.
  virtual bool serves(const Sysname& segment) const = 0;

  // Make the page resident with at least the requested access and return a
  // handle to the frame. Charges all fault costs. Called with the fault
  // already trapped (the MMU pays the trap cost).
  virtual Result<PageHandle> resolvePage(sim::Process& self, const PageKey& key,
                                         Access access) = 0;

  virtual Result<SegmentInfo> stat(sim::Process& self, const Sysname& segment) = 0;

  // Push dirty pages of the segment back to stable storage (and demote
  // coherence rights where applicable). Used at object deactivation and by
  // s-thread durability points.
  virtual Result<void> flushSegment(sim::Process& self, const Sysname& segment) = 0;

  // Drop every resident page of this segment (without writing back). Used
  // by consistency aborts.
  virtual void dropSegment(const Sysname& segment) = 0;
};

}  // namespace clouds::ra
