// On-disk and in-memory representation of a Clouds object (paper §2.1,
// Figure 1).
//
// An object is a persistent virtual address space: code segment, persistent
// data segment, persistent heap, and a volatile heap, at fixed bases. The
// object's identity is the sysname of its *header segment*, whose first
// page holds the ObjectDescriptor (class name + component segments) — the
// "header for the object" the compute server retrieves before setting up
// the object space (paper §3.2).
#pragma once

#include <string>

#include "common/codec.hpp"
#include "ra/types.hpp"
#include "ra/virtual_space.hpp"

namespace clouds::obj {

// Virtual-space layout (Figure 1). The thread stack is mapped at kStackBase
// during an invocation and remapped on return (paper §4.2, object manager).
inline constexpr ra::VAddr kCodeBase = 0x00400000;
inline constexpr ra::VAddr kDataBase = 0x10000000;
inline constexpr ra::VAddr kPHeapBase = 0x20000000;
inline constexpr ra::VAddr kVHeapBase = 0x30000000;
inline constexpr ra::VAddr kStackBase = 0x70000000;

struct ObjectDescriptor {
  std::string class_name;
  Sysname code_seg;
  Sysname data_seg;
  Sysname pheap_seg;
  std::uint64_t code_size = 0;
  std::uint64_t data_size = 0;
  std::uint64_t pheap_size = 0;
  std::uint64_t vheap_size = 0;

  // The header page's layout (common/codec.hpp), then zeroes.
  template <typename D, typename F>
  static void fields(D& d, F& f) {
    f(codec::Constant{0xC10D0B1Eu, "not an object header (bad magic)"});
    f(d.class_name);
    f(d.code_seg);
    f(d.data_seg);
    f(d.pheap_seg);
    f(d.code_size);
    f(d.data_size);
    f(d.pheap_size);
    f(d.vheap_size);
  }

  Bytes encode() const { return codec::encode(*this).take(); }
  static Result<ObjectDescriptor> decode(ByteSpan page) {
    return codec::decode<ObjectDescriptor>(page);
  }
};

// A node-resident activation of an object: its assembled virtual space plus
// the node-local volatile heap. Shared by every thread executing in the
// object on this node.
struct ActiveObject {
  Sysname header;
  ObjectDescriptor desc;
  ra::VirtualSpace space;
  Sysname vheap_seg;           // anonymous, node-local
  std::uint64_t vheap_next = 16;  // volatile-heap bump allocator (node-local state)
  int executing_threads = 0;
};

// The persistent heap's allocator state lives in the heap segment itself
// (offset 0 holds the next-free offset), so allocation is coherent across
// nodes through ordinary DSM — a single-level store in action.
inline constexpr std::uint64_t kPHeapAllocatorReserved = 16;

}  // namespace clouds::obj
