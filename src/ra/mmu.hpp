// The memory-access path of the Ra kernel.
//
// Every byte a Clouds thread touches goes through here: virtual address →
// (segment, offset) via the object's VirtualSpace, then page residency via
// the partition that serves the segment (local disk or DSM). A resident
// page costs nothing extra (hardware hit); a miss runs the genuine fault
// machinery with the paper's fault costs and, for remote segments, real
// coherence traffic.
#pragma once

#include "common/error.hpp"
#include "ra/node.hpp"
#include "ra/virtual_space.hpp"

namespace clouds::ra {

class Mmu {
 public:
  explicit Mmu(Node& node) : node_(node) {}

  Result<void> read(sim::Process& self, const VirtualSpace& space, VAddr addr,
                    MutableByteSpan out);
  Result<void> write(sim::Process& self, const VirtualSpace& space, VAddr addr, ByteSpan data);

  // Typed convenience accessors for trivially copyable values.
  template <typename T>
  Result<T> load(sim::Process& self, const VirtualSpace& space, VAddr addr) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    CLOUDS_TRY(read(self, space, addr, MutableByteSpan(reinterpret_cast<std::byte*>(&value),
                                                       sizeof(T))));
    return value;
  }
  template <typename T>
  Result<void> store(sim::Process& self, const VirtualSpace& space, VAddr addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return write(self, space, addr,
                 ByteSpan(reinterpret_cast<const std::byte*>(&value), sizeof(T)));
  }

 private:
  Result<void> access(sim::Process& self, const VirtualSpace& space, VAddr addr,
                      std::size_t length, Access mode, std::byte* in_out);

  Node& node_;
};

}  // namespace clouds::ra
