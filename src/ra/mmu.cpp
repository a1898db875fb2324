#include "ra/mmu.hpp"

#include <algorithm>
#include <cstring>

namespace clouds::ra {

Result<void> Mmu::read(sim::Process& self, const VirtualSpace& space, VAddr addr,
                       MutableByteSpan out) {
  return access(self, space, addr, out.size(), Access::read, out.data());
}

Result<void> Mmu::write(sim::Process& self, const VirtualSpace& space, VAddr addr,
                        ByteSpan data) {
  return access(self, space, addr, data.size(), Access::write,
                const_cast<std::byte*>(data.data()));
}

Result<void> Mmu::access(sim::Process& self, const VirtualSpace& space, VAddr addr,
                         std::size_t length, Access mode, std::byte* in_out) {
  std::size_t done = 0;
  while (done < length) {
    const VAddr a = addr + done;
    CLOUDS_TRY_ASSIGN(t, space.translate(a, mode));
    const std::uint64_t page_off = t.seg_offset % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(
        {length - done, kPageSize - page_off, t.contiguous}));
    const PageKey key{t.segment, static_cast<PageIndex>(t.seg_offset / kPageSize)};
    CLOUDS_TRY_ASSIGN(part, node_.partitionFor(t.segment));
    CLOUDS_TRY_ASSIGN(handle, part->resolvePage(self, key, mode));
    if (mode == Access::write) {
      std::memcpy(handle.mutableData() + page_off, in_out + done, chunk);
    } else {
      std::memcpy(in_out + done, handle.data() + page_off, chunk);
    }
    done += chunk;
  }
  return okResult();
}

}  // namespace clouds::ra
