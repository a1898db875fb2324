// Reading a stored page into a test's own buffer.
#pragma once

#include <cassert>
#include <cstring>

#include "store/disk_store.hpp"

namespace clouds::test {

// Copies the image DiskStore::readPage hands out into out (kPageSize
// bytes), or zeroes for a page never written; returns whether the page was
// ever written.
inline Result<bool> readPageInto(store::DiskStore& store, sim::Process& self,
                                 const ra::PageKey& key, MutableByteSpan out) {
  assert(out.size() == ra::kPageSize);
  CLOUDS_TRY_ASSIGN(image, store.readPage(self, key));
  if (image.empty()) {
    std::memset(out.data(), 0, out.size());
    return false;
  }
  std::memcpy(out.data(), image.data(), out.size());
  return true;
}

}  // namespace clouds::test
