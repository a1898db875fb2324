#include "store/checkpoint.hpp"

#include <limits>

namespace clouds::store::wal {

void DirtyTable::stage(const ra::PageKey& key, ByteSpan data, std::uint64_t lsn) {
  DirtyPage& p = pages_[key];
  p.data.assign(data.begin(), data.end());
  p.lsn = lsn;
}

const DirtyPage* DirtyTable::find(const ra::PageKey& key) const {
  auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second;
}

std::uint64_t DirtyTable::minLsn() const {
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [key, p] : pages_) {
    if (p.lsn < min) min = p.lsn;
  }
  return min;
}

std::vector<std::pair<ra::PageKey, DirtyPage>> DirtyTable::pickBatch(
    std::uint64_t durable_lsn, std::size_t max_pages) const {
  std::vector<std::pair<ra::PageKey, DirtyPage>> out;
  for (const auto& [key, p] : pages_) {
    if (out.size() >= max_pages) break;
    if (p.lsn <= durable_lsn) out.emplace_back(key, p);
  }
  return out;
}

void DirtyTable::applied(const ra::PageKey& key, std::uint64_t lsn) {
  auto it = pages_.find(key);
  if (it != pages_.end() && it->second.lsn == lsn) pages_.erase(it);
}

void DirtyTable::purgeSegment(const Sysname& segment) {
  const auto range = ra::segmentRange(pages_, segment);
  pages_.erase(range.begin(), range.end());
}

void DirtyTable::purgeBeyond(const Sysname& segment, ra::PageIndex page_count) {
  const auto range = ra::segmentRange(pages_, segment, page_count);
  pages_.erase(range.begin(), range.end());
}

}  // namespace clouds::store::wal
