// Dirty-page table for the wal engine (docs/STORAGE.md).
//
// Committed page images live here between the log force that made them
// durable and the asynchronous write-back that folds them into the segment
// images. Reads are served from this table first (read-your-committed-
// writes), and repeated writes to a hot page coalesce — only the newest
// image is ever written back. The oldest staged LSN bounds how far a
// checkpoint may advance the applied watermark.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "store/wal.hpp"

namespace clouds::store::wal {

struct DirtyPage {
  Bytes data;
  std::uint64_t lsn = 0;  // log record that staged this image
};

class DirtyTable {
 public:
  // Stage an image; a newer record for the same page supersedes the old one.
  void stage(const ra::PageKey& key, ByteSpan data, std::uint64_t lsn);

  const DirtyPage* find(const ra::PageKey& key) const;

  // The oldest staged record still unapplied (UINT64_MAX when empty); the
  // checkpointer may advance applied_lsn to just below this.
  std::uint64_t minLsn() const;

  // Up to max_pages entries (key order, deterministic) whose record is
  // already durable — only forced records may reach the images, or a crash
  // could leave bytes in the images that no surviving log record explains.
  std::vector<std::pair<ra::PageKey, DirtyPage>> pickBatch(std::uint64_t durable_lsn,
                                                           std::size_t max_pages) const;

  // Drop key's entry if it still holds the image staged at lsn (a newer
  // write may have superseded the one just applied).
  void applied(const ra::PageKey& key, std::uint64_t lsn);

  void purgeSegment(const Sysname& segment);
  // Drop entries at or beyond page_count (segment shrink).
  void purgeBeyond(const Sysname& segment, ra::PageIndex page_count);

  bool empty() const noexcept { return pages_.empty(); }
  std::size_t size() const noexcept { return pages_.size(); }
  void clear() { pages_.clear(); }

 private:
  std::map<ra::PageKey, DirtyPage> pages_;
};

}  // namespace clouds::store::wal
