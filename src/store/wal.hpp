// Write-ahead log for the v2 storage engine (docs/STORAGE.md).
//
// The log is the durable half of DiskStore's `wal` engine: every page write,
// 2PC prepare, and commit/abort decision is a record appended here, and the
// segment images only ever learn about a record after the checkpointer has
// applied it. Records below `durable_lsn_` have been forced and survive a
// crash; the tail above it is volatile and is dropped by Log::crash() (the
// torn-tail rule — a force batch is persisted as a prefix or not at all).
//
// Truncation keeps recovery bounded: once the checkpointer has applied every
// page-bearing record up to `applied_lsn_` into the images (a checkpoint
// record carries that watermark and nothing else), records at or below it
// can be dropped — except prepare records whose transaction is still
// undecided or whose decision sits above the watermark, because a replayed
// decision needs the prepared page images.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/error.hpp"
#include "common/sysname.hpp"
#include "ra/types.hpp"

namespace clouds::store {

struct PageUpdate {
  ra::PageKey key;
  Bytes data;  // exactly kPageSize bytes
};

// A page-update list as the DSM wire and the store snapshot carry it:
// n:u32, then n x (segment, page:u32, bytes).
void encodePageUpdates(Encoder& e, const std::vector<PageUpdate>& updates);
Result<std::vector<PageUpdate>> decodePageUpdates(Decoder& d);

namespace wal {

enum class RecordKind : std::uint8_t {
  page_write = 1,  // one or more committed page images (a write / write-back batch)
  prepare = 2,     // 2PC phase 1: staged page images, not yet visible
  commit = 3,      // 2PC decision: the matching prepare's images become current
  abort = 4,       // 2PC decision: the matching prepare is discarded
  checkpoint = 5,  // images reflect everything <= applied_lsn
};

struct Record {
  RecordKind kind = RecordKind::page_write;
  std::uint64_t lsn = 0;
  std::uint64_t txid = 0;                // prepare / commit / abort
  std::vector<PageUpdate> updates;       // page_write / prepare payload
  std::uint64_t applied_lsn = 0;         // checkpoint

  // Pages of payload this record forces into the log (decision and
  // checkpoint records are header-sized: they round to one page at most
  // when forced alone, which commit_log_write already covers).
  std::size_t payloadPages() const noexcept { return updates.size(); }
};

// Append-only record sequence with the three watermarks (last, durable,
// applied). Pure bookkeeping — all disk-time charging stays in DiskStore.
class Log {
 public:
  // Appends r (lsn assigned here) and returns the new record's LSN.
  std::uint64_t append(Record r);

  std::uint64_t lastLsn() const noexcept { return next_lsn_ - 1; }
  std::uint64_t durableLsn() const noexcept { return durable_lsn_; }
  std::uint64_t appliedLsn() const noexcept { return applied_lsn_; }
  void markDurable(std::uint64_t lsn) noexcept {
    if (lsn > durable_lsn_) durable_lsn_ = lsn;
  }
  void setApplied(std::uint64_t lsn) noexcept { applied_lsn_ = lsn; }

  const std::vector<Record>& records() const noexcept { return records_; }
  // Mutable access for the store's destroy/resize scrub (see DiskStore).
  std::vector<Record>& recordsMutable() noexcept { return records_; }
  std::size_t recordCount() const noexcept { return records_.size(); }

  // Payload pages across records with after < lsn <= upto (group-commit
  // batch sizing).
  std::size_t payloadPagesBetween(std::uint64_t after, std::uint64_t upto) const;

  // The prepare record of txid, or nullptr (latest wins if re-prepared).
  const Record* findPrepare(std::uint64_t txid) const;

  // Crash: the unforced tail is lost. keep_tail > 0 models a force batch
  // that was partially persisted — that many tail records survive (prefix
  // order) and are promoted to durable. Returns the dropped record count.
  std::size_t crash(std::size_t keep_tail);

  // Checkpoint truncation (see file comment for the orphan-prepare rule).
  // Returns the dropped record count.
  std::size_t truncate();

  void clear();

  void encode(Encoder& e) const;
  Result<void> decode(Decoder& d);

 private:
  std::vector<Record> records_;  // ascending lsn (possibly with gaps)
  std::uint64_t next_lsn_ = 1;
  std::uint64_t durable_lsn_ = 0;
  std::uint64_t applied_lsn_ = 0;
};

}  // namespace wal
}  // namespace clouds::store
