#include "store/wal.hpp"

#include <algorithm>
#include <map>

namespace clouds::store {

void encodePageUpdates(Encoder& e, const std::vector<PageUpdate>& updates) {
  e.u32(static_cast<std::uint32_t>(updates.size()));
  for (const PageUpdate& u : updates) {
    e.sysname(u.key.segment);
    e.u32(u.key.page);
    e.bytes(u.data);
  }
}

Result<std::vector<PageUpdate>> decodePageUpdates(Decoder& d) {
  CLOUDS_TRY_ASSIGN(count, d.u32());
  std::vector<PageUpdate> updates;
  for (std::uint32_t i = 0; i < count; ++i) {
    CLOUDS_TRY_ASSIGN(segment, d.sysname());
    CLOUDS_TRY_ASSIGN(page, d.u32());
    CLOUDS_TRY_ASSIGN(data, d.bytes());
    updates.push_back(PageUpdate{ra::PageKey{segment, page}, std::move(data)});
  }
  return updates;
}

namespace wal {

std::uint64_t Log::append(Record r) {
  r.lsn = next_lsn_++;
  records_.push_back(std::move(r));
  return records_.back().lsn;
}

std::size_t Log::payloadPagesBetween(std::uint64_t after, std::uint64_t upto) const {
  std::size_t pages = 0;
  for (const Record& r : records_) {
    if (r.lsn > after && r.lsn <= upto) pages += r.payloadPages();
  }
  return pages;
}

const Record* Log::findPrepare(std::uint64_t txid) const {
  const Record* found = nullptr;
  for (const Record& r : records_) {
    if (r.kind == RecordKind::prepare && r.txid == txid) found = &r;
  }
  return found;
}

std::size_t Log::crash(std::size_t keep_tail) {
  // A partially persisted force batch survives as a prefix of the tail: the
  // log device writes sequentially, so record k+1 can never land without
  // record k.
  std::uint64_t survives = durable_lsn_;
  if (keep_tail > 0) {
    for (const Record& r : records_) {
      if (r.lsn <= durable_lsn_) continue;
      if (keep_tail == 0) break;
      survives = r.lsn;
      --keep_tail;
    }
  }
  const std::size_t before = records_.size();
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [&](const Record& r) { return r.lsn > survives; }),
                 records_.end());
  durable_lsn_ = survives;
  // next_lsn_ keeps counting forward: LSNs are never reused, so a record
  // written after reboot can never be mistaken for a lost one.
  return before - records_.size();
}

std::size_t Log::truncate() {
  // Decision LSN per txid (commit or abort), to decide which old prepares
  // must stay: an undecided prepare, or one whose decision is still above
  // the applied watermark, is needed verbatim at replay.
  std::map<std::uint64_t, std::uint64_t> decision_lsn;
  for (const Record& r : records_) {
    if (r.kind == RecordKind::commit || r.kind == RecordKind::abort) {
      decision_lsn[r.txid] = r.lsn;
    }
  }
  auto keep = [&](const Record& r) {
    if (r.lsn > applied_lsn_) return true;
    if (r.kind != RecordKind::prepare) return false;
    auto it = decision_lsn.find(r.txid);
    return it == decision_lsn.end() || it->second > applied_lsn_;
  };
  const std::size_t before = records_.size();
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [&](const Record& r) { return !keep(r); }),
                 records_.end());
  return before - records_.size();
}

void Log::clear() {
  records_.clear();
  next_lsn_ = 1;
  durable_lsn_ = 0;
  applied_lsn_ = 0;
}

void Log::encode(Encoder& e) const {
  e.u64(next_lsn_);
  e.u64(durable_lsn_);
  e.u64(applied_lsn_);
  e.u32(static_cast<std::uint32_t>(records_.size()));
  for (const Record& r : records_) {
    e.u8(static_cast<std::uint8_t>(r.kind));
    e.u64(r.lsn);
    e.u64(r.txid);
    e.u64(r.applied_lsn);
    encodePageUpdates(e, r.updates);
  }
}

Result<void> Log::decode(Decoder& d) {
  CLOUDS_TRY_ASSIGN(next, d.u64());
  CLOUDS_TRY_ASSIGN(durable, d.u64());
  CLOUDS_TRY_ASSIGN(applied, d.u64());
  CLOUDS_TRY_ASSIGN(count, d.u32());
  std::vector<Record> records;
  for (std::uint32_t i = 0; i < count; ++i) {
    Record r;
    CLOUDS_TRY_ASSIGN(kind, d.u8());
    if (kind < static_cast<std::uint8_t>(RecordKind::page_write) ||
        kind > static_cast<std::uint8_t>(RecordKind::checkpoint)) {
      return makeError(Errc::io, "bad log record kind " + std::to_string(kind));
    }
    r.kind = static_cast<RecordKind>(kind);
    CLOUDS_TRY_ASSIGN(lsn, d.u64());
    r.lsn = lsn;
    CLOUDS_TRY_ASSIGN(txid, d.u64());
    r.txid = txid;
    CLOUDS_TRY_ASSIGN(rec_applied, d.u64());
    r.applied_lsn = rec_applied;
    CLOUDS_TRY_ASSIGN(updates, decodePageUpdates(d));
    r.updates = std::move(updates);
    records.push_back(std::move(r));
  }
  clear();
  next_lsn_ = next;
  durable_lsn_ = durable;
  applied_lsn_ = applied;
  records_ = std::move(records);
  return okResult();
}

}  // namespace wal
}  // namespace clouds::store
