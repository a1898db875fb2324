// Wire/durable records of the migration protocol.
//
// The commit point of a migration is a single 2PC-logged page write: the old
// header's page 0 is flipped from an ObjectDescriptor to a ForwardRecord
// naming the new header. The record therefore crosses the wire (inside the
// tx_prepare) and then lives durably in the source store as a tombstone that
// late raw-sysname holders chase. Its magic differs from the descriptor
// magic (0xC10D0B1E) so a reader can always tell which of the two a header
// page holds.
#pragma once

#include <string>
#include <vector>

#include "common/codec.hpp"
#include "ra/types.hpp"

namespace clouds::migrate {

inline constexpr std::uint32_t kForwardMagic = 0xC10DF06DU;
// A forward record's first field, all isForwardPage reads of a page.
inline constexpr codec::Constant kForwardTag{kForwardMagic, "not a forward record (bad magic)"};
inline constexpr std::uint8_t kForwardVersion = 1;
// A Clouds object ships at most header+data+pheap; the cap bounds decode
// work on hostile/corrupt pages.
inline constexpr std::size_t kMaxMoves = 8;
inline constexpr std::size_t kMaxClassName = 256;
inline constexpr std::uint64_t kMaxSegmentLength = 1ULL << 40;
// Forward chains grow one link per re-migration; chasing more hops than
// this means a cycle or corruption.
inline constexpr int kMaxForwardHops = 8;

// One shipped segment: `from` (homed on the source) was replaced by `to`
// (freshly minted on the target, since a sysname embeds its home).
struct SegmentMove {
  Sysname from;
  Sysname to;
  std::uint64_t length = 0;

  friend bool operator==(const SegmentMove&, const SegmentMove&) = default;

  template <typename M, typename F>
  static void fields(M& m, F& f) {
    f(m.from);
    f(m.to);
    f(m.length);
    f.require(ra::isSegmentName(m.from) && ra::isSegmentName(m.to),
              "segment move names a non-segment sysname");
    f.require(m.length <= kMaxSegmentLength, "segment move length implausible");
  }
};

struct ForwardRecord {
  std::uint64_t generation = 0;  // MigrationFsm generation of the handoff
  Sysname new_header;
  std::string class_name;
  std::vector<SegmentMove> moves;

  friend bool operator==(const ForwardRecord&, const ForwardRecord&) = default;

  // The record's layout (common/codec.hpp), with the decode-side bounds a
  // hostile or corrupt page meets.
  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(kForwardTag);
    f(codec::Constant{kForwardVersion, [](std::uint8_t v) {
                        return "unknown forward record version " + std::to_string(v);
                      }});
    f(r.generation);
    f(r.new_header);
    f.require(ra::isSegmentName(r.new_header), "forward target is not a segment sysname");
    f(r.class_name);
    f.require(r.class_name.size() <= kMaxClassName, "forward record class name too long");
    f(codec::Capped{r.moves, kMaxMoves, [](std::uint32_t n) {
                      return "forward record claims " + std::to_string(n) + " segment moves";
                    }});
  }

  // At most kMaxMoves moves; encodePage() refuses a record with more.
  Bytes encode() const { return codec::encode(*this).take(); }
  // encode() zero-padded to exactly ra::kPageSize (the header-page image the
  // 2PC flip installs). Fails rather than truncate if the record (overlong
  // class name, too many moves) would not fit in one page — a truncated
  // tombstone would become the object's permanent, corrupt forwarding state.
  Result<Bytes> encodePage() const;
  static Result<ForwardRecord> decode(ByteSpan bytes) {
    return codec::decode<ForwardRecord>(bytes);
  }
};

// Cheap discriminator: does this header page hold a forward record?
bool isForwardPage(ByteSpan page);

}  // namespace clouds::migrate
