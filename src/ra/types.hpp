// Core types of the Ra kernel (paper §4.1).
//
// Ra's abstractions: segments (named byte sequences), virtual spaces
// (address ranges mapped to segments), IsiBas (lightweight processes) and
// partitions (non-volatile storage access for segments).
#pragma once

#include <cstdint>
#include <limits>
#include <ranges>
#include <string>

#include "common/sysname.hpp"

namespace clouds::ra {

// The paper's measurements are for 8 KiB pages (Sun-3 MMU).
inline constexpr std::size_t kPageSize = 8192;

using VAddr = std::uint64_t;
using PageIndex = std::uint32_t;

enum class Access : std::uint8_t { read, write };

// Segment sysnames carry a location hint: the identity of the data server
// the segment is homed on. The paper's partitions "communicate with the data
// server where the segment is stored"; embedding the home in the name is how
// a partition knows which server that is without a global lookup.
inline constexpr std::uint64_t kSegmentTag = 0xC10DULL << 48;

inline Sysname makeHomedSysname(std::uint32_t home_node, std::uint64_t seq) {
  return Sysname(kSegmentTag | home_node, seq);
}
inline std::uint32_t sysnameHome(const Sysname& s) {
  return static_cast<std::uint32_t>(s.hi() & 0xffffffffULL);
}
inline bool isSegmentName(const Sysname& s) {
  return (s.hi() & (0xffffULL << 48)) == kSegmentTag;
}

struct PageKey {
  Sysname segment;
  PageIndex page = 0;

  friend auto operator<=>(const PageKey&, const PageKey&) = default;
  std::string toString() const {
    return segment.toString() + ":" + std::to_string(page);
  }

  template <typename K, typename F>
  static void fields(K& k, F& f) {
    f(k.segment);
    f(k.page);
  }
};

// The entries of one segment in a PageKey-ordered map, from page
// `first_page` on. PageKeys order by (segment, page), so a segment's keys
// are contiguous: per-segment work costs a lookup plus its own entries, not
// a walk of every segment's.
template <typename Map>
auto segmentRange(Map& map, const Sysname& segment, PageIndex first_page = 0) {
  return std::ranges::subrange(
      map.lower_bound(PageKey{segment, first_page}),
      map.upper_bound(PageKey{segment, std::numeric_limits<PageIndex>::max()}));
}

struct SegmentInfo {
  Sysname name;
  std::uint64_t length = 0;   // bytes
  bool zero_fill = true;      // unwritten pages read as zeroes
  std::uint32_t pageCount() const {
    return static_cast<std::uint32_t>((length + kPageSize - 1) / kPageSize);
  }
};

}  // namespace clouds::ra

template <>
struct std::hash<clouds::ra::PageKey> {
  std::size_t operator()(const clouds::ra::PageKey& k) const noexcept {
    return std::hash<clouds::Sysname>{}(k.segment) ^ (static_cast<std::size_t>(k.page) * 0x9e3779b9u);
  }
};
