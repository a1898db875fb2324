// Event tracing.
//
// Every subsystem can emit (time, source, category, message) records. Each
// one is folded into a rolling digest, which is what the determinism suite
// compares: two runs with the same seed must produce byte-identical traces.
// The records themselves are kept only on request, for a test or a debugging
// session that reads them; a run keeps none.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "sim/time.hpp"

namespace clouds::sim {

struct TraceEntry {
  TimePoint at;
  std::string source;    // node or subsystem name
  std::string category;  // e.g. "ratp", "dsm", "fault"
  std::string message;
};

class TraceSink {
 public:
  void record(TimePoint at, std::string source, std::string category, std::string message);

  // Store every record for entries() as well as digesting it. Off by
  // default: a benchmark universe traces hundreds of thousands of records
  // that nothing reads, and the digest alone carries the determinism check.
  void setKeepEntries(bool keep) noexcept { keep_entries_ = keep; }

  const std::vector<TraceEntry>& entries() const noexcept { return entries_; }
  std::uint64_t digest() const noexcept { return digest_; }
  std::size_t count() const noexcept { return count_; }
  void clear();

 private:
  bool keep_entries_ = false;
  std::vector<TraceEntry> entries_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  std::size_t count_ = 0;
};

}  // namespace clouds::sim
