#include "migrate/protocol.hpp"

namespace clouds::migrate {

Result<Bytes> ForwardRecord::encodePage() const {
  // Mirror the decode-side bounds at encode time: a record rejected here is
  // one decode() would refuse anyway, and padding below must never shrink
  // the buffer.
  if (class_name.size() > kMaxClassName) {
    return makeError(Errc::bad_argument, "forward record class name too long to encode");
  }
  if (moves.size() > kMaxMoves) {
    return makeError(Errc::bad_argument, "forward record has too many segment moves");
  }
  Bytes bytes = encode();
  if (bytes.size() > ra::kPageSize) {
    return makeError(Errc::bad_argument, "forward record does not fit in a header page");
  }
  bytes.resize(ra::kPageSize, std::byte{0});
  return bytes;
}

bool isForwardPage(ByteSpan page) {
  Decoder d(page);
  codec::Reader r(d);
  r(kForwardTag);
  return r.status().ok();
}

}  // namespace clouds::migrate
