#include "common/message.hpp"

#include <algorithm>

namespace clouds {

Message::Message(SharedBytes bytes) {
  const std::size_t n = bytes.size();
  if (n != 0) append(Run{std::move(bytes), 0, n});
}

Message Message::slice(std::size_t off, std::size_t len) const {
  Message out;
  for (std::size_t i = 0; i < runCount() && len > 0; ++i) {
    const Run& r = run(i);
    if (off >= r.len) {
      off -= r.len;
      continue;
    }
    const std::size_t take = std::min(len, r.len - off);
    out.append(Run{r.buf, r.off + off, take});
    len -= take;
    off = 0;
  }
  return out;
}

void Message::append(const Message& tail) {
  for (std::size_t i = 0; i < tail.runCount(); ++i) append(tail.run(i));
}

void Message::append(const Run& r) {
  if (r.len == 0) return;
  if (size_ == 0) {
    first_ = r;
  } else {
    Run& last = more_.empty() ? first_ : more_.back();
    if (last.buf.sameBuffer(r.buf) && last.off + last.len == r.off) {
      last.len += r.len;
    } else {
      more_.push_back(r);
    }
  }
  size_ += r.len;
}

Bytes Message::flatten() const {
  Bytes out;
  out.reserve(size_);
  for (std::size_t i = 0; i < runCount(); ++i) {
    const ByteSpan b = run(i).bytes();
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

bool operator==(const Message& a, const Message& b) {
  return a.size() == b.size() && a.flatten() == b.flatten();
}

}  // namespace clouds
