#include "clouds/standard_classes.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "clouds/context.hpp"

namespace clouds::obj::samples {

namespace {

Result<std::int64_t> argInt(const ValueList& args, std::size_t i) {
  if (i >= args.size()) return makeError(Errc::bad_argument, "missing argument");
  return args[i].asInt();
}

// File entries accept either a byte blob or a string (shell convenience).
Result<Bytes> argBytes(const ValueList& args, std::size_t i) {
  if (i >= args.size()) return makeError(Errc::bad_argument, "missing data");
  if (args[i].isString()) return toBytes(args[i].asString().value());
  return args[i].asBytes();
}

// Model the CPU time of an O(n log n) in-object sort on ~3 MIPS hardware
// (~75 instructions per element per pass: compare, swap, loop and bounds
// code in a compiled CC++ object).
sim::Duration sortCost(std::int64_t n) {
  if (n < 2) return sim::kZero;
  double passes = 1;
  for (std::int64_t m = n; m > 1; m /= 2) ++passes;
  return sim::Duration(static_cast<std::int64_t>(static_cast<double>(n) * passes *
                                                 sim::usec(25).count()));
}
sim::Duration mergeCost(std::int64_t n) {
  return sim::Duration(n * sim::usec(6).count());
}

}  // namespace

// ---------------------------------------------------------------- rectangle

ClassDef rectangleClass() {
  ClassDef def;
  def.name = "rectangle";
  // entry rectangle; (constructor)
  def.constructor = [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    ctx.put<std::int64_t>(0, 0);  // int x
    ctx.put<std::int64_t>(8, 0);  // int y
    return Value{};
  };
  // entry size (int x, y);
  def.entry("size", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(x, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(y, argInt(args, 1));
    ctx.put<std::int64_t>(0, x);
    ctx.put<std::int64_t>(8, y);
    return Value{};
  });
  // entry int area ();
  def.entry("area", [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    return Value{ctx.get<std::int64_t>(0) * ctx.get<std::int64_t>(8)};
  });
  return def;
}

// ---------------------------------------------------------------- counter

ClassDef counterClass() {
  ClassDef def;
  def.name = "counter";
  def.constructor = [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    ctx.put<std::int64_t>(0, 0);
    return Value{};
  };
  def.entry("value", [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    return Value{ctx.get<std::int64_t>(0)};
  });
  auto add = [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(n, argInt(args, 0));
    const std::int64_t v = ctx.get<std::int64_t>(0);
    ctx.compute(sim::usec(50));  // some work between read and write
    ctx.put<std::int64_t>(0, v + n);
    return Value{v + n};
  };
  def.entry("add", add, OpLabel::s);
  def.entry("add_lcp", add, OpLabel::lcp);
  def.entry("add_gcp", add, OpLabel::gcp);
  return def;
}

// ---------------------------------------------------------------- bank

namespace {
constexpr std::uint64_t kBankCountOff = 0;
constexpr std::uint64_t kBankBalanceBase = 8;

std::uint64_t balanceOff(std::int64_t account) {
  return kBankBalanceBase + static_cast<std::uint64_t>(account) * 8;
}

Result<Value> bankTransfer(ObjectContext& ctx, const ValueList& args, bool fail_midway) {
  CLOUDS_TRY_ASSIGN(from, argInt(args, 0));
  CLOUDS_TRY_ASSIGN(to, argInt(args, 1));
  CLOUDS_TRY_ASSIGN(amount, argInt(args, 2));
  const std::int64_t n = ctx.get<std::int64_t>(kBankCountOff);
  if (from < 0 || to < 0 || from >= n || to >= n) {
    return makeError(Errc::bad_argument, "no such account");
  }
  const std::int64_t bf = ctx.get<std::int64_t>(balanceOff(from));
  if (bf < amount) return Value{false};
  ctx.put<std::int64_t>(balanceOff(from), bf - amount);
  ctx.compute(sim::usec(200));  // business logic between the two updates
  if (fail_midway) {
    // Half-done update: only recovery (GCP/LCP rollback) keeps the books
    // consistent now.
    return makeError(Errc::internal, "teller software fault after debit");
  }
  const std::int64_t bt = ctx.get<std::int64_t>(balanceOff(to));
  ctx.put<std::int64_t>(balanceOff(to), bt + amount);
  return Value{true};
}
}  // namespace

ClassDef bankClass() {
  ClassDef def;
  def.name = "bank";
  def.data_size = 2 * ra::kPageSize;  // up to ~2000 accounts
  def.constructor = [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    ctx.put<std::int64_t>(kBankCountOff, 0);
    return Value{};
  };
  def.entry(
      "init",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(n, argInt(args, 0));
        CLOUDS_TRY_ASSIGN(amount, argInt(args, 1));
        ctx.put<std::int64_t>(kBankCountOff, n);
        for (std::int64_t i = 0; i < n; ++i) ctx.put<std::int64_t>(balanceOff(i), amount);
        return Value{};
      },
      OpLabel::gcp);
  def.entry("balance", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(i, argInt(args, 0));
    return Value{ctx.get<std::int64_t>(balanceOff(i))};
  });
  auto transfer = [](ObjectContext& ctx, const ValueList& args) {
    return bankTransfer(ctx, args, false);
  };
  def.entry("transfer", transfer, OpLabel::gcp);
  def.entry("transfer_lcp", transfer, OpLabel::lcp);
  def.entry("transfer_s", transfer, OpLabel::s);
  def.entry(
      "transfer_fail",
      [](ObjectContext& ctx, const ValueList& args) { return bankTransfer(ctx, args, true); },
      OpLabel::gcp);
  def.entry(
      "transfer_fail_s",
      [](ObjectContext& ctx, const ValueList& args) { return bankTransfer(ctx, args, true); },
      OpLabel::s);
  auto total = [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    const std::int64_t n = ctx.get<std::int64_t>(kBankCountOff);
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) sum += ctx.get<std::int64_t>(balanceOff(i));
    return Value{sum};
  };
  def.entry("total", total, OpLabel::gcp);
  def.entry("total_s", total, OpLabel::s);
  return def;
}

// ---------------------------------------------------------------- file

namespace {
constexpr std::uint64_t kFileSizeOff = 0;
constexpr std::uint64_t kFileDataBase = 16;  // content lives in the persistent heap
}  // namespace

ClassDef fileClass() {
  ClassDef def;
  def.name = "file";
  def.pheap_size = 32 * ra::kPageSize;  // up to 256 KiB of content
  def.constructor = [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    ctx.put<std::uint64_t>(kFileSizeOff, 0);
    return Value{};
  };
  def.entry("write", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(offset, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(data, argBytes(args, 1));
    CLOUDS_TRY(ctx.writePHeap(kFileDataBase + static_cast<std::uint64_t>(offset), data));
    const auto end = static_cast<std::uint64_t>(offset) + data.size();
    if (end > ctx.get<std::uint64_t>(kFileSizeOff)) ctx.put<std::uint64_t>(kFileSizeOff, end);
    return Value{static_cast<std::int64_t>(data.size())};
  });
  def.entry("read", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(offset, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(length, argInt(args, 1));
    const std::uint64_t size = ctx.get<std::uint64_t>(kFileSizeOff);
    if (static_cast<std::uint64_t>(offset) >= size) return Value{Bytes{}};
    const auto len = std::min<std::uint64_t>(static_cast<std::uint64_t>(length),
                                             size - static_cast<std::uint64_t>(offset));
    Bytes out(len);
    CLOUDS_TRY(ctx.readPHeap(kFileDataBase + static_cast<std::uint64_t>(offset), out));
    return Value{std::move(out)};
  });
  def.entry("size", [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    return Value{static_cast<std::int64_t>(ctx.get<std::uint64_t>(kFileSizeOff))};
  });
  def.entry("append", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(data, argBytes(args, 0));
    const std::uint64_t size = ctx.get<std::uint64_t>(kFileSizeOff);
    CLOUDS_TRY(ctx.writePHeap(kFileDataBase + size, data));
    ctx.put<std::uint64_t>(kFileSizeOff, size + data.size());
    return Value{static_cast<std::int64_t>(size + data.size())};
  });
  return def;
}

// ---------------------------------------------------------------- mailbox

namespace {
// Data segment: [0] items semaphore, [8] head, [16] tail, [24] mutex
// semaphore guarding the ring indices (paper-style object-level sync).
// Slots live in the persistent heap: 256 bytes each, 64 slots ring.
constexpr std::uint64_t kMboxSemOff = 0;
constexpr std::uint64_t kMboxHeadOff = 8;
constexpr std::uint64_t kMboxTailOff = 16;
constexpr std::uint64_t kMboxMutexOff = 24;
constexpr std::uint64_t kMboxSlotSize = 256;
constexpr std::uint64_t kMboxSlots = 64;
constexpr std::uint64_t kMboxSlotBase = 16;

std::uint64_t slotOff(std::uint64_t index) {
  return kMboxSlotBase + (index % kMboxSlots) * kMboxSlotSize;
}
}  // namespace

ClassDef mailboxClass() {
  ClassDef def;
  def.name = "mailbox";
  def.pheap_size = 4 * ra::kPageSize;
  def.constructor = [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(sem, ctx.semCreate(0));
    CLOUDS_TRY_ASSIGN(mutex, ctx.semCreate(1));
    ctx.put<std::uint64_t>(kMboxSemOff, sem);
    ctx.put<std::uint64_t>(kMboxMutexOff, mutex);
    ctx.put<std::uint64_t>(kMboxHeadOff, 0);
    ctx.put<std::uint64_t>(kMboxTailOff, 0);
    return Value{};
  };
  def.entry("send", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    if (args.empty()) return makeError(Errc::bad_argument, "missing message");
    CLOUDS_TRY_ASSIGN(text, args[0].asString());
    if (text.size() >= kMboxSlotSize - 4) return makeError(Errc::bad_argument, "message too big");
    const std::uint64_t mutex = ctx.get<std::uint64_t>(kMboxMutexOff);
    CLOUDS_TRY(ctx.semP(mutex));
    const std::uint64_t tail = ctx.get<std::uint64_t>(kMboxTailOff);
    const std::uint64_t head = ctx.get<std::uint64_t>(kMboxHeadOff);
    if (tail - head >= kMboxSlots) {
      CLOUDS_TRY(ctx.semV(mutex));
      return makeError(Errc::bad_argument, "mailbox full");
    }
    CLOUDS_TRY(ctx.writePHeap(slotOff(tail), codec::encode(text).take()));
    ctx.put<std::uint64_t>(kMboxTailOff, tail + 1);
    CLOUDS_TRY(ctx.semV(mutex));
    CLOUDS_TRY(ctx.semV(ctx.get<std::uint64_t>(kMboxSemOff)));
    return Value{};
  });
  def.entry("receive", [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    CLOUDS_TRY(ctx.semP(ctx.get<std::uint64_t>(kMboxSemOff)));
    const std::uint64_t mutex = ctx.get<std::uint64_t>(kMboxMutexOff);
    CLOUDS_TRY(ctx.semP(mutex));
    const std::uint64_t head = ctx.get<std::uint64_t>(kMboxHeadOff);
    Bytes slot(kMboxSlotSize);
    CLOUDS_TRY(ctx.readPHeap(slotOff(head), slot));
    CLOUDS_TRY_ASSIGN(text, codec::decode<std::string>(slot));
    ctx.put<std::uint64_t>(kMboxHeadOff, head + 1);
    CLOUDS_TRY(ctx.semV(mutex));
    return Value{std::move(text)};
  });
  def.entry("pending", [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    return Value{static_cast<std::int64_t>(ctx.get<std::uint64_t>(kMboxTailOff) -
                                           ctx.get<std::uint64_t>(kMboxHeadOff))};
  });
  return def;
}

// ---------------------------------------------------------------- sorter

namespace {
constexpr std::uint64_t kSortCountOff = 0;
// Keys start on a page boundary so that page-aligned worker slices never
// write-share a page (page-granular DSM makes byte-level false sharing
// between concurrent bulk writers expensive and, with racing read-modify-
// write cycles of whole slices, incorrect).
constexpr std::uint64_t kSortKeyBase = ra::kPageSize;

std::uint64_t keyOff(std::int64_t i) {
  return kSortKeyBase + static_cast<std::uint64_t>(i) * 8;
}
}  // namespace

ClassDef sorterClass() {
  ClassDef def;
  def.name = "sorter";
  def.pheap_size = 256 * ra::kPageSize;  // up to ~256k keys
  def.constructor = [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    ctx.put<std::int64_t>(kSortCountOff, 0);
    return Value{};
  };
  def.entry("fill", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(n, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(seed, argInt(args, 1));
    ctx.put<std::int64_t>(kSortCountOff, n);
    // Write in page-sized strides to keep fault count low.
    std::uint64_t x = static_cast<std::uint64_t>(seed) | 1;
    std::vector<std::uint64_t> chunk(ra::kPageSize / 8);
    for (std::int64_t base = 0; base < n; base += static_cast<std::int64_t>(chunk.size())) {
      const auto count = std::min<std::int64_t>(static_cast<std::int64_t>(chunk.size()),
                                                n - base);
      for (std::int64_t i = 0; i < count; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk[static_cast<std::size_t>(i)] = x;
      }
      CLOUDS_TRY(ctx.writePHeap(keyOff(base),
                                ByteSpan(reinterpret_cast<const std::byte*>(chunk.data()),
                                         static_cast<std::size_t>(count) * 8)));
    }
    return Value{n};
  });
  // Sort keys [lo, hi): the data migrates to the executing node via DSM.
  def.entry("sort_range", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(lo, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(hi, argInt(args, 1));
    const std::int64_t n = hi - lo;
    if (n <= 0) return Value{0};
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
    CLOUDS_TRY(ctx.readPHeap(keyOff(lo), MutableByteSpan(
                                             reinterpret_cast<std::byte*>(keys.data()),
                                             keys.size() * 8)));
    std::sort(keys.begin(), keys.end());
    ctx.compute(sortCost(n));
    CLOUDS_TRY(ctx.writePHeap(keyOff(lo), ByteSpan(
                                              reinterpret_cast<const std::byte*>(keys.data()),
                                              keys.size() * 8)));
    return Value{n};
  });
  // Merge two adjacent sorted ranges [lo,mid) and [mid,hi).
  def.entry("merge", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(lo, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(mid, argInt(args, 1));
    CLOUDS_TRY_ASSIGN(hi, argInt(args, 2));
    const std::int64_t n = hi - lo;
    if (n <= 0) return Value{0};
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
    CLOUDS_TRY(ctx.readPHeap(keyOff(lo), MutableByteSpan(
                                             reinterpret_cast<std::byte*>(keys.data()),
                                             keys.size() * 8)));
    std::inplace_merge(keys.begin(), keys.begin() + (mid - lo), keys.end());
    ctx.compute(mergeCost(n));
    CLOUDS_TRY(ctx.writePHeap(keyOff(lo), ByteSpan(
                                              reinterpret_cast<const std::byte*>(keys.data()),
                                              keys.size() * 8)));
    return Value{n};
  });
  def.entry("is_sorted", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(lo, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(hi, argInt(args, 1));
    std::uint64_t prev = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      std::uint64_t k = 0;
      Bytes b(8);
      CLOUDS_TRY(ctx.readPHeap(keyOff(i), b));
      std::memcpy(&k, b.data(), 8);
      if (k < prev) return Value{false};
      prev = k;
    }
    return Value{true};
  });
  def.entry("checksum", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(lo, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(hi, argInt(args, 1));
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(hi - lo));
    if (!keys.empty()) {
      CLOUDS_TRY(ctx.readPHeap(keyOff(lo), MutableByteSpan(
                                               reinterpret_cast<std::byte*>(keys.data()),
                                               keys.size() * 8)));
      for (std::uint64_t k : keys) sum += k;
    }
    return Value{static_cast<std::int64_t>(sum)};
  });
  return def;
}

void registerAll(ClassRegistry& registry) {
  registry.registerClass(rectangleClass());
  registry.registerClass(counterClass());
  registry.registerClass(bankClass());
  registry.registerClass(fileClass());
  registry.registerClass(mailboxClass());
  registry.registerClass(sorterClass());
}

}  // namespace clouds::obj::samples
