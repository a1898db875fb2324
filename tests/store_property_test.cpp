// Property tests for the data-server store: arbitrary interleavings of
// writes, prepares, commits, aborts and crashes must always match a simple
// reference model (a map of committed pages).
#include <gtest/gtest.h>

#include <map>

#include "sim/simulation.hpp"
#include "store/disk_store.hpp"
#include "store_read.hpp"

namespace clouds::store {
namespace {

class StorePropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorePropertySweep, RandomOpsMatchReferenceModel) {
  sim::Simulation sim(GetParam());
  sim::CostModel cost;
  DiskStore store(100, cost, /*cache=*/8);

  constexpr std::uint32_t kPages = 6;
  const Sysname seg = store.createSegment(kPages * ra::kPageSize).value();

  // Reference: committed page fill bytes; pending: prepared transactions.
  std::map<ra::PageIndex, std::byte> committed;
  std::map<std::uint64_t, std::vector<PageUpdate>> pending;
  std::uint64_t next_tx = 1;

  sim.spawn("driver", [&](sim::Process& self) {
    auto& rng = sim.rng();
    auto fill = [&](std::byte b) { return Bytes(ra::kPageSize, b); };
    for (int step = 0; step < 300; ++step) {
      switch (rng() % 6) {
        case 0: {  // direct write
          const auto page = static_cast<ra::PageIndex>(rng() % kPages);
          const auto b = static_cast<std::byte>(rng() & 0xff);
          ASSERT_TRUE(store.writePage(self, {seg, page}, fill(b)).ok());
          committed[page] = b;
          break;
        }
        case 1: {  // prepare a transaction of 1-3 pages
          std::vector<PageUpdate> ups;
          const int n = 1 + static_cast<int>(rng() % 3);
          for (int i = 0; i < n; ++i) {
            const auto page = static_cast<ra::PageIndex>(rng() % kPages);
            ups.push_back({{seg, page}, fill(static_cast<std::byte>(rng() & 0xff))});
          }
          const std::uint64_t tx = next_tx++;
          ASSERT_TRUE(store.prepare(self, tx, ups).ok());
          pending[tx] = std::move(ups);
          break;
        }
        case 2: {  // commit a random pending transaction
          if (pending.empty()) break;
          auto it = std::next(pending.begin(),
                              static_cast<std::ptrdiff_t>(rng() % pending.size()));
          ASSERT_TRUE(store.commitPrepared(self, it->first).ok());
          for (const auto& u : it->second) committed[u.key.page] = u.data[0];
          pending.erase(it);
          break;
        }
        case 3: {  // abort a random pending transaction
          if (pending.empty()) break;
          auto it = std::next(pending.begin(),
                              static_cast<std::ptrdiff_t>(rng() % pending.size()));
          ASSERT_TRUE(store.abortPrepared(self, it->first).ok());
          pending.erase(it);
          break;
        }
        case 4: {  // crash: volatile cache gone, durable state intact
          store.loseVolatileState();
          break;
        }
        case 5: {  // read-check one page against the model
          const auto page = static_cast<ra::PageIndex>(rng() % kPages);
          Bytes buf(ra::kPageSize);
          auto written = test::readPageInto(store, self, {seg, page}, buf);
          ASSERT_TRUE(written.ok());
          if (committed.count(page) != 0) {
            EXPECT_TRUE(written.value());
            EXPECT_EQ(buf[17], committed[page]) << "step " << step << " page " << page;
          } else {
            EXPECT_FALSE(written.value());
            EXPECT_EQ(buf[17], std::byte{0});
          }
          break;
        }
      }
    }
    // Full final audit, including the prepared set.
    for (std::uint32_t p = 0; p < kPages; ++p) {
      Bytes buf(ra::kPageSize);
      ASSERT_TRUE(test::readPageInto(store, self, {seg, p}, buf).ok());
      const std::byte want = committed.count(p) != 0 ? committed[p] : std::byte{0};
      EXPECT_EQ(buf[100], want) << "final page " << p;
    }
    std::vector<std::uint64_t> want_prepared;
    for (const auto& [tx, _] : pending) want_prepared.push_back(tx);
    EXPECT_EQ(store.preparedTxids(), want_prepared);
  });
  sim.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorePropertySweep, ::testing::Values(3, 1010, 777777));

}  // namespace
}  // namespace clouds::store
