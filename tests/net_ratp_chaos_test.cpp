// Chaos sweep for RaTP under seeded random frame loss and duplication.
//
// Invariants under any drop/dup rate:
//  * every transaction either completes with the correct echo payload or
//    fails with Errc::timeout once the retry budget is exhausted — no hangs,
//    no corrupted replies, no other error codes;
//  * the registry's RaTP counters agree with what the caller saw
//    (transactions started, completed, timed out; one latency sample per
//    completion);
//  * the whole run — including its metrics snapshot — is a pure function of
//    the simulation seed.
// Plus a deterministic race: a deadline that expires while the client is
// reassembling the reply. Registered with the `chaos` CTest label, so the
// sanitizer lane runs it.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "net/ratp.hpp"
#include "sim/cost_model.hpp"

namespace clouds::net {
namespace {

struct ChaosRun {
  int completed = 0;
  int timed_out = 0;
  std::string metrics_json;
};

// Run kCalls echo transactions through a lossy medium and cross-check the
// metrics against the callers' outcomes before returning.
ChaosRun runChaos(std::uint64_t seed, double drop, double dup) {
  sim::Simulation sim(seed);
  sim::CostModel cost;
  Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
  Nic& na = ether.attach(1, ca, "client");
  Nic& nb = ether.attach(2, cb, "server");
  RatpEndpoint client(na, "client");
  RatpEndpoint server(nb, "server");
  ether.setDropRate(drop);
  ether.setDuplicateRate(dup);
  server.bindService(kPortEcho,
                     [](sim::Process&, NodeId, const Bytes& req) { return req; });

  constexpr int kCalls = 16;
  ChaosRun out;
  sim.spawn("chaos-caller", [&](sim::Process& self) {
    for (int i = 0; i < kCalls; ++i) {
      // Size sweep crosses the fragmentation threshold several times.
      Bytes payload(static_cast<std::size_t>(40 + i * 450));
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::byte>(j * 13 + static_cast<std::size_t>(i));
      }
      auto r = client.transact(self, 2, kPortEcho, payload);
      if (r.ok()) {
        ASSERT_EQ(r.value(), payload) << "corrupted echo, call " << i;
        ++out.completed;
      } else {
        // The only legal failure is a timeout after the full retry budget.
        ASSERT_EQ(r.code(), Errc::timeout) << "call " << i;
        ++out.timed_out;
      }
    }
  });
  sim.run();

  const sim::MetricsRegistry& m = sim.metrics();
  EXPECT_EQ(out.completed + out.timed_out, kCalls);
  EXPECT_EQ(m.counterValue("client/ratp/transactions"), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(m.counterValue("client/ratp/completed"), static_cast<std::uint64_t>(out.completed));
  EXPECT_EQ(m.counterValue("client/ratp/timeouts"), static_cast<std::uint64_t>(out.timed_out));

  // Completed transactions each record one latency sample.
  const sim::Histogram* lat = m.findHistogram("client/ratp/txn_latency_usec");
  EXPECT_NE(lat, nullptr);
  if (lat != nullptr) {
    EXPECT_EQ(lat->count(), static_cast<std::uint64_t>(out.completed));
  }

  if (drop == 0.0) {
    EXPECT_EQ(m.counterValue("net/eth/frames_dropped"), 0u);
    EXPECT_EQ(out.timed_out, 0);
    EXPECT_EQ(m.counterValue("client/ratp/retransmits"), 0u);
  } else {
    // A lossy wire must actually have lost frames for the sweep to mean
    // anything, and every loss-triggered retransmission is visible.
    EXPECT_GT(m.counterValue("net/eth/frames_dropped"), 0u);
    EXPECT_GT(m.counterValue("client/ratp/retransmits"), 0u);
  }

  out.metrics_json = m.toJson();
  return out;
}

class RatpChaosSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RatpChaosSweep, CompletesOrTimesOutAndMetricsBalance) {
  const auto [drop, dup] = GetParam();
  const ChaosRun a = runChaos(0xC10DD5, drop, dup);
  // Same seed, same rates: byte-identical metrics snapshot.
  const ChaosRun b = runChaos(0xC10DD5, drop, dup);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
}

INSTANTIATE_TEST_SUITE_P(DropDupMatrix, RatpChaosSweep,
                         ::testing::Values(std::make_tuple(0.0, 0.0),
                                           std::make_tuple(0.05, 0.0),
                                           std::make_tuple(0.2, 0.0),
                                           std::make_tuple(0.0, 0.05),
                                           std::make_tuple(0.05, 0.05),
                                           std::make_tuple(0.2, 0.2)));

TEST(RatpChaos, UnreachableNodeSpendsExactRetryBudget) {
  // A destination that does not exist: every frame is dropped by the medium
  // (no such NIC), so the transaction must burn the whole retry budget and
  // surface Errc::timeout, with every retransmission visible in metrics.
  sim::Simulation sim(99);
  sim::CostModel cost;
  Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch);
  Nic& na = ether.attach(1, ca, "client");
  RatpEndpoint client(na, "client");

  constexpr int kRetries = 3;
  Errc code = Errc::ok;
  sim.spawn("caller", [&](sim::Process& self) {
    RatpOptions opts;
    opts.timeout = sim::msec(15);
    opts.max_retries = kRetries;
    auto r = client.transact(self, 77, kPortEcho, toBytes("void"), opts);
    code = r.ok() ? Errc::ok : r.code();
  });
  sim.run();

  EXPECT_EQ(code, Errc::timeout);
  const sim::MetricsRegistry& m = sim.metrics();
  EXPECT_EQ(m.counterValue("client/ratp/retransmits"), static_cast<std::uint64_t>(kRetries));
  EXPECT_EQ(m.counterValue("client/ratp/timeouts"), 1u);
  EXPECT_EQ(m.counterValue("client/ratp/completed"), 0u);
  // Every frame sent at a nonexistent destination is dropped by the medium.
  EXPECT_EQ(m.counterValue("net/eth/frames_dropped"), m.counterValue("net/eth/frames_on_wire"));
}

TEST(RatpChaos, DeadlineDuringReplyReassemblyTimesOutCleanly) {
  // The reply is in hand and being reassembled (a blocking CPU charge) when
  // the caller's only deadline passes: transact gives up and erases the
  // transaction. The reassembly that finishes afterwards must neither touch
  // the erased entry nor wake the caller, which has moved on.
  sim::Simulation sim(5);
  sim::CostModel cost;
  cost.ratp_reassembly = sim::msec(40);  // a wide window for the deadline
  Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
  Nic& na = ether.attach(1, ca, "client");
  Nic& nb = ether.attach(2, cb, "server");
  RatpEndpoint client(na, "client");
  RatpEndpoint server(nb, "server");
  server.bindService(kPortEcho,
                     [](sim::Process&, NodeId, const Bytes& req) { return req; });

  const sim::MetricsRegistry& m = sim.metrics();
  bool ran = false;
  sim.spawn("caller", [&](sim::Process& self) {
    // A full exchange first, with no retransmission: its duration ends with
    // the client's reply reassembly, so the same exchange with a deadline
    // half a reassembly short of it expires mid-reassembly.
    RatpOptions patient;
    patient.timeout = sim::sec(1);
    const sim::TimePoint t0 = sim.now();
    ASSERT_TRUE(client.transact(self, 2, kPortEcho, toBytes("ping"), patient).ok());
    RatpOptions opts;
    opts.max_retries = 0;
    opts.timeout = (sim.now() - t0) - cost.ratp_reassembly / 2;
    const std::uint64_t received = m.counterValue("client/eth/frames_received");
    auto r = client.transact(self, 2, kPortEcho, toBytes("ping"), opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::timeout);
    // The reply frame had already been taken off the wire.
    EXPECT_EQ(m.counterValue("client/eth/frames_received"), received + 1);
    // No stale wake from the finished reassembly.
    EXPECT_FALSE(self.blockFor(cost.ratp_reassembly));
    auto again = client.transact(self, 2, kPortEcho, toBytes("pong"), patient);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(toString(again.value().flatten()), "pong");
    ran = true;
  });
  sim.run();

  EXPECT_TRUE(ran);
  EXPECT_EQ(m.counterValue("client/ratp/completed"), 2u);
  EXPECT_EQ(m.counterValue("client/ratp/timeouts"), 1u);
  EXPECT_EQ(m.counterValue("client/ratp/retransmits"), 0u);
}

}  // namespace
}  // namespace clouds::net
