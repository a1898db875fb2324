// RaTP edge cases: reply-cache TTL, crash recovery of the endpoint,
// fragment-boundary payload sizes, malformed frames, worker-pool reuse.
#include <gtest/gtest.h>

#include "net/ratp.hpp"
#include "sim/cost_model.hpp"

namespace clouds::net {
namespace {

struct EdgeFixture {
  sim::Simulation sim{42};
  sim::CostModel cost;
  Ethernet ether{sim, cost};
  sim::CpuResource cpuA{cost.context_switch};
  sim::CpuResource cpuB{cost.context_switch};
  Nic& nicA{ether.attach(1, cpuA, "client")};
  Nic& nicB{ether.attach(2, cpuB, "server")};
  RatpEndpoint client{nicA, "client"};
  RatpEndpoint server{nicB, "server"};
};

TEST(RatpEdge, PayloadsAtFragmentBoundaries) {
  EdgeFixture f;
  f.server.bindService(kPortEcho, [](sim::Process&, NodeId, const Bytes& req) { return req; });
  // A fragment carries the MTU minus the 19-byte header, whose last four
  // bytes are the fragment's length; probe sizes straddling one fragment
  // and three.
  const std::size_t cap = f.cost.eth_mtu - 19;
  ASSERT_EQ(cap, 1481u);
  f.sim.spawn("caller", [&](sim::Process& self) {
    for (std::size_t size : {std::size_t{0}, std::size_t{1}, cap - 1, cap, cap + 1, 3 * cap - 1,
                             3 * cap, 3 * cap + 1}) {
      Bytes payload(size);
      for (std::size_t i = 0; i < size; ++i) payload[i] = static_cast<std::byte>(i ^ size);
      const std::uint64_t before = f.sim.metrics().counterValue("client/ratp/fragments_sent");
      auto r = f.client.transact(self, 2, kPortEcho, payload);
      ASSERT_TRUE(r.ok()) << "size " << size;
      EXPECT_EQ(r.value(), payload) << "size " << size;
      const std::size_t fragments = size == 0 ? 1 : (size + cap - 1) / cap;
      EXPECT_EQ(f.sim.metrics().counterValue("client/ratp/fragments_sent") - before, fragments)
          << "size " << size;
    }
  });
  f.sim.run();
  EXPECT_EQ(f.sim.metrics().counterValue("client/ratp/retransmits"), 0u);
}

TEST(RatpEdge, ReplyCacheEventuallyEvicts) {
  EdgeFixture f;
  int executions = 0;
  f.server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    ++executions;
    return req;
  });
  f.sim.spawn("caller", [&](sim::Process& self) {
    (void)f.client.transact(self, 2, kPortEcho, toBytes("a"));
    // Far beyond the 5 s TTL; the next transaction's arrival purges.
    self.delay(sim::sec(12));
    (void)f.client.transact(self, 2, kPortEcho, toBytes("b"));
    (void)f.client.transact(self, 2, kPortEcho, toBytes("c"));
  });
  f.sim.run();
  EXPECT_EQ(executions, 3);
}

TEST(RatpEdge, MalformedFrameIsIgnored) {
  EdgeFixture f;
  f.sim.tracer().setKeepEntries(true);  // the drops are counted from the trace
  int executions = 0;
  f.server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    ++executions;
    return req;
  });
  bool ok = false;
  f.sim.spawn("caller", [&](sim::Process& self) {
    // Garbage frames on the RaTP protocol id must not break the endpoint.
    f.nicA.send(self, Frame{kNoNode, 2, kProtoRatp, Bytes(3, std::byte{0xff})});
    f.nicA.send(self, Frame{kNoNode, 2, kProtoRatp, Bytes{}});
    // A whole one-fragment request header whose length field claims more
    // bytes than the frame carries.
    Encoder e;
    e.u8(1);  // request
    e.u64(77);
    e.u16(kPortEcho);
    e.u16(0);
    e.u16(1);
    e.u32(11);
    Bytes truncated = std::move(e).take();
    truncated.resize(truncated.size() + 10);
    f.nicA.send(self, Frame{kNoNode, 2, kProtoRatp, std::move(truncated)});
    // A whole empty request whose payload runs on past the header: a
    // fragment's bytes travel only in the frame's body.
    Encoder extra;
    extra.u8(1);  // request
    extra.u64(78);
    extra.u16(kPortEcho);
    extra.u16(0);
    extra.u16(1);
    extra.u32(0);
    Bytes overlong = std::move(extra).take();
    overlong.resize(overlong.size() + 10);
    f.nicA.send(self, Frame{kNoNode, 2, kProtoRatp, std::move(overlong)});
    auto r = f.client.transact(self, 2, kPortEcho, toBytes("still works"));
    ok = r.ok();
  });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(executions, 1);
  int dropped = 0;
  for (const auto& entry : f.sim.tracer().entries()) {
    dropped += entry.message == "malformed frame dropped" ? 1 : 0;
  }
  EXPECT_EQ(dropped, 4);
}

TEST(RatpEdge, CrashClearsServerStateAndServiceSurvives) {
  EdgeFixture f;
  int executions = 0;
  f.server.bindService(kPortEcho, [&](sim::Process&, NodeId, const Bytes& req) {
    ++executions;
    return req;
  });
  f.sim.spawn("caller", [&](sim::Process& self) {
    ASSERT_TRUE(f.client.transact(self, 2, kPortEcho, toBytes("pre")).ok());
    f.nicB.crash();
    f.server.onCrash();
    RatpOptions opts;
    opts.timeout = sim::msec(20);
    opts.max_retries = 1;
    EXPECT_FALSE(f.client.transact(self, 2, kPortEcho, toBytes("down"), opts).ok());
    f.nicB.restart();
    // Binding is configuration: it survives the crash.
    EXPECT_TRUE(f.client.transact(self, 2, kPortEcho, toBytes("post")).ok());
  });
  f.sim.run();
  EXPECT_EQ(executions, 2);
}

TEST(RatpEdge, WorkerPoolIsReusedNotGrown) {
  EdgeFixture f;
  f.server.bindService(kPortEcho, [](sim::Process&, NodeId, const Bytes& req) { return req; });
  f.sim.spawn("caller", [&](sim::Process& self) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(f.client.transact(self, 2, kPortEcho, toBytes("x")).ok());
    }
  });
  f.sim.run();
  // Sequential transactions need exactly one worker process; the sim
  // process count stays bounded (2 rx processes + 1 caller + 1 worker).
  EXPECT_LE(f.sim.liveProcessCount(), 5u);
}

TEST(RatpEdge, ManyConcurrentClientsOneServer) {
  EdgeFixture f;
  sim::CpuResource cpuC{f.cost.context_switch};
  Nic& nicC = f.ether.attach(3, cpuC, "client2");
  RatpEndpoint client2(nicC, "client2");
  f.server.bindService(kPortEcho, [](sim::Process& self, NodeId, const Bytes& req) {
    self.delay(sim::msec(5));
    return req;
  });
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    f.sim.spawn("a" + std::to_string(i), [&, i](sim::Process& self) {
      Bytes payload(static_cast<std::size_t>(10 + i));
      auto r = f.client.transact(self, 2, kPortEcho, payload);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().size(), payload.size());
      ++done;
    });
    f.sim.spawn("b" + std::to_string(i), [&, i](sim::Process& self) {
      Bytes payload(static_cast<std::size_t>(2000 + i));
      auto r = client2.transact(self, 2, kPortEcho, payload);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().size(), payload.size());
      ++done;
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 8);
}

}  // namespace
}  // namespace clouds::net
