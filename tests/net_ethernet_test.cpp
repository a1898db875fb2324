#include "net/ethernet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/cost_model.hpp"

namespace clouds::net {
namespace {

struct EtherFixture {
  sim::Simulation sim{42};
  sim::CostModel cost;
  Ethernet ether{sim, cost};
  sim::CpuResource cpuA{cost.context_switch};
  sim::CpuResource cpuB{cost.context_switch};
  Nic& a{ether.attach(1, cpuA, "nodeA")};
  Nic& b{ether.attach(2, cpuB, "nodeB")};
};

TEST(Ethernet, DeliversFrameWithPayloadIntact) {
  EtherFixture f;
  Bytes received;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame& fr) { received = fr.payload; });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, toBytes("hello ether")});
  });
  f.sim.run();
  EXPECT_EQ(toString(received), "hello ether");
  EXPECT_EQ(f.sim.metrics().counterValue("nodeA/eth/frames_sent"), 1u);
  EXPECT_EQ(f.sim.metrics().counterValue("nodeB/eth/frames_received"), 1u);
}

TEST(Ethernet, RoundTripMatchesPaperEthernetNumber) {
  // Paper §4.3: "The Ethernet round-trip time is 2.4 ms; this involves
  // sending and receiving a short message (72 bytes) between two compute
  // servers."
  EtherFixture f;
  sim::TimePoint done = sim::kZero;
  f.b.setHandler(kProtoEcho, [&](sim::Process& self, const Frame& fr) {
    f.b.send(self, Frame{kNoNode, fr.src, kProtoEcho, fr.payload});
  });
  f.a.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { done = f.sim.now(); });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(72)});
  });
  f.sim.run();
  ASSERT_GT(done, sim::kZero);
  EXPECT_NEAR(sim::toMillis(done), 2.4, 0.25);
}

TEST(Ethernet, MediumSerializesTransmissions) {
  EtherFixture f;
  std::vector<sim::TimePoint> arrivals;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { arrivals.push_back(f.sim.now()); });
  f.sim.spawn("sender", [&](sim::Process& self) {
    // Two back-to-back MTU frames: the second must queue behind the first.
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(1500)});
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(1500)});
  });
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const auto gap = arrivals[1] - arrivals[0];
  // Sender CPU cost per frame (0.45 ms) < wire time (1.21 ms): the wire is
  // the bottleneck, so consecutive *handler* completions are a wire-time
  // apart, minus the receive-path context switch the first frame paid.
  EXPECT_GE(gap, f.cost.ethTxTime(1500) - f.cost.context_switch - sim::usec(1));
}

TEST(Ethernet, OversizedFrameRejected) {
  EtherFixture f;
  bool threw = false;
  f.sim.spawn("sender", [&](sim::Process& self) {
    try {
      f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(9000)});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  f.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Ethernet, DownNicNeitherSendsNorReceives) {
  EtherFixture f;
  int received = 0;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.b.setUp(false);
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});  // lost: dst down
    self.delay(sim::msec(10));
    f.b.setUp(true);
    f.a.setUp(false);
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});  // lost: src down
    self.delay(sim::msec(10));
    f.a.setUp(true);
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});  // delivered
  });
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Ethernet, ScriptedDropLosesExactlyNFrames) {
  EtherFixture f;
  int received = 0;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
  f.ether.dropNextFrames(2);
  f.sim.spawn("sender", [&](sim::Process& self) {
    for (int i = 0; i < 5; ++i) f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(10)});
  });
  f.sim.run();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(f.sim.metrics().counterValue("net/eth/frames_dropped"), 2u);
}

TEST(Ethernet, RandomDropRateIsSeedDeterministic) {
  auto countDelivered = [](std::uint64_t seed) {
    sim::Simulation sim(seed);
    sim::CostModel cost;
    Ethernet ether(sim, cost);
    sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
    Nic& a = ether.attach(1, ca, "a");
    Nic& b = ether.attach(2, cb, "b");
    ether.setDropRate(0.3);
    int received = 0;
    b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
    sim.spawn("sender", [&](sim::Process& self) {
      for (int i = 0; i < 50; ++i) a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(8)});
    });
    sim.run();
    return received;
  };
  const int r1 = countDelivered(7);
  EXPECT_EQ(r1, countDelivered(7));
  EXPECT_GT(r1, 20);  // ~70% of 50
  EXPECT_LT(r1, 50);  // some loss occurred
}

TEST(Ethernet, DuplicationDeliversTwice) {
  EtherFixture f;
  int received = 0;
  f.ether.setDuplicateRate(1.0);
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame&) { ++received; });
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, Bytes(8)});
  });
  f.sim.run();
  EXPECT_EQ(received, 2);
}

// Frame i carries its number in its first two bytes and a pattern of i in
// the rest; its length varies with i.
Bytes numberedPayload(int i) {
  Bytes payload(static_cast<std::size_t>(2 + (i * 37) % 1400));
  payload[0] = static_cast<std::byte>(i & 0xff);
  payload[1] = static_cast<std::byte>(i >> 8);
  for (std::size_t j = 2; j < payload.size(); ++j) payload[j] = static_cast<std::byte>(i * 13 + j);
  return payload;
}

int frameNumber(const Bytes& payload) {
  return std::to_integer<int>(payload[0]) | (std::to_integer<int>(payload[1]) << 8);
}

TEST(Ethernet, DropsAndDuplicatesKeepTransmitOrderAndPayloads) {
  // With drops and duplicates in the same window, every receiver still gets
  // its frames (unicast and broadcast alike) in transmit order, each intact,
  // a duplicate right behind its original.
  EtherFixture f;
  sim::CpuResource cpuC{f.cost.context_switch};
  Nic& c = f.ether.attach(3, cpuC, "nodeC");
  f.ether.setDropRate(0.2);
  f.ether.setDuplicateRate(0.3);
  constexpr int kFrames = 300;
  auto destination = [](int i) { return i % 5 == 4 ? kBroadcast : NodeId(2 + i % 2); };
  std::map<NodeId, std::vector<int>> got;
  for (Nic* nic : {&f.b, &c}) {
    nic->setHandler(kProtoEcho, [&, nic](sim::Process&, const Frame& fr) {
      const int i = frameNumber(fr.payload);
      EXPECT_EQ(fr.src, 1u);
      EXPECT_EQ(fr.payload, numberedPayload(i)) << "frame " << i;
      EXPECT_TRUE(destination(i) == kBroadcast || destination(i) == nic->address()) << i;
      got[nic->address()].push_back(i);
    });
  }
  f.sim.spawn("sender", [&](sim::Process& self) {
    for (int i = 0; i < kFrames; ++i) {
      f.a.send(self, Frame{kNoNode, destination(i), kProtoEcho, numberedPayload(i)});
    }
  });
  f.sim.run();

  std::vector<int> copies(kFrames, 0);  // deliveries of each frame to one of its receivers
  for (const auto& [node, frames] : got) {
    EXPECT_TRUE(std::is_sorted(frames.begin(), frames.end())) << "node " << node;
    for (int i : frames) {
      if (destination(i) == kBroadcast && node == 3) continue;  // counted at node 2
      ++copies[static_cast<std::size_t>(i)];
    }
  }
  for (int i = 4; i < kFrames; i += 5) {  // both receivers heard each broadcast alike
    EXPECT_EQ(std::count(got[2].begin(), got[2].end(), i),
              std::count(got[3].begin(), got[3].end(), i));
  }
  const auto& m = f.sim.metrics();
  const std::uint64_t dropped = m.counterValue("net/eth/frames_dropped");
  const std::uint64_t duplicated = m.counterValue("net/eth/frames_dup");
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(std::count(copies.begin(), copies.end(), 0), static_cast<long>(dropped));
  EXPECT_EQ(std::count(copies.begin(), copies.end(), 2), static_cast<long>(duplicated));
  EXPECT_EQ(std::count(copies.begin(), copies.end(), 1),
            static_cast<long>(kFrames - dropped - duplicated));
}

TEST(Ethernet, FrameInFlightToACrashedNicIsLost) {
  // Three MTU frames queue on the medium; the crash of B lands while all
  // three are still in flight. B's two are lost, C's arrives intact, and
  // after a restart B receives again.
  EtherFixture f;
  sim::CpuResource cpuC{f.cost.context_switch};
  Nic& c = f.ether.attach(3, cpuC, "nodeC");
  std::vector<Bytes> at_b;
  std::vector<Bytes> at_c;
  f.b.setHandler(kProtoEcho, [&](sim::Process&, const Frame& fr) { at_b.push_back(fr.payload); });
  c.setHandler(kProtoEcho, [&](sim::Process&, const Frame& fr) { at_c.push_back(fr.payload); });
  auto mtuPayload = [&](int i) {
    Bytes payload = numberedPayload(i);
    payload.resize(f.cost.eth_mtu, std::byte{0x5a});
    return payload;
  };
  f.sim.spawn("sender", [&](sim::Process& self) {
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, mtuPayload(1)});
    f.a.send(self, Frame{kNoNode, 3, kProtoEcho, mtuPayload(2)});
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, mtuPayload(3)});
    EXPECT_TRUE(at_b.empty());
    EXPECT_TRUE(at_c.empty());
    f.b.crash();
    self.delay(sim::msec(20));
    f.b.restart();
    f.a.send(self, Frame{kNoNode, 2, kProtoEcho, mtuPayload(4)});
  });
  f.sim.run();
  EXPECT_EQ(at_b, (std::vector<Bytes>{mtuPayload(4)}));
  EXPECT_EQ(at_c, (std::vector<Bytes>{mtuPayload(2)}));
  EXPECT_EQ(f.sim.metrics().counterValue("nodeB/eth/frames_lost"), 2u);
  EXPECT_EQ(f.sim.metrics().counterValue("net/eth/frames_dropped"), 0u);
}

}  // namespace
}  // namespace clouds::net
