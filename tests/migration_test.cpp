// Live object migration (src/migrate), built test-first: the state machine
// and the wire/durable ForwardRecord are specified here transition by
// transition, then the full protocol is exercised through the cluster
// façade — drain semantics, state preservation across the handoff,
// forward-stub chasing from raw sysnames, exactly-once collapse of
// NameServer forwarding entries, and abort-with-restored-ownership when the
// target is dead. Chaos-grade crash/partition sweeps live in
// migration_chaos_test.cpp.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "clouds/cluster.hpp"
#include "clouds/context.hpp"
#include "clouds/standard_classes.hpp"
#include "migrate/protocol.hpp"
#include "migrate/state.hpp"
#include "ra/types.hpp"

namespace clouds {
namespace {

using obj::Value;

// ------------------------------------------------------------------- FSM

TEST(MigrationFsm, HappyPathWalksEveryState) {
  migrate::MigrationFsm fsm;
  std::vector<migrate::State> seen;
  fsm.onTransition([&](migrate::State s) { seen.push_back(s); });
  EXPECT_EQ(fsm.state(), migrate::State::idle);
  EXPECT_EQ(fsm.generation(), 0u);

  EXPECT_TRUE(fsm.begin());
  EXPECT_EQ(fsm.state(), migrate::State::draining);
  EXPECT_EQ(fsm.generation(), 1u);
  EXPECT_TRUE(fsm.drained());
  EXPECT_EQ(fsm.state(), migrate::State::shipping);
  EXPECT_TRUE(fsm.shipped());
  EXPECT_EQ(fsm.state(), migrate::State::committing);
  EXPECT_TRUE(fsm.committed());
  EXPECT_EQ(fsm.state(), migrate::State::adopted);
  EXPECT_TRUE(fsm.finish());
  EXPECT_EQ(fsm.state(), migrate::State::idle);

  const std::vector<migrate::State> want{
      migrate::State::draining, migrate::State::shipping, migrate::State::committing,
      migrate::State::adopted, migrate::State::idle};
  EXPECT_EQ(seen, want);

  // A second attempt bumps the generation.
  EXPECT_TRUE(fsm.begin());
  EXPECT_EQ(fsm.generation(), 2u);
}

TEST(MigrationFsm, IllegalTransitionsAreRejectedInPlace) {
  migrate::MigrationFsm fsm;
  // Nothing but begin() leaves idle.
  EXPECT_FALSE(fsm.drained());
  EXPECT_FALSE(fsm.shipped());
  EXPECT_FALSE(fsm.committed());
  EXPECT_FALSE(fsm.finish());
  EXPECT_FALSE(fsm.reset());
  EXPECT_EQ(fsm.state(), migrate::State::idle);

  ASSERT_TRUE(fsm.begin());
  // The machine is claimed: a second begin and out-of-order advances fail
  // without disturbing the current state.
  EXPECT_FALSE(fsm.begin());
  EXPECT_FALSE(fsm.shipped());
  EXPECT_FALSE(fsm.committed());
  EXPECT_FALSE(fsm.finish());
  EXPECT_EQ(fsm.state(), migrate::State::draining);
  EXPECT_EQ(fsm.generation(), 1u);
}

TEST(MigrationFsm, AbortEdgesFromEveryInFlightState) {
  for (int depth = 0; depth < 3; ++depth) {  // draining, shipping, committing
    migrate::MigrationFsm fsm;
    ASSERT_TRUE(fsm.begin());
    if (depth >= 1) {
      ASSERT_TRUE(fsm.drained());
    }
    if (depth >= 2) {
      ASSERT_TRUE(fsm.shipped());
    }
    EXPECT_TRUE(fsm.abort());
    EXPECT_EQ(fsm.state(), migrate::State::aborted);
    // Aborted accepts only reset.
    EXPECT_FALSE(fsm.begin());
    EXPECT_FALSE(fsm.drained());
    EXPECT_TRUE(fsm.reset());
    EXPECT_EQ(fsm.state(), migrate::State::idle);
  }
  // idle and adopted cannot abort: nothing is in flight / the flip is
  // already durable.
  migrate::MigrationFsm fsm;
  EXPECT_FALSE(fsm.abort());
  ASSERT_TRUE(fsm.begin());
  ASSERT_TRUE(fsm.drained());
  ASSERT_TRUE(fsm.shipped());
  ASSERT_TRUE(fsm.committed());
  EXPECT_FALSE(fsm.abort());
  EXPECT_EQ(fsm.state(), migrate::State::adopted);
}

TEST(MigrationFsm, ForceIdleModelsACrashWithoutObserverCeremony) {
  migrate::MigrationFsm fsm;
  int calls = 0;
  fsm.onTransition([&](migrate::State) { ++calls; });
  ASSERT_TRUE(fsm.begin());
  ASSERT_TRUE(fsm.drained());
  EXPECT_EQ(calls, 2);
  fsm.forceIdle();
  EXPECT_EQ(fsm.state(), migrate::State::idle);
  EXPECT_EQ(calls, 2);  // the observer's world is gone too
  // The machine is reusable and the generation history survives.
  EXPECT_TRUE(fsm.begin());
  EXPECT_EQ(fsm.generation(), 2u);
}

// ----------------------------------------------------------- ForwardRecord

migrate::ForwardRecord sampleRecord() {
  migrate::ForwardRecord rec;
  rec.generation = 7;
  rec.new_header = ra::makeHomedSysname(51, 9001);
  rec.class_name = "counter";
  rec.moves = {{ra::makeHomedSysname(50, 11), ra::makeHomedSysname(51, 9002), ra::kPageSize},
               {ra::makeHomedSysname(50, 12), ra::makeHomedSysname(51, 9003),
                4 * ra::kPageSize}};
  return rec;
}

TEST(ForwardRecord, CodecRoundTripAndPageImage) {
  const migrate::ForwardRecord rec = sampleRecord();
  auto back = migrate::ForwardRecord::decode(rec.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), rec);

  // The durable header image is exactly one page and still decodes (the
  // padding is part of the page, not the record).
  auto page_r = rec.encodePage();
  ASSERT_TRUE(page_r.ok());
  const Bytes page = std::move(page_r).value();
  ASSERT_EQ(page.size(), ra::kPageSize);
  EXPECT_TRUE(migrate::isForwardPage(page));
  auto from_page = migrate::ForwardRecord::decode(page);
  ASSERT_TRUE(from_page.ok());
  EXPECT_EQ(from_page.value(), rec);
}

TEST(ForwardRecord, EncodePageRefusesOversizedRecords) {
  // A record that cannot fit one page must fail loudly, never truncate: the
  // page image becomes the object's permanent durable tombstone.
  migrate::ForwardRecord rec = sampleRecord();
  rec.class_name.assign(migrate::kMaxClassName + 1, 'x');
  EXPECT_FALSE(rec.encodePage().ok());

  migrate::ForwardRecord crowded = sampleRecord();
  crowded.moves.resize(migrate::kMaxMoves + 1, crowded.moves.front());
  EXPECT_FALSE(crowded.encodePage().ok());
}

TEST(ForwardRecord, DiscriminatorRejectsNonForwardPages) {
  EXPECT_FALSE(migrate::isForwardPage(Bytes{}));
  EXPECT_FALSE(migrate::isForwardPage(Bytes(3, std::byte{0xff})));
  EXPECT_FALSE(migrate::isForwardPage(Bytes(ra::kPageSize, std::byte{0})));
  // A descriptor-magic page is emphatically not a forward page.
  Bytes desc_like(ra::kPageSize, std::byte{0});
  const std::uint32_t desc_magic = 0xC10D0B1Eu;
  std::memcpy(desc_like.data(), &desc_magic, sizeof(desc_magic));
  EXPECT_FALSE(migrate::isForwardPage(desc_like));
}

TEST(ForwardRecord, RejectsMalformedWire) {
  const Bytes wire = sampleRecord().encode();
  EXPECT_FALSE(migrate::ForwardRecord::decode({}).ok());
  Bytes bad_magic = wire;
  bad_magic[0] = std::byte{0x00};
  EXPECT_FALSE(migrate::ForwardRecord::decode(bad_magic).ok());
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(migrate::ForwardRecord::decode(truncated).ok());
}

// Property sweep over the segment-transfer codec: random records round-trip
// bit-exactly, and EVERY truncation prefix is rejected as a clean error
// (never UB) — a migrating header page can be torn by a crash at any byte.
class ForwardCodecSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForwardCodecSweep, RandomRecordsRoundTripAndTruncationsFail) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 64; ++iter) {
    migrate::ForwardRecord rec;
    rec.generation = rng();
    rec.new_header = ra::makeHomedSysname(static_cast<std::uint32_t>(rng() % 256),
                                          rng() % (1u << 20));
    const std::size_t name_len = rng() % 64;
    for (std::size_t i = 0; i < name_len; ++i) {
      rec.class_name.push_back(static_cast<char>('a' + rng() % 26));
    }
    const std::size_t n_moves = rng() % (migrate::kMaxMoves + 1);
    for (std::size_t i = 0; i < n_moves; ++i) {
      rec.moves.push_back({ra::makeHomedSysname(static_cast<std::uint32_t>(rng() % 256),
                                                rng() % (1u << 20)),
                           ra::makeHomedSysname(static_cast<std::uint32_t>(rng() % 256),
                                                rng() % (1u << 20)),
                           rng() % migrate::kMaxSegmentLength});
    }

    const Bytes wire = rec.encode();
    auto back = migrate::ForwardRecord::decode(wire);
    ASSERT_TRUE(back.ok()) << "iter " << iter;
    EXPECT_EQ(back.value(), rec) << "iter " << iter;

    // Every proper prefix must fail decode without UB.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(migrate::ForwardRecord::decode(prefix).ok())
          << "iter " << iter << " cut " << cut;
    }
    // And random corruption of a single byte never crashes the decoder
    // (it may still round-trip if the byte lands in the class name).
    Bytes mangled = wire;
    mangled[rng() % mangled.size()] ^= std::byte{0x5a};
    (void)migrate::ForwardRecord::decode(mangled);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardCodecSweep, ::testing::Values(3, 1010, 777777));

// ------------------------------------------------------------ cluster rig

ClusterConfig twoCombined() {
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 2;  // compute i == data i, each with its own disk
  cfg.workstations = 0;
  return cfg;
}

// One of a node's counters, "<node>/<metric>", from the cluster registry.
std::uint64_t nodeCounter(Cluster& c, ra::Node& node, const std::string& metric) {
  return c.sim().metrics().counterValue(node.name() + "/" + metric);
}

// A class whose entry spins on the CPU for a controllable time — the tool
// for holding an invocation in flight while the drain gate closes.
obj::ClassDef slowClass() {
  obj::ClassDef def;
  def.name = "slow";
  def.constructor = [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<Value> {
    ctx.put<std::int64_t>(0, 0x5EED);
    return Value{};
  };
  def.entry("spin", [](obj::ObjectContext& ctx, const obj::ValueList& args) -> Result<Value> {
    const std::int64_t ms = args.empty() ? 10 : args[0].intOr(10);
    ctx.compute(sim::msec(ms));
    return Value{ctx.get<std::int64_t>(0)};
  });
  def.entry("peek", [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<Value> {
    return Value{ctx.get<std::int64_t>(0)};
  });
  return def;
}

// ----------------------------------------------------------------- drain

TEST(MigrationDrain, GateBlocksNewInvocationsUntilEndDrain) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  const auto sys = c.create("counter", "C", /*data_idx=*/0, /*compute_idx=*/0);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE(c.call("C", "add", {5}, 0).ok());

  obj::Runtime& rt = c.runtime(0);
  ASSERT_TRUE(rt.beginDrain(sys.value()));
  EXPECT_FALSE(rt.beginDrain(sys.value()));  // already draining
  EXPECT_TRUE(rt.draining(sys.value()));

  auto h = c.start("C", "add", {1}, 0);
  c.run();
  EXPECT_FALSE(h->done);  // parked on the drain gate, not failed

  rt.endDrain(sys.value());
  c.run();
  ASSERT_TRUE(h->done);
  EXPECT_TRUE(h->result.ok());
  EXPECT_EQ(c.call("C", "value", {}, 0).value(), Value{6});
  EXPECT_FALSE(rt.draining(sys.value()));
}

TEST(MigrationDrain, InFlightInvocationFinishesAndQuiesceObservesIt) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  c.classes().registerClass(slowClass());
  const auto sys = c.create("slow", "S", /*data_idx=*/0, /*compute_idx=*/0);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE(c.call("S", "peek", {}, 0).ok());  // warm the activation

  obj::Runtime& rt = c.runtime(0);
  auto inflight = c.start("S", "spin", {std::int64_t{100}}, 0);
  // Let it get INTO the entry point (name lookup + activation take a few
  // simulated milliseconds of round trips first).
  for (int i = 0; i < 50 && rt.executingThreads(sys.value()) == 0; ++i) {
    c.sim().runFor(sim::msec(1));
  }
  ASSERT_EQ(rt.executingThreads(sys.value()), 1);

  ASSERT_TRUE(rt.beginDrain(sys.value()));
  auto late = c.start("S", "peek", {}, 0);  // arrives after the gate closed

  Result<void> quiesced = makeError(Errc::internal, "never ran");
  rt.spawnThread("waiter", [&](obj::CloudsThread& t) {
    quiesced = rt.waitQuiesced(*t.process, sys.value(), sim::msec(500));
  });
  c.run();

  // The in-flight invocation ran to completion under the closed gate...
  ASSERT_TRUE(inflight->done);
  EXPECT_TRUE(inflight->result.ok());
  EXPECT_EQ(inflight->result.value(), Value{0x5EED});
  // ...the quiesce waiter saw it leave...
  EXPECT_TRUE(quiesced.ok());
  EXPECT_EQ(rt.executingThreads(sys.value()), 0);
  // ...and the late invocation is still parked.
  EXPECT_FALSE(late->done);

  rt.endDrain(sys.value());
  c.run();
  ASSERT_TRUE(late->done);
  EXPECT_TRUE(late->result.ok());
}

TEST(MigrationDrain, QuiesceTimesOutOnAStuckInvocation) {
  Cluster c(twoCombined());
  c.classes().registerClass(slowClass());
  const auto sys = c.create("slow", "S", 0, 0);
  ASSERT_TRUE(sys.ok());

  auto stuck = c.start("S", "spin", {std::int64_t{400}}, 0);
  obj::Runtime& rt = c.runtime(0);
  for (int i = 0; i < 50 && rt.executingThreads(sys.value()) == 0; ++i) {
    c.sim().runFor(sim::msec(1));
  }
  ASSERT_EQ(rt.executingThreads(sys.value()), 1);
  ASSERT_TRUE(rt.beginDrain(sys.value()));

  Result<void> quiesced = okResult();
  rt.spawnThread("waiter", [&](obj::CloudsThread& t) {
    quiesced = rt.waitQuiesced(*t.process, sys.value(), sim::msec(20));
  });
  c.run();
  EXPECT_EQ(quiesced.code(), Errc::timeout);
  rt.endDrain(sys.value());
  c.run();
  EXPECT_TRUE(stuck->done);
}

// -------------------------------------------------------------- protocol

TEST(Migration, SyncMigrationMovesTheObjectAndPreservesState) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  const auto old_sys = c.create("counter", "C", /*data_idx=*/0, /*compute_idx=*/0);
  ASSERT_TRUE(old_sys.ok());
  ASSERT_TRUE(c.call("C", "add", {5}, 0).ok());

  const auto moved = c.migrateObjectSync(/*compute_idx=*/0, old_sys.value(),
                                         /*target_data_idx=*/1);
  ASSERT_TRUE(moved.ok()) << moved.error().toString();
  EXPECT_NE(moved.value(), old_sys.value());
  EXPECT_EQ(ra::sysnameHome(old_sys.value()), c.dataNode(0).id());
  EXPECT_EQ(ra::sysnameHome(moved.value()), c.dataNode(1).id());

  // State survived the handoff; the object keeps working by name.
  EXPECT_EQ(c.call("C", "value", {}, 0).value(), Value{5});
  ASSERT_TRUE(c.call("C", "add", {3}, 1).ok());
  EXPECT_EQ(c.call("C", "value", {}, 1).value(), Value{8});

  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/started"), 1u);
  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/committed"), 1u);
  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/aborted"), 0u);
  EXPECT_EQ(c.migrator(0).state(), migrate::State::idle);
  EXPECT_EQ(c.stats().migrations_committed, 1u);
  // The deterministic transcript recorded the full state walk.
  const std::string events = c.migrationEvents();
  EXPECT_NE(events.find("state draining"), std::string::npos);
  EXPECT_NE(events.find("state shipping"), std::string::npos);
  EXPECT_NE(events.find("state committing"), std::string::npos);
  EXPECT_NE(events.find("committed"), std::string::npos);
  // Nothing left draining.
  EXPECT_FALSE(c.runtime(0).draining(old_sys.value()));
}

TEST(Migration, RawOldSysnameChasesTheForwardStub) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  const auto old_sys = c.create("counter", "C", 0, 0);
  ASSERT_TRUE(old_sys.ok());
  ASSERT_TRUE(c.call("C", "add", {5}, 0).ok());
  ASSERT_TRUE(c.migrateObjectSync(0, old_sys.value(), 1).ok());

  // A holder of the raw old sysname — on a node that never heard of the
  // migration — lands on the durable stub and follows it transparently.
  EXPECT_EQ(c.callObject(old_sys.value(), "value", {}, /*compute_idx=*/1).value(), Value{5});
  EXPECT_GE(nodeCounter(c, c.computeNode(1), "obj/forward_chases"), 1u);
  // Repeat invocations keep working (the chase is re-resolved, not cached
  // into a wrong place).
  ASSERT_TRUE(c.callObject(old_sys.value(), "add", {2}, 1).ok());
  EXPECT_EQ(c.callObject(old_sys.value(), "value", {}, 0).value(), Value{7});
  EXPECT_GE(c.stats().forward_chases, 1u);
}

TEST(Migration, CachedActivationChasesAfterMigrationWithoutLeakingScope) {
  // Regression: node 2 caches an activation, the object then migrates 0 -> 1
  // behind its back, and node 2's frame cache has since evicted the payload
  // frames. A scope-opening (non-s) entry then demand-pages the destroyed
  // old segments and fails with not_found; that failure must close the
  // freshly opened scope — a leaked scope would both hold locks until lease
  // expiry and permanently disarm invoke()'s forward chase (gated on
  // !t.scope), turning every later invocation from this node into not_found.
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 3;
  cfg.workstations = 0;
  Cluster c(cfg);
  obj::samples::registerAll(c.classes());
  const auto old_sys = c.create("counter", "C", /*data_idx=*/0, /*compute_idx=*/0);
  ASSERT_TRUE(old_sys.ok());
  // Warm node 2's activation while the object still lives on node 0, and
  // remember the pre-migration payload segments.
  ASSERT_TRUE(c.callObject(old_sys.value(), "add_gcp", {5}, /*compute_idx=*/2).ok());
  ASSERT_TRUE(c.runtime(2).isActive(old_sys.value()));
  obj::ObjectDescriptor desc;
  bool probed = false;
  c.runtime(2).spawnThread("probe", [&](obj::CloudsThread& t) {
    auto page = c.dsmClient(2).resolvePage(*t.process, {old_sys.value(), 0}, ra::Access::read);
    if (!page.ok()) return;
    auto d = obj::ObjectDescriptor::decode(ByteSpan(page.value().data(), ra::kPageSize));
    if (!d.ok()) return;
    desc = d.value();
    probed = true;
  });
  c.run();
  ASSERT_TRUE(probed);

  ASSERT_TRUE(c.migrateObjectSync(0, old_sys.value(), 1).ok());

  // Model cache pressure: node 2 loses its frames for the (now destroyed)
  // old segments but keeps the stale activation itself.
  c.dsmClient(2).dropSegment(old_sys.value());
  c.dsmClient(2).dropSegment(desc.data_seg);
  c.dsmClient(2).dropSegment(desc.pheap_seg);
  ASSERT_TRUE(c.runtime(2).isActive(old_sys.value()));

  // The stale activation must chase, and keep chasing on repeat writes.
  ASSERT_TRUE(c.callObject(old_sys.value(), "add_gcp", {2}, 2).ok());
  EXPECT_EQ(c.callObject(old_sys.value(), "value", {}, 2).value(), Value{7});
  ASSERT_TRUE(c.callObject(old_sys.value(), "add_gcp", {1}, 2).ok());
  EXPECT_EQ(c.callObject(old_sys.value(), "value", {}, 2).value(), Value{8});
  EXPECT_GE(nodeCounter(c, c.computeNode(2), "obj/forward_chases"), 1u);
}

TEST(Migration, NameServerForwardResolvesExactlyOnceThenCollapses) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  const auto old_sys = c.create("counter", "C", 0, 0);
  ASSERT_TRUE(old_sys.ok());
  ASSERT_TRUE(c.call("C", "add", {4}, 0).ok());
  ASSERT_TRUE(c.migrateObjectSync(0, old_sys.value(), 1).ok());

  sysobj::NameServer& ns = c.nameServer();
  ra::Node& ns_node = c.dataNode(0);  // the name server's host
  ASSERT_EQ(ns.forwardCount(), 1u);
  ASSERT_EQ(nodeCounter(c, ns_node, "names/forwards_installed"), 1u);
  EXPECT_EQ(nodeCounter(c, ns_node, "names/forwards_collapsed"), 0u);

  // First lookup chases the entry AND rewrites the binding in place: the
  // forwarding entry is consumed.
  EXPECT_EQ(c.call("C", "value", {}, 0).value(), Value{4});
  EXPECT_EQ(ns.forwardCount(), 0u);
  EXPECT_EQ(nodeCounter(c, ns_node, "names/forwards_collapsed"), 1u);

  // Later lookups are direct hits — no forwarding machinery involved.
  EXPECT_EQ(c.call("C", "value", {}, 1).value(), Value{4});
  EXPECT_EQ(nodeCounter(c, ns_node, "names/forwards_collapsed"), 1u);
}

TEST(Migration, ReMigrationChainsAreFollowedToTheEnd) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  const auto first = c.create("counter", "C", 0, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(c.call("C", "add", {9}, 0).ok());

  const auto second = c.migrateObjectSync(0, first.value(), 1);
  ASSERT_TRUE(second.ok());
  const auto third = c.migrateObjectSync(1, second.value(), 0);
  ASSERT_TRUE(third.ok()) << third.error().toString();
  EXPECT_EQ(ra::sysnameHome(third.value()), c.dataNode(0).id());

  // The ORIGINAL sysname now sits two stubs away from the object.
  EXPECT_EQ(c.callObject(first.value(), "value", {}, 1).value(), Value{9});
  EXPECT_EQ(c.call("C", "value", {}, 0).value(), Value{9});
  EXPECT_EQ(c.stats().migrations_committed, 2u);
}

TEST(Migration, AbortOnPeerDeathRestoresLocalOwnership) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  const auto sys = c.create("counter", "C", 0, 0);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE(c.call("C", "add", {6}, 0).ok());

  c.crashData(1);  // the adopting store dies before the transfer
  const auto moved = c.migrateObjectSync(0, sys.value(), 1);
  EXPECT_FALSE(moved.ok());

  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/started"), 1u);
  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/aborted"), 1u);
  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/committed"), 0u);
  EXPECT_EQ(c.migrator(0).state(), migrate::State::idle);
  // Ownership fully restored: not draining, no forwarding entry, and the
  // object serves reads and writes from its original home.
  EXPECT_FALSE(c.runtime(0).draining(sys.value()));
  EXPECT_EQ(c.nameServer().forwardCount(), 0u);
  EXPECT_EQ(c.call("C", "value", {}, 0).value(), Value{6});
  ASSERT_TRUE(c.call("C", "add", {1}, 0).ok());
  EXPECT_EQ(c.call("C", "value", {}, 0).value(), Value{7});
}

TEST(Migration, RejectsNonsenseArguments) {
  Cluster c(twoCombined());
  obj::samples::registerAll(c.classes());
  const auto sys = c.create("counter", "C", 0, 0);
  ASSERT_TRUE(sys.ok());

  // Migrating to the node the object already lives on is a no-op request.
  EXPECT_EQ(c.migrateObjectSync(0, sys.value(), 0).code(), Errc::bad_argument);
  // A non-segment sysname is not an object.
  EXPECT_EQ(c.migrateObjectSync(0, Sysname(1, 2), 1).code(), Errc::bad_argument);
  // No protocol state was burned on either rejection.
  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/started"), 0u);
  EXPECT_EQ(c.migrator(0).state(), migrate::State::idle);
}

// ---------------------------------------------------------------- daemon

TEST(MigrationDaemon, MigratesAHotObjectUnderSkewedLoad) {
  ClusterConfig cfg = twoCombined();
  cfg.sched.gossip_interval = sim::msec(10);
  cfg.migrate.enabled = true;
  cfg.migrate.interval = sim::msec(20);
  cfg.migrate.cooldown = sim::msec(50);
  cfg.migrate.high_watermark = 3;
  cfg.migrate.low_watermark = 1;
  cfg.migrate.min_heat = 1;
  Cluster c(cfg);
  c.classes().registerClass(slowClass());
  const auto sys = c.create("slow", "H", /*data_idx=*/0, /*compute_idx=*/0);
  ASSERT_TRUE(sys.ok());

  // Pile work onto compute 0 while compute 1 idles: the daemon should ship
  // H's segments to the disk co-located with the cold peer.
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(c.start("H", "spin", {std::int64_t{15}}, 0));
  }
  c.run();

  for (auto& h : handles) {
    ASSERT_TRUE(h->done);
    EXPECT_TRUE(h->result.ok()) << h->result.error().toString();
  }
  const Cluster::Stats st = c.stats();
  EXPECT_GE(st.migrations_committed, 1u) << st.toString();
  EXPECT_EQ(nodeCounter(c, c.computeNode(0), "migrate/in_doubt"), 0u);
  // The object survived the mid-load handoff with its state intact.
  EXPECT_EQ(c.call("H", "peek", {}, 1).value(), Value{0x5EED});
}

// ------------------------------------------------------------- rebalance

// The "stranded placements" fix (docs/MIGRATION.md): objects dogpiled onto
// one node spread back out once the cluster is quiet — without the old
// pressure path ever firing, and without two idle nodes trading objects
// forever afterwards.
ClusterConfig rebalanceRig() {
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 3;
  cfg.workstations = 0;
  cfg.sched.gossip_interval = sim::msec(10);
  cfg.migrate.enabled = true;
  cfg.migrate.rebalance = true;
  cfg.migrate.interval = sim::msec(20);
  cfg.migrate.cooldown = sim::msec(50);
  cfg.migrate.target_backoff = sim::msec(60);
  cfg.migrate.high_watermark = 100;  // pressure path effectively off
  cfg.migrate.low_watermark = 1;
  cfg.migrate.min_heat = 1;
  return cfg;
}

TEST(MigrationRebalance, QuietNodeSpreadsItsPileAndThenStaysPut) {
  Cluster c(rebalanceRig());
  obj::samples::registerAll(c.classes());
  // Four hot objects, all homed on (and invoked from) node 0 — the shape a
  // one-time-cold node is left in after a pressure episode.
  for (int i = 0; i < 4; ++i) {
    const std::string name = "C" + std::to_string(i);
    ASSERT_TRUE(c.create("counter", name, /*data_idx=*/0, /*compute_idx=*/0).ok());
    ASSERT_TRUE(c.call(name, "add", {1}, 0).ok());
    ASSERT_TRUE(c.call(name, "add", {1}, 0).ok());
  }
  // Cluster is now quiet. Let gossip + the daemons run: strictly-improving
  // moves take the 4-0-0 pile to 2-1-1 and then stop.
  c.sim().runFor(sim::msec(3000));
  const std::uint64_t committed = c.stats().migrations_committed;
  EXPECT_EQ(committed, 2u) << c.stats().toString();
  EXPECT_NE(c.migrationEvents().find("rebalance pile"), std::string::npos);

  // Stability: much more quiet time moves nothing further (no ping-pong
  // between the now-equally-idle nodes).
  c.sim().runFor(sim::msec(5000));
  EXPECT_EQ(c.stats().migrations_committed, committed);

  // Every object still answers by name with its state intact, wherever it
  // now lives.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.call("C" + std::to_string(i), "value", {}, 0).value(), Value{2});
  }
}

TEST(MigrationRebalance, SingleObjectNeverShedsAndOptOutStaysStranded) {
  // A pile of one is locality, not imbalance: it must not move.
  {
    Cluster c(rebalanceRig());
    obj::samples::registerAll(c.classes());
    ASSERT_TRUE(c.create("counter", "Only", 0, 0).ok());
    ASSERT_TRUE(c.call("Only", "add", {1}, 0).ok());
    ASSERT_TRUE(c.call("Only", "add", {1}, 0).ok());
    c.sim().runFor(sim::msec(3000));
    EXPECT_EQ(c.stats().migrations_committed, 0u) << c.stats().toString();
  }
  // With rebalance off (the default), the pile stays stranded — pinning the
  // old behaviour so the nudge is provably what moved the objects above.
  {
    ClusterConfig cfg = rebalanceRig();
    cfg.migrate.rebalance = false;
    Cluster c(cfg);
    obj::samples::registerAll(c.classes());
    for (int i = 0; i < 4; ++i) {
      const std::string name = "C" + std::to_string(i);
      ASSERT_TRUE(c.create("counter", name, 0, 0).ok());
      ASSERT_TRUE(c.call(name, "add", {1}, 0).ok());
      ASSERT_TRUE(c.call(name, "add", {1}, 0).ok());
    }
    c.sim().runFor(sim::msec(3000));
    EXPECT_EQ(c.stats().migrations_committed, 0u) << c.stats().toString();
  }
}

}  // namespace
}  // namespace clouds
