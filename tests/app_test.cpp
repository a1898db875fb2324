// Application tier (src/app + src/load, docs/APP.md): the sharded social
// network's semantics — watermark registration, follow-graph bounds,
// atomic fan-out-on-write, timeline ring eviction, shard routing guards —
// and the open-loop generator's determinism and skew.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "app/social.hpp"
#include "load/generator.hpp"
#include "load/zipf.hpp"

namespace clouds {
namespace {

using obj::Value;
using obj::ValueList;

struct Rig {
  std::unique_ptr<Cluster> c;
  std::unique_ptr<app::SocialApp> social;

  explicit Rig(std::uint64_t seed = 42, int shards = 4, std::uint64_t seed_users = 100) {
    ClusterConfig cfg;
    cfg.combined_servers = 2;
    cfg.workstations = 0;
    cfg.seed = seed;
    c = std::make_unique<Cluster>(cfg);
    app::SocialApp::Options opts;
    opts.shards = shards;
    opts.user_capacity = 1 << 12;
    opts.post_ring_slots = 256;
    opts.seed_users = seed_users;
    auto built = app::SocialApp::build(*c, opts);
    EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().toString());
    social = std::make_unique<app::SocialApp>(std::move(built).value());
  }
};

TEST(SocialApp, WatermarkSeedingRegistersExactlyTheFirstNUsers) {
  Rig rig(1, 4, 100);
  auto total = rig.social->registeredUsers();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 100);

  // Ids 0..99 are registered (user 99 can post); 100.. are not.
  EXPECT_TRUE(rig.social->post(99, "from the last seeded user").ok());
  auto denied = rig.social->post(100, "from beyond the watermark");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), Errc::not_found);

  // Registration continues exactly at the watermark: shard 0 holds ids
  // {0, 4, ...}, 25 seeded, so the next id it hands out is 25*4 + 0 = 100.
  auto id = rig.social->registerUser();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 100);
  EXPECT_TRUE(rig.social->post(100, "now registered").ok());
  EXPECT_EQ(rig.social->registeredUsers().valueOr(-1), 101);
}

TEST(SocialApp, FollowGraphDedupesAndEnforcesTheCap) {
  Rig rig;
  EXPECT_EQ(rig.social->follow(1, 0).valueOr(false), true);
  EXPECT_EQ(rig.social->follow(1, 0).valueOr(true), false);  // duplicate edge
  EXPECT_EQ(rig.social->unfollow(1, 0).valueOr(false), true);
  EXPECT_EQ(rig.social->unfollow(1, 0).valueOr(true), false);  // already gone

  // kMaxFollowers fit; one more is rejected, not silently dropped.
  for (std::uint64_t f = 1; f <= app::kMaxFollowers; ++f) {
    EXPECT_EQ(rig.social->follow(f, 0).valueOr(false), true) << f;
  }
  EXPECT_EQ(rig.social->follow(90, 0).valueOr(true), false);
  auto followers = rig.social->followersOf(0);
  ASSERT_TRUE(followers.ok());
  EXPECT_EQ(followers.value().size(), app::kMaxFollowers);
}

TEST(SocialApp, PostFansOutToEveryFollowerTimelineAtomically) {
  Rig rig;
  // Followers chosen to hit every timeline shard (ids 1, 2, 3 + author 0).
  for (std::uint64_t f : {1, 2, 3}) ASSERT_TRUE(rig.social->follow(f, 0).valueOr(false));
  auto post = rig.social->post(0, "hello clouds");
  ASSERT_TRUE(post.ok()) << post.error().toString();

  for (std::uint64_t u : {0, 1, 2, 3}) {
    auto tl = rig.social->readTimeline(u, 10);
    ASSERT_TRUE(tl.ok()) << u;
    ASSERT_EQ(tl.value().size(), 2u) << u;
    EXPECT_EQ(tl.value()[0], Value{post.value()}) << u;
    EXPECT_EQ(tl.value()[1], Value{std::int64_t{0}}) << u;  // author
  }
  // A non-follower saw nothing.
  auto other = rig.social->readTimeline(5, 10);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other.value().empty());

  // The post object stores the content, and the author's profile advanced.
  auto fetched = rig.c->call(rig.social->userShardName(0), "profile", {Value{std::int64_t{0}}});
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().list()[0], Value{std::int64_t{1}});          // posts
  EXPECT_EQ(fetched.value().list()[1], Value{post.value()});             // last post
}

TEST(SocialApp, TimelineRingKeepsTheNewestEntriesNewestFirst) {
  Rig rig;
  ASSERT_TRUE(rig.social->follow(1, 0).valueOr(false));
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 20; ++i) {
    auto p = rig.social->post(0, "p" + std::to_string(i));
    ASSERT_TRUE(p.ok()) << i;
    ids.push_back(p.value());
  }
  auto tl = rig.social->readTimeline(1, 100);
  ASSERT_TRUE(tl.ok());
  ASSERT_EQ(tl.value().size(), 2 * app::kTimelineCap);  // ring capacity, not 20
  for (std::uint64_t k = 0; k < app::kTimelineCap; ++k) {
    EXPECT_EQ(tl.value()[2 * k], Value{ids[ids.size() - 1 - k]}) << k;  // newest first
  }
  // limit is honoured too.
  auto limited = rig.social->readTimeline(1, 3);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().size(), 6u);
}

TEST(SocialApp, ShardRoutingGuardsRejectMisdirectedIds) {
  Rig rig;
  // User 1 lives on shard 1; shard 0's timeline refuses to serve it.
  auto r = rig.c->call(rig.social->timelineShardName(0), "read",
                       {Value{std::int64_t{1}}, Value{std::int64_t{10}}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::bad_argument);
  // Ids beyond the shard's pheap capacity are rejected before any access.
  auto big = rig.social->readTimeline(std::uint64_t{1} << 40, 10);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.code(), Errc::bad_argument);
}

TEST(SocialApp, PostsAgeOutOfTheStoreRing) {
  Rig rig(7, 1, 4);  // one shard, tiny universe
  // 256 ring slots: post 257 times from user 0; the first post is evicted.
  std::int64_t first = -1;
  for (int i = 0; i < 257; ++i) {
    auto p = rig.social->post(0, "x");
    ASSERT_TRUE(p.ok()) << i;
    if (i == 0) first = p.value();
  }
  auto gone = rig.c->call("social.post.0", "fetch", {Value{first}});
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.code(), Errc::not_found);
}

TEST(ZipfSampler, IsDeterministicSkewedAndInRange) {
  load::ZipfSampler a(1000, 0.99, 7);
  load::ZipfSampler b(1000, 0.99, 7);
  std::map<std::uint64_t, int> rank_freq;
  for (int i = 0; i < 5000; ++i) {
    const auto ra = a.nextRank();
    EXPECT_EQ(ra, b.nextRank());
    EXPECT_LT(ra, 1000u);
    rank_freq[ra] += 1;
  }
  // Zipf(0.99) over 1000 keys: rank 0 draws ~12% of traffic — far above the
  // uniform 0.1% share.
  EXPECT_GT(rank_freq[0], 250);
  // Scrambling spreads hot ranks across the id space without changing them
  // run to run.
  EXPECT_EQ(load::ZipfSampler::scramble(0, 1000), load::ZipfSampler::scramble(0, 1000));
  EXPECT_NE(load::ZipfSampler::scramble(0, 1000), load::ZipfSampler::scramble(1, 1000));
}

TEST(ZipfSampler, SecondSamplerReusesZetaAndDrawsTheSameSequence) {
  // zeta(n, θ) is summed once per process per (n, θ). Samplers built after
  // one over other parameters, or from the memo, draw the bits a sampler
  // drew when every constructor summed zeta itself (pinned below).
  constexpr double kTheta = 0.87;
  const std::vector<std::uint64_t> pinned{18275, 22065, 27955, 23696,
                                          24830, 13195, 32941, 39124};
  const std::vector<std::uint64_t> pinned_other{15254, 38523, 6835,  15261,
                                                32027, 32391, 38493, 7130};
  auto draws = [](load::ZipfSampler& z) {
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 8; ++i) out.push_back(z.next());
    return out;
  };
  load::ZipfSampler other(40'962, kTheta, 13);
  load::ZipfSampler first(40'961, kTheta, 13);
  load::ZipfSampler second(40'961, kTheta, 13);
  EXPECT_EQ(draws(other), pinned_other);
  EXPECT_EQ(draws(first), pinned);
  EXPECT_EQ(draws(second), pinned);
}

TEST(Generator, OpenLoopRunCompletesAndRecordsPerOpLatencies) {
  Rig rig(11, 8, 500);
  load::GeneratorOptions opts;
  opts.ops = 300;
  opts.seed = 3;
  opts.base_rate = 50.0;
  load::Generator gen(*rig.c, *rig.social, opts);
  gen.run();

  const auto& s = gen.summary();
  EXPECT_EQ(s.issued, 300u);
  EXPECT_EQ(s.ok + s.failed, 300u);
  // An in-tune open loop: the overwhelming majority of ops commit.
  EXPECT_GT(s.ok, 285u) << s.first_error;
  // Reads dominate the default mix.
  EXPECT_GT(s.per_kind[0], s.per_kind[1] + s.per_kind[2] + s.per_kind[3]);

  // One code path surfaces the latency quantiles (satellite #1): the same
  // histograms serve toJson() and percentilesJson().
  auto& m = rig.c->sim().metrics();
  EXPECT_NE(m.findHistogram("load/read/latency_usec"), nullptr);
  const std::string pct = m.percentilesJson();
  EXPECT_NE(pct.find("\"load/read/latency_usec\""), std::string::npos);
  EXPECT_NE(pct.find("\"p99\""), std::string::npos);
  // The transcript names every op in issue order.
  EXPECT_EQ(static_cast<std::uint64_t>(std::count(gen.transcript().begin(),
                                                  gen.transcript().end(), '\n')),
            s.issued);
}

}  // namespace
}  // namespace clouds
