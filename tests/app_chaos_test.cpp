// Application-tier chaos suite (CTest label: app; the CI sanitizer lane
// runs it with the rest of the suite).
//
// A small social network (3 combined servers, 8 shards) takes a post-only
// workload from a fixed set of authors with a pre-built, static follow
// graph while a FaultPlan crashes servers and partitions the network.
// After the plan heals and the cluster drains, the application-level
// invariants must hold:
//  * no lost posts on committed acks: every post whose gcp scope ack'd OK
//    appears on the author's and every follower's timeline;
//  * no duplicate timeline entries: a post id appears at most once per
//    timeline (an aborted-and-retried fan-out must not double-deliver);
//  * the whole run is a pure function of the seed: byte-identical metrics
//    snapshots across same-seed runs.
// Post volume stays below the timeline ring capacity so the ring never
// evicts — absence then always means loss, not ageing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/social.hpp"
#include "sim/fault.hpp"

namespace clouds {
namespace {

constexpr std::uint64_t kAuthors = 6;     // users 0..5 post
constexpr int kRoundsPerAuthor = 2;       // 12 posts total, < kTimelineCap per timeline

struct ChaosOutcome {
  std::vector<std::int64_t> acked;                       // post ids with OK acks
  std::map<std::uint64_t, std::vector<std::int64_t>> timelines;  // user -> post ids
  std::uint64_t issued = 0;
  std::string metrics_json;
};

// Build the rig, pre-wire the follow graph, run the posting workload under
// the given fault plan, heal, drain, audit.
ChaosOutcome runChaos(std::uint64_t seed, bool with_faults) {
  ClusterConfig cfg;
  cfg.combined_servers = 3;
  cfg.workstations = 0;
  cfg.seed = seed;
  Cluster c(cfg);
  app::SocialApp::Options opts;
  opts.shards = 8;
  opts.user_capacity = 1 << 10;
  opts.post_ring_slots = 64;
  opts.seed_users = 64;
  auto built = app::SocialApp::build(c, opts);
  EXPECT_TRUE(built.ok());
  app::SocialApp social = std::move(built).value();

  // Static follow graph, built before any fault: author a is followed by
  // a+8 and a+16 (distinct users, distinct shards — every fan-out crosses
  // server boundaries).
  std::map<std::uint64_t, std::vector<std::uint64_t>> followers;
  for (std::uint64_t a = 0; a < kAuthors; ++a) {
    for (std::uint64_t f : {a + 8, a + 16}) {
      EXPECT_TRUE(social.follow(f, a).valueOr(false));
      followers[a].push_back(f);
    }
  }

  sim::FaultPlan plan(c.sim(), seed);
  c.installFaultHooks(plan);
  if (with_faults) {
    plan.crashAt("combo2", sim::msec(120), sim::msec(400));
    plan.partitionAt({"combo0"}, {"combo1"}, sim::msec(300), sim::msec(200));
    plan.lossWindow(sim::msec(600), sim::msec(200), 0.05);
  }
  plan.arm();

  // Open-loop posting: every author posts each round, issued on a staggered
  // schedule so posts overlap the fault windows.
  ChaosOutcome out;
  std::vector<std::pair<std::shared_ptr<obj::Runtime::ThreadHandle>, std::uint64_t>> handles;
  for (int round = 0; round < kRoundsPerAuthor; ++round) {
    for (std::uint64_t a = 0; a < kAuthors; ++a) {
      const auto delay = sim::msec(60 * (round * kAuthors + a + 1));
      c.sim().schedule(delay, [&c, &social, &handles, &out, a] {
        const int node = static_cast<int>(a) % c.computeCount();
        handles.emplace_back(
            social.startPost(a, "chaos post by " + std::to_string(a), node), a);
        ++out.issued;
      });
    }
  }
  c.run();

  for (const auto& [h, author] : handles) {
    if (h->done && h->result.ok()) {
      auto id = h->result.value().asInt();
      EXPECT_TRUE(id.ok());
      out.acked.push_back(id.valueOr(-1));
    }
  }

  // Post-heal audit over every timeline we touched.
  for (std::uint64_t a = 0; a < kAuthors; ++a) {
    std::vector<std::uint64_t> readers = followers[a];
    readers.push_back(a);
    for (const auto u : readers) {
      if (out.timelines.count(u) != 0) continue;
      auto tl = social.readTimeline(u, 100);
      EXPECT_TRUE(tl.ok()) << u;
      if (!tl.ok()) continue;
      auto& dst = out.timelines[u];  // an empty timeline is still a read timeline
      for (std::size_t i = 0; i + 1 < tl.value().size(); i += 2) {
        dst.push_back(tl.value()[i].intOr(-1));
      }
    }
  }
  out.metrics_json = c.sim().metrics().toJson();
  return out;
}

void auditInvariants(const ChaosOutcome& out) {
  // Every timeline is duplicate-free.
  for (const auto& [user, ids] : out.timelines) {
    std::set<std::int64_t> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), ids.size()) << "duplicate timeline entry for user " << user;
  }
  // Every acked post is present on the author's and both followers'
  // timelines (author = post id % 8's owner; recompute from the id).
  // Post shard == author % 8, and the posting authors are 0..5, so the
  // author is recoverable from the post id alone.
  for (const auto id : out.acked) {
    const std::uint64_t author = static_cast<std::uint64_t>(id) % 8;
    const std::vector<std::uint64_t> readers = {author, author + 8, author + 16};
    for (const auto u : readers) {
      const auto it = out.timelines.find(u);
      ASSERT_NE(it, out.timelines.end()) << u;
      EXPECT_NE(std::find(it->second.begin(), it->second.end(), id), it->second.end())
          << "acked post " << id << " missing from timeline of user " << u;
    }
  }
}

TEST(AppChaos, FaultFreeBaselineDeliversEveryPostExactlyOnce) {
  const auto out = runChaos(0xA11CE, false);
  EXPECT_EQ(out.acked.size(), kAuthors * kRoundsPerAuthor);
  auditInvariants(out);
}

class AppChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AppChaosSweep, CommittedAcksSurviveCrashAndPartitionWithoutDuplicates) {
  const auto a = runChaos(GetParam(), true);
  EXPECT_EQ(a.issued, kAuthors * kRoundsPerAuthor);
  auditInvariants(a);

  // Same seed, same plan: byte-identical universe.
  const auto b = runChaos(GetParam(), true);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.acked, b.acked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppChaosSweep,
                         ::testing::Values(0xBEEF01ull, 0xBEEF02ull, 0xBEEF03ull));

}  // namespace
}  // namespace clouds
