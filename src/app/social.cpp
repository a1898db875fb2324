#include "app/social.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "clouds/context.hpp"

namespace clouds::app {
namespace {

using obj::ObjectContext;
using obj::OpLabel;
using obj::Value;
using obj::ValueList;

// Shared data-segment layout for every shard class: two pages, split by
// mutability. Page 0 is immutable after wire time — routing scalars plus
// the directory (the encoded sysnames of every shard of every class, so
// entry points route nested calls without consulting the name server). It
// is read by every entry, so once cached it must stay cached: under
// write-invalidate coherence, a page that is read on every node and
// written on every post ping-pongs through the home server's serial
// invalidation fan-out and melts the whole cluster (the server holds the
// page's directory lock across 7 callback round trips while readers queue
// into RaTP timeouts). The one mutable scalar — the watermark / post
// sequence counter — therefore lives alone on page 1, where its
// invalidations touch only the shard's writers.
constexpr std::uint64_t kOffShard = 0;       // u64: this shard's index
constexpr std::uint64_t kOffShardCount = 8;  // u64: S, total shards per class
constexpr std::uint64_t kOffCapacity = 24;   // u64: record slots in the pheap
constexpr std::uint64_t kOffDirLen = 64;     // u64: directory blob length
constexpr std::uint64_t kOffDirBlob = 72;
constexpr std::uint64_t kOffCounter = ra::kPageSize;  // u64: watermark / post count
constexpr std::uint64_t kDataSegBytes = 2 * ra::kPageSize;

// Per-record structs. uint64-only fields (plus char payload) so the layout
// is identical everywhere; sizes divide the page size, so a record access
// faults exactly one page.
struct UserRecord {
  std::uint64_t posts;
  std::uint64_t last_post;
  std::uint64_t follows_out;
  std::uint64_t pad;
};
static_assert(sizeof(UserRecord) == kUserRecordBytes);

struct PostRecord {
  std::uint64_t post_id;
  std::uint64_t author;
  std::uint64_t len;
  char content[kPostContentBytes];
};
static_assert(sizeof(PostRecord) == kPostRecordBytes);

struct FollowRecord {
  std::uint64_t count;
  std::uint64_t followers[kMaxFollowers];
};
static_assert(sizeof(FollowRecord) <= kFollowRecordBytes);

struct TimelineRecord {
  std::uint64_t seq;
  std::uint64_t post_ids[kTimelineCap];
  std::uint64_t authors[kTimelineCap];
};
static_assert(sizeof(TimelineRecord) <= kTimelineRecordBytes);

Result<std::int64_t> argInt(const ValueList& args, std::size_t i) {
  if (i >= args.size()) return makeError(Errc::bad_argument, "missing argument");
  return args[i].asInt();
}

Result<std::string> argString(const ValueList& args, std::size_t i) {
  if (i >= args.size()) return makeError(Errc::bad_argument, "missing argument");
  return args[i].asString();
}

Result<Bytes> argBytes(const ValueList& args, std::size_t i) {
  if (i >= args.size()) return makeError(Errc::bad_argument, "missing argument");
  return args[i].asBytes();
}

// The shard directory every shard keeps in its data segment: the shard
// count, then each class's shard objects in shard order. It fits the
// segment's first page, which bounds the count.
struct Directory {
  static constexpr std::size_t kMaxShards = (ra::kPageSize - kOffDirBlob) / (4 * 16);

  std::vector<Sysname> user, post, timeline, follow;

  template <typename D, typename F>
  static void fields(D& d, F& f) {
    f(codec::Capped{d.user, kMaxShards, "shard directory holds too many shards"});
    for (auto* column : {&d.post, &d.timeline, &d.follow}) {
      // As long as the user column: a reader sizes it from the users it has
      // read, never from the count alone.
      if constexpr (!std::is_const_v<D>) column->resize(d.user.size());
      for (auto& sn : *column) f(sn);
    }
  }
};

Result<Directory> loadDirectory(ObjectContext& ctx) {
  const auto len = ctx.get<std::uint64_t>(kOffDirLen);
  if (len == 0) return makeError(Errc::internal, "shard not wired");
  Bytes buf(len);
  CLOUDS_TRY(ctx.readData(kOffDirBlob, MutableByteSpan(buf.data(), buf.size())));
  return codec::decode<Directory>(buf);
}

// wire(shard, shard_count, capacity, dir_blob) — every shard class shares
// this GCP setup entry; GCP so the directory is 2PC-durable before traffic.
Result<Value> wireEntry(ObjectContext& ctx, const ValueList& args) {
  CLOUDS_TRY_ASSIGN(shard, argInt(args, 0));
  CLOUDS_TRY_ASSIGN(count, argInt(args, 1));
  CLOUDS_TRY_ASSIGN(capacity, argInt(args, 2));
  CLOUDS_TRY_ASSIGN(dir, argBytes(args, 3));
  if (kOffDirBlob + dir.size() > ra::kPageSize) {
    return makeError(Errc::bad_argument, "directory does not fit the data segment");
  }
  ctx.put<std::uint64_t>(kOffShard, static_cast<std::uint64_t>(shard));
  ctx.put<std::uint64_t>(kOffShardCount, static_cast<std::uint64_t>(count));
  ctx.put<std::uint64_t>(kOffCapacity, static_cast<std::uint64_t>(capacity));
  ctx.put<std::uint64_t>(kOffDirLen, dir.size());
  CLOUDS_TRY(ctx.writeData(kOffDirBlob, ByteSpan(dir.data(), dir.size())));
  return Value{};
}

// Validates that `id` routes to this shard and fits the pheap; returns the
// local record index id / S.
Result<std::uint64_t> localIndex(ObjectContext& ctx, std::uint64_t id) {
  const auto shard = ctx.get<std::uint64_t>(kOffShard);
  const auto count = ctx.get<std::uint64_t>(kOffShardCount);
  if (count == 0) return makeError(Errc::internal, "shard not wired");
  if (id % count != shard) return makeError(Errc::bad_argument, "id routed to wrong shard");
  const std::uint64_t li = id / count;
  if (li >= ctx.get<std::uint64_t>(kOffCapacity)) {
    return makeError(Errc::bad_argument, "id beyond shard capacity");
  }
  return li;
}

obj::ClassDef userClass(std::uint64_t cap_local) {
  obj::ClassDef def;
  def.name = "social_user";
  def.pheap_size = ((cap_local * kUserRecordBytes + ra::kPageSize - 1) / ra::kPageSize + 1) *
                   ra::kPageSize;
  def.data_size = kDataSegBytes;
  def.entry("wire", wireEntry, OpLabel::gcp);
  // Bulk registration: jump the watermark. Every id below it is registered
  // with all-zero (sparse, never materialised) records.
  def.entry(
      "seed",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(n, argInt(args, 0));
        if (static_cast<std::uint64_t>(n) > ctx.get<std::uint64_t>(kOffCapacity)) {
          return makeError(Errc::bad_argument, "seed beyond shard capacity");
        }
        ctx.put<std::uint64_t>(kOffCounter, static_cast<std::uint64_t>(n));
        return Value{};
      },
      OpLabel::gcp);
  def.entry("registered", [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    return Value{static_cast<std::int64_t>(ctx.get<std::uint64_t>(kOffCounter))};
  });
  def.entry(
      "register_user",
      [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
        const auto w = ctx.get<std::uint64_t>(kOffCounter);
        if (w >= ctx.get<std::uint64_t>(kOffCapacity)) {
          return makeError(Errc::busy, "user shard full");
        }
        const auto shard = ctx.get<std::uint64_t>(kOffShard);
        const auto count = ctx.get<std::uint64_t>(kOffShardCount);
        ctx.heapPut<UserRecord>(w * kUserRecordBytes, UserRecord{});
        ctx.put<std::uint64_t>(kOffCounter, w + 1);
        ctx.compute(sim::usec(10));
        return Value{static_cast<std::int64_t>(w * count + shard)};
      },
      OpLabel::gcp);
  def.entry("profile", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(user, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(user)));
    if (li >= ctx.get<std::uint64_t>(kOffCounter)) {
      return makeError(Errc::not_found, "user not registered");
    }
    const auto rec = ctx.heapGet<UserRecord>(li * kUserRecordBytes);
    return Value{ValueList{Value{static_cast<std::int64_t>(rec.posts)},
                           Value{static_cast<std::int64_t>(rec.last_post)}}};
  });
  // The fan-out-on-write orchestrator. GCP: the stored post, the follower
  // list read, every timeline append, and the author-record update all fold
  // into this one consistency scope.
  def.entry(
      "post",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(author_i, argInt(args, 0));
        CLOUDS_TRY_ASSIGN(content, argString(args, 1));
        const auto author = static_cast<std::uint64_t>(author_i);
        CLOUDS_TRY_ASSIGN(li, localIndex(ctx, author));
        if (li >= ctx.get<std::uint64_t>(kOffCounter)) {
          return makeError(Errc::not_found, "author not registered");
        }
        CLOUDS_TRY_ASSIGN(dir, loadDirectory(ctx));
        const auto S = static_cast<std::uint64_t>(dir.user.size());
        ctx.compute(sim::usec(30));  // app-tier request handling
        CLOUDS_TRY_ASSIGN(post_v, ctx.callObject(dir.post[author % S], "store",
                                                 {Value{author_i}, Value{content}}));
        CLOUDS_TRY_ASSIGN(post_id, post_v.asInt());
        CLOUDS_TRY_ASSIGN(fol_v,
                          ctx.callObject(dir.follow[author % S], "followers", {Value{author_i}}));
        CLOUDS_TRY_ASSIGN(followers, fol_v.asList());
        std::vector<std::uint64_t> recipients;
        recipients.reserve(followers.size() + 1);
        recipients.push_back(author);
        for (const auto& f : followers) {
          CLOUDS_TRY_ASSIGN(r, f.asInt());
          recipients.push_back(static_cast<std::uint64_t>(r));
        }
        std::sort(recipients.begin(), recipients.end());
        recipients.erase(std::unique(recipients.begin(), recipients.end()), recipients.end());
        // Deliver per timeline shard, shards ascending: every concurrent
        // post acquires timeline locks in the same global order.
        for (std::uint64_t s = 0; s < S; ++s) {
          ValueList batch{Value{post_id}, Value{author_i}};
          for (const auto r : recipients) {
            if (r % S == s) batch.emplace_back(static_cast<std::int64_t>(r));
          }
          if (batch.size() == 2) continue;
          CLOUDS_TRY_ASSIGN(ack, ctx.callObject(dir.timeline[s], "deliver", batch));
          (void)ack;
        }
        auto rec = ctx.heapGet<UserRecord>(li * kUserRecordBytes);
        rec.posts += 1;
        rec.last_post = static_cast<std::uint64_t>(post_id);
        ctx.heapPut<UserRecord>(li * kUserRecordBytes, rec);
        return Value{post_id};
      },
      OpLabel::gcp);
  return def;
}

obj::ClassDef postClass(std::uint64_t ring_slots) {
  obj::ClassDef def;
  def.name = "social_post";
  def.pheap_size = ((ring_slots * kPostRecordBytes + ra::kPageSize - 1) / ra::kPageSize + 1) *
                   ra::kPageSize;
  def.data_size = kDataSegBytes;
  def.entry("wire", wireEntry, OpLabel::gcp);
  def.entry(
      "store",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(author, argInt(args, 0));
        CLOUDS_TRY_ASSIGN(content, argString(args, 1));
        const auto seq = ctx.get<std::uint64_t>(kOffCounter);
        const auto ring = ctx.get<std::uint64_t>(kOffCapacity);
        const auto shard = ctx.get<std::uint64_t>(kOffShard);
        const auto count = ctx.get<std::uint64_t>(kOffShardCount);
        PostRecord rec{};
        rec.post_id = seq * count + shard;
        rec.author = static_cast<std::uint64_t>(author);
        rec.len = std::min<std::uint64_t>(content.size(), kPostContentBytes);
        std::memcpy(rec.content, content.data(), rec.len);
        ctx.heapPut<PostRecord>((seq % ring) * kPostRecordBytes, rec);
        ctx.put<std::uint64_t>(kOffCounter, seq + 1);
        return Value{static_cast<std::int64_t>(rec.post_id)};
      },
      OpLabel::gcp);
  def.entry("fetch", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(post_i, argInt(args, 0));
    const auto post_id = static_cast<std::uint64_t>(post_i);
    const auto shard = ctx.get<std::uint64_t>(kOffShard);
    const auto count = ctx.get<std::uint64_t>(kOffShardCount);
    const auto ring = ctx.get<std::uint64_t>(kOffCapacity);
    if (count == 0 || post_id % count != shard) {
      return makeError(Errc::bad_argument, "post routed to wrong shard");
    }
    const auto rec = ctx.heapGet<PostRecord>(((post_id / count) % ring) * kPostRecordBytes);
    // Ring slot reused (or never written): the post has aged out.
    if (rec.post_id != post_id) return makeError(Errc::not_found, "post evicted from ring");
    return Value{ValueList{Value{static_cast<std::int64_t>(rec.author)},
                           Value{std::string(rec.content, rec.len)}}};
  });
  def.entry("count", [](ObjectContext& ctx, const ValueList&) -> Result<Value> {
    return Value{static_cast<std::int64_t>(ctx.get<std::uint64_t>(kOffCounter))};
  });
  return def;
}

obj::ClassDef followClass(std::uint64_t cap_local) {
  obj::ClassDef def;
  def.name = "social_follow";
  def.pheap_size = ((cap_local * kFollowRecordBytes + ra::kPageSize - 1) / ra::kPageSize + 1) *
                   ra::kPageSize;
  def.data_size = kDataSegBytes;
  def.entry("wire", wireEntry, OpLabel::gcp);
  def.entry(
      "follow",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(follower, argInt(args, 0));
        CLOUDS_TRY_ASSIGN(followee, argInt(args, 1));
        CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(followee)));
        auto rec = ctx.heapGet<FollowRecord>(li * kFollowRecordBytes);
        if (rec.count >= kMaxFollowers) return Value{false};
        for (std::uint64_t i = 0; i < rec.count; ++i) {
          if (rec.followers[i] == static_cast<std::uint64_t>(follower)) return Value{false};
        }
        rec.followers[rec.count++] = static_cast<std::uint64_t>(follower);
        ctx.heapPut<FollowRecord>(li * kFollowRecordBytes, rec);
        return Value{true};
      },
      OpLabel::gcp);
  def.entry(
      "unfollow",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(follower, argInt(args, 0));
        CLOUDS_TRY_ASSIGN(followee, argInt(args, 1));
        CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(followee)));
        auto rec = ctx.heapGet<FollowRecord>(li * kFollowRecordBytes);
        for (std::uint64_t i = 0; i < rec.count; ++i) {
          if (rec.followers[i] != static_cast<std::uint64_t>(follower)) continue;
          rec.followers[i] = rec.followers[rec.count - 1];
          rec.followers[rec.count - 1] = 0;
          rec.count -= 1;
          ctx.heapPut<FollowRecord>(li * kFollowRecordBytes, rec);
          return Value{true};
        }
        return Value{false};
      },
      OpLabel::gcp);
  // GCP: read under lock inside a post's consistency scope.
  def.entry(
      "followers",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(user, argInt(args, 0));
        CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(user)));
        const auto rec = ctx.heapGet<FollowRecord>(li * kFollowRecordBytes);
        ValueList out;
        out.reserve(rec.count);
        for (std::uint64_t i = 0; i < rec.count; ++i) {
          out.emplace_back(static_cast<std::int64_t>(rec.followers[i]));
        }
        return Value{std::move(out)};
      },
      OpLabel::gcp);
  // S-label twin for audits and observability: no locks on the read.
  def.entry("peek_followers", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(user, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(user)));
    const auto rec = ctx.heapGet<FollowRecord>(li * kFollowRecordBytes);
    ValueList out;
    out.reserve(rec.count);
    for (std::uint64_t i = 0; i < rec.count; ++i) {
      out.emplace_back(static_cast<std::int64_t>(rec.followers[i]));
    }
    return Value{std::move(out)};
  });
  return def;
}

obj::ClassDef timelineClass(std::uint64_t cap_local) {
  obj::ClassDef def;
  def.name = "social_timeline";
  def.pheap_size = ((cap_local * kTimelineRecordBytes + ra::kPageSize - 1) / ra::kPageSize + 1) *
                   ra::kPageSize;
  def.data_size = kDataSegBytes;
  def.entry("wire", wireEntry, OpLabel::gcp);
  // deliver(post_id, author, recipient...) — one batch per timeline shard.
  def.entry(
      "deliver",
      [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
        CLOUDS_TRY_ASSIGN(post_i, argInt(args, 0));
        CLOUDS_TRY_ASSIGN(author_i, argInt(args, 1));
        std::int64_t delivered = 0;
        for (std::size_t i = 2; i < args.size(); ++i) {
          CLOUDS_TRY_ASSIGN(user, args[i].asInt());
          CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(user)));
          auto rec = ctx.heapGet<TimelineRecord>(li * kTimelineRecordBytes);
          const auto slot = rec.seq % kTimelineCap;
          rec.post_ids[slot] = static_cast<std::uint64_t>(post_i);
          rec.authors[slot] = static_cast<std::uint64_t>(author_i);
          rec.seq += 1;
          ctx.heapPut<TimelineRecord>(li * kTimelineRecordBytes, rec);
          ++delivered;
        }
        return Value{delivered};
      },
      OpLabel::gcp);
  // The hot path: lock-free S-label read served from the reader's DSM cache.
  def.entry("read", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(user, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(limit, argInt(args, 1));
    CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(user)));
    const auto rec = ctx.heapGet<TimelineRecord>(li * kTimelineRecordBytes);
    ctx.compute(sim::usec(5));
    const std::uint64_t n =
        std::min({rec.seq, kTimelineCap, static_cast<std::uint64_t>(std::max<std::int64_t>(limit, 0))});
    ValueList out;
    out.reserve(2 * n);
    for (std::uint64_t k = 1; k <= n; ++k) {
      const auto slot = (rec.seq - k) % kTimelineCap;
      out.emplace_back(static_cast<std::int64_t>(rec.post_ids[slot]));
      out.emplace_back(static_cast<std::int64_t>(rec.authors[slot]));
    }
    return Value{std::move(out)};
  });
  def.entry("seq", [](ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(user, argInt(args, 0));
    CLOUDS_TRY_ASSIGN(li, localIndex(ctx, static_cast<std::uint64_t>(user)));
    return Value{static_cast<std::int64_t>(ctx.heapGet<TimelineRecord>(li * kTimelineRecordBytes).seq)};
  });
  return def;
}

}  // namespace

void SocialApp::registerClasses(obj::ClassRegistry& registry, const Options& options) {
  if (registry.find("social_user") != nullptr) return;
  const auto S = static_cast<std::uint64_t>(options.shards);
  const std::uint64_t cap_local = (options.user_capacity + S - 1) / S;
  registry.registerClass(userClass(cap_local));
  registry.registerClass(postClass(options.post_ring_slots));
  registry.registerClass(followClass(cap_local));
  registry.registerClass(timelineClass(cap_local));
}

Result<SocialApp> SocialApp::build(Cluster& cluster, const Options& options) {
  if (options.shards < 1 || options.shards > 64) {
    return makeError(Errc::bad_argument, "shards must be in [1, 64]");
  }
  if (cluster.dataCount() < 1) return makeError(Errc::bad_argument, "no data servers");
  registerClasses(cluster.classes(), options);
  SocialApp app(cluster, options);
  const int S = options.shards;
  const auto make = [&](const char* cls, const char* prefix, std::vector<std::string>& names,
                        std::vector<Sysname>& sys) -> Result<void> {
    for (int s = 0; s < S; ++s) {
      std::string name = std::string(prefix) + std::to_string(s);
      CLOUDS_TRY_ASSIGN(sn, cluster.create(cls, name, s % cluster.dataCount(), 0));
      names.push_back(std::move(name));
      sys.push_back(sn);
    }
    return okResult();
  };
  CLOUDS_TRY(make("social_user", "social.user.", app.user_names_, app.user_sys_));
  CLOUDS_TRY(make("social_post", "social.post.", app.post_names_, app.post_sys_));
  CLOUDS_TRY(make("social_timeline", "social.tl.", app.timeline_names_, app.timeline_sys_));
  CLOUDS_TRY(make("social_follow", "social.fol.", app.follow_names_, app.follow_sys_));

  const Bytes dir =
      codec::encode(Directory{app.user_sys_, app.post_sys_, app.timeline_sys_, app.follow_sys_})
          .take();

  const std::uint64_t cap_local =
      (options.user_capacity + static_cast<std::uint64_t>(S) - 1) / static_cast<std::uint64_t>(S);
  const auto wire_all = [&](const std::vector<std::string>& names,
                            std::uint64_t capacity) -> Result<void> {
    for (int s = 0; s < S; ++s) {
      CLOUDS_TRY_ASSIGN(v, cluster.call(names[s], "wire",
                                        {Value{static_cast<std::int64_t>(s)},
                                         Value{static_cast<std::int64_t>(S)},
                                         Value{static_cast<std::int64_t>(capacity)}, Value{dir}}));
      (void)v;
    }
    return okResult();
  };
  CLOUDS_TRY(wire_all(app.user_names_, cap_local));
  CLOUDS_TRY(wire_all(app.post_names_, options.post_ring_slots));
  CLOUDS_TRY(wire_all(app.timeline_names_, cap_local));
  CLOUDS_TRY(wire_all(app.follow_names_, cap_local));

  for (int s = 0; s < S; ++s) {
    const auto su = static_cast<std::uint64_t>(s);
    const std::uint64_t seeded =
        options.seed_users > su
            ? (options.seed_users - su + static_cast<std::uint64_t>(S) - 1) /
                  static_cast<std::uint64_t>(S)
            : 0;
    CLOUDS_TRY_ASSIGN(v, cluster.call(app.user_names_[s], "seed",
                                      {Value{static_cast<std::int64_t>(seeded)}}));
    (void)v;
  }
  return app;
}

Result<std::int64_t> SocialApp::registerUser(int compute_idx) {
  const auto shard = next_register_++ % static_cast<std::uint64_t>(options_.shards);
  CLOUDS_TRY_ASSIGN(v, cluster_->callObject(user_sys_[shard], "register_user", {}, compute_idx));
  return v.asInt();
}

Result<bool> SocialApp::follow(std::uint64_t follower, std::uint64_t followee, int compute_idx) {
  CLOUDS_TRY_ASSIGN(v, cluster_->callObject(followShardSys(followee), "follow",
                                      {Value{static_cast<std::int64_t>(follower)},
                                       Value{static_cast<std::int64_t>(followee)}},
                                      compute_idx));
  return v.asBool();
}

Result<bool> SocialApp::unfollow(std::uint64_t follower, std::uint64_t followee, int compute_idx) {
  CLOUDS_TRY_ASSIGN(v, cluster_->callObject(followShardSys(followee), "unfollow",
                                      {Value{static_cast<std::int64_t>(follower)},
                                       Value{static_cast<std::int64_t>(followee)}},
                                      compute_idx));
  return v.asBool();
}

Result<std::int64_t> SocialApp::post(std::uint64_t author, const std::string& content,
                                     int compute_idx) {
  CLOUDS_TRY_ASSIGN(v, cluster_->callObject(userShardSys(author), "post",
                                      {Value{static_cast<std::int64_t>(author)}, Value{content}},
                                      compute_idx));
  return v.asInt();
}

Result<obj::ValueList> SocialApp::readTimeline(std::uint64_t user, std::int64_t limit,
                                               int compute_idx) {
  CLOUDS_TRY_ASSIGN(v, cluster_->callObject(timelineShardSys(user), "read",
                                      {Value{static_cast<std::int64_t>(user)}, Value{limit}},
                                      compute_idx));
  return v.asList();
}

Result<obj::ValueList> SocialApp::followersOf(std::uint64_t user, int compute_idx) {
  CLOUDS_TRY_ASSIGN(v, cluster_->callObject(followShardSys(user), "peek_followers",
                                      {Value{static_cast<std::int64_t>(user)}}, compute_idx));
  return v.asList();
}

Result<std::int64_t> SocialApp::registeredUsers(int compute_idx) {
  std::int64_t total = 0;
  for (const auto& sn : user_sys_) {
    CLOUDS_TRY_ASSIGN(v, cluster_->callObject(sn, "registered", {}, compute_idx));
    CLOUDS_TRY_ASSIGN(n, v.asInt());
    total += n;
  }
  return total;
}

std::shared_ptr<obj::Runtime::ThreadHandle> SocialApp::startRead(std::uint64_t user,
                                                                 std::int64_t limit,
                                                                 int compute_idx) {
  return cluster_->startObject(timelineShardSys(user), "read",
                         {Value{static_cast<std::int64_t>(user)}, Value{limit}}, compute_idx);
}

std::shared_ptr<obj::Runtime::ThreadHandle> SocialApp::startPost(std::uint64_t author,
                                                                 const std::string& content,
                                                                 int compute_idx) {
  return cluster_->startObject(userShardSys(author), "post",
                         {Value{static_cast<std::int64_t>(author)}, Value{content}}, compute_idx);
}

std::shared_ptr<obj::Runtime::ThreadHandle> SocialApp::startFollow(std::uint64_t follower,
                                                                   std::uint64_t followee,
                                                                   int compute_idx) {
  return cluster_->startObject(followShardSys(followee), "follow",
                         {Value{static_cast<std::int64_t>(follower)},
                          Value{static_cast<std::int64_t>(followee)}},
                         compute_idx);
}

std::shared_ptr<obj::Runtime::ThreadHandle> SocialApp::startRegister(std::uint64_t round_robin,
                                                                     int compute_idx) {
  const auto shard = round_robin % static_cast<std::uint64_t>(options_.shards);
  return cluster_->startObject(user_sys_[shard], "register_user", {}, compute_idx);
}

}  // namespace clouds::app
