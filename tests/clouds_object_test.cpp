// The Clouds object-thread programming model (paper §2), end to end on a
// full simulated cluster.
#include <gtest/gtest.h>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

namespace clouds {
namespace {

using obj::Value;
using obj::ValueList;

std::unique_ptr<Cluster> makeCluster(int compute = 2, int data = 1, std::uint64_t seed = 42) {
  ClusterConfig cfg;
  cfg.compute_servers = compute;
  cfg.data_servers = data;
  cfg.seed = seed;
  auto c = std::make_unique<Cluster>(cfg);
  obj::samples::registerAll(c->classes());
  return c;
}

TEST(CloudsObject, PaperRectangleExample) {
  // The paper's §2.4 walkthrough: rect.bind("Rect01"); rect.size(5, 10);
  // printf("%d\n", rect.area());  // will print 50
  auto c = makeCluster();
  ASSERT_TRUE(c->create("rectangle", "Rect01").ok());
  ASSERT_TRUE(c->call("Rect01", "size", {5, 10}).ok());
  auto area = c->call("Rect01", "area");
  ASSERT_TRUE(area.ok());
  EXPECT_EQ(area.value(), Value{50});
}

TEST(CloudsObject, ObjectsArePersistentAcrossInvocations) {
  auto c = makeCluster();
  ASSERT_TRUE(c->create("counter", "C1").ok());
  for (int i = 1; i <= 5; ++i) {
    auto r = c->call("C1", "add", {1});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), Value{i});
  }
  EXPECT_EQ(c->call("C1", "value").value(), Value{5});
}

TEST(CloudsObject, InstancesOfAClassAreIndependent) {
  auto c = makeCluster();
  ASSERT_TRUE(c->create("rectangle", "R1").ok());
  ASSERT_TRUE(c->create("rectangle", "R2").ok());
  ASSERT_TRUE(c->call("R1", "size", {3, 4}).ok());
  ASSERT_TRUE(c->call("R2", "size", {5, 6}).ok());
  EXPECT_EQ(c->call("R1", "area").value(), Value{12});
  EXPECT_EQ(c->call("R2", "area").value(), Value{30});
}

TEST(CloudsObject, PersistentStateVisibleFromEveryComputeServer) {
  // "Objects are physically stored in data servers, but are accessible from
  //  all compute servers in the system" (§2.1).
  auto c = makeCluster(3);
  ASSERT_TRUE(c->create("counter", "C", 0, 0).ok());
  ASSERT_TRUE(c->call("C", "add", {7}, /*compute_idx=*/0).ok());
  EXPECT_EQ(c->call("C", "value", {}, 1).value(), Value{7});
  ASSERT_TRUE(c->call("C", "add", {3}, 2).ok());
  EXPECT_EQ(c->call("C", "value", {}, 0).value(), Value{10});
}

TEST(CloudsObject, UnknownNamesAndEntriesFail) {
  auto c = makeCluster();
  ASSERT_TRUE(c->create("rectangle", "R").ok());
  EXPECT_EQ(c->call("NoSuchObject", "area").code(), Errc::not_found);
  EXPECT_EQ(c->call("R", "no_such_entry").code(), Errc::not_found);
  EXPECT_EQ(c->create("no_such_class", "X").code(), Errc::not_found);
}

TEST(CloudsObject, DuplicateUserNameRejected) {
  auto c = makeCluster();
  ASSERT_TRUE(c->create("rectangle", "R").ok());
  EXPECT_EQ(c->create("rectangle", "R").code(), Errc::already_exists);
}

TEST(CloudsObject, NestedInvocationAcrossObjects) {
  // One object invoking another: control transfer by invocation, data flow
  // by parameter passing (§2.3).
  auto c = makeCluster();
  obj::ClassDef caller;
  caller.name = "caller";
  caller.entry("scaled_area",
               [](obj::ObjectContext& ctx, const ValueList& args) -> Result<Value> {
                 CLOUDS_TRY_ASSIGN(target, args[0].asString());
                 CLOUDS_TRY_ASSIGN(k, args[1].asInt());
                 CLOUDS_TRY_ASSIGN(area, ctx.call(target, "area", {}));
                 CLOUDS_TRY_ASSIGN(a, area.asInt());
                 return Value{a * k};
               });
  c->classes().registerClass(std::move(caller));
  ASSERT_TRUE(c->create("rectangle", "R").ok());
  ASSERT_TRUE(c->create("caller", "K").ok());
  ASSERT_TRUE(c->call("R", "size", {4, 5}).ok());
  auto r = c->call("K", "scaled_area", {std::string("R"), 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Value{60});
}

TEST(CloudsObject, RecursiveInvocationSupported) {
  // "object invocations can be nested or recursive" (§2.2).
  auto c = makeCluster();
  obj::ClassDef fib;
  fib.name = "fib";
  fib.entry("compute", [](obj::ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(n, args[0].asInt());
    if (n <= 1) return Value{n};
    CLOUDS_TRY_ASSIGN(a, ctx.callObject(ctx.self(), "compute", {n - 1}));
    CLOUDS_TRY_ASSIGN(b, ctx.callObject(ctx.self(), "compute", {n - 2}));
    return Value{a.intOr(0) + b.intOr(0)};
  });
  c->classes().registerClass(std::move(fib));
  ASSERT_TRUE(c->create("fib", "F").ok());
  EXPECT_EQ(c->call("F", "compute", {10}).value(), Value{55});
}

TEST(CloudsObject, RemoteInvocationRunsOnOtherComputeServer) {
  auto c = makeCluster(2);
  obj::ClassDef probe;
  probe.name = "probe";
  probe.entry("where", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    return Value{static_cast<std::int64_t>(ctx.nodeId())};
  });
  probe.entry("where_remote",
              [](obj::ObjectContext& ctx, const ValueList& args) -> Result<Value> {
                CLOUDS_TRY_ASSIGN(node, args[0].asInt());
                return ctx.callRemote(static_cast<net::NodeId>(node), ctx.self(), "where", {});
              });
  c->classes().registerClass(std::move(probe));
  ASSERT_TRUE(c->create("probe", "P").ok());
  const auto local = c->call("P", "where", {}, 0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value(), Value{static_cast<std::int64_t>(c->computeNode(0).id())});
  const auto remote = c->call(
      "P", "where_remote", {static_cast<std::int64_t>(c->computeNode(1).id())}, 0);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote.value(), Value{static_cast<std::int64_t>(c->computeNode(1).id())});
}

TEST(CloudsObject, PersistentHeapSurvivesAndIsShared) {
  auto c = makeCluster(2);
  obj::ClassDef list;
  list.name = "plist";  // a singly linked list in the persistent heap
  list.constructor = [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    ctx.put<std::uint64_t>(0, 0);  // head offset (0 = empty)
    return Value{};
  };
  list.entry("push", [](obj::ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(v, args[0].asInt());
    CLOUDS_TRY_ASSIGN(node, ctx.palloc(16));
    ctx.heapPut<std::int64_t>(node, v);
    ctx.heapPut<std::uint64_t>(node + 8, ctx.get<std::uint64_t>(0));
    ctx.put<std::uint64_t>(0, node);
    return Value{};
  });
  list.entry("sum", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    std::int64_t sum = 0;
    for (std::uint64_t n = ctx.get<std::uint64_t>(0); n != 0;
         n = ctx.heapGet<std::uint64_t>(n + 8)) {
      sum += ctx.heapGet<std::int64_t>(n);
    }
    return Value{sum};
  });
  c->classes().registerClass(std::move(list));
  ASSERT_TRUE(c->create("plist", "L").ok());
  // Pushes from both compute servers; intra-object pointers (offsets) stay
  // meaningful everywhere — the single-level store at work.
  ASSERT_TRUE(c->call("L", "push", {10}, 0).ok());
  ASSERT_TRUE(c->call("L", "push", {20}, 1).ok());
  ASSERT_TRUE(c->call("L", "push", {12}, 0).ok());
  EXPECT_EQ(c->call("L", "sum", {}, 1).value(), Value{42});
}

TEST(CloudsObject, VolatileHeapDoesNotPersist) {
  auto c = makeCluster(2);
  obj::ClassDef v;
  v.name = "volatiletest";
  v.entry("scribble", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    Bytes data = toBytes("scratch");
    CLOUDS_TRY(ctx.writeVHeap(64, data));
    Bytes back(7);
    CLOUDS_TRY(ctx.readVHeap(64, back));
    return Value{toString(back)};
  });
  v.entry("peek", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    Bytes back(7);
    CLOUDS_TRY(ctx.readVHeap(64, back));
    return Value{toString(back)};
  });
  c->classes().registerClass(std::move(v));
  ASSERT_TRUE(c->create("volatiletest", "V").ok());
  EXPECT_EQ(c->call("V", "scribble", {}, 0).value(), Value{std::string("scratch")});
  // A different node's activation has its own (zeroed) volatile heap.
  auto peek = c->call("V", "peek", {}, 1);
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(peek.value().asString().value(), std::string(7, '\0'));
}

TEST(CloudsObject, VallocRoundTripsThroughTheVolatileHeap) {
  auto c = makeCluster();
  obj::ClassDef v;
  v.name = "valloctest";
  v.entry("roundtrip", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(first, ctx.valloc(5));
    CLOUDS_TRY_ASSIGN(second, ctx.valloc(16));
    if (second < first + 5) return makeError(Errc::internal, "allocations overlap");
    CLOUDS_TRY(ctx.writeVHeap(first, toBytes("alpha")));
    CLOUDS_TRY(ctx.writeVHeap(second, toBytes("beta")));
    Bytes a(5), b(4);
    CLOUDS_TRY(ctx.readVHeap(first, a));
    CLOUDS_TRY(ctx.readVHeap(second, b));
    return Value{toString(a) + "/" + toString(b)};
  });
  v.entry("zero", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    CLOUDS_TRY(ctx.valloc(0));
    return Value{};
  });
  c->classes().registerClass(std::move(v));
  ASSERT_TRUE(c->create("valloctest", "VA").ok());
  EXPECT_EQ(c->call("VA", "roundtrip").value(), Value{std::string("alpha/beta")});
  EXPECT_EQ(c->call("VA", "zero").code(), Errc::bad_argument);
}

TEST(CloudsObject, EntryPointCreatesAndInvokesAnObject) {
  // docs/PROGRAMMING.md: an object may create another with
  // ObjectContext::createObject and invoke it by the name it bound.
  auto c = makeCluster();
  const net::NodeId data_server = c->dataNode(0).id();
  obj::ClassDef factory;
  factory.name = "factory";
  factory.entry("make", [data_server](obj::ObjectContext& ctx,
                                      const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(name, args[0].asString());
    CLOUDS_TRY(ctx.createObject("rectangle", data_server, name));
    CLOUDS_TRY(ctx.call(name, "size", {6, 7}));
    return ctx.call(name, "area", {});
  });
  c->classes().registerClass(std::move(factory));
  ASSERT_TRUE(c->create("factory", "F").ok());
  EXPECT_EQ(c->call("F", "make", {std::string("Made")}).value(), Value{42});
  // The new object is bound and persistent: reachable from outside too.
  EXPECT_EQ(c->call("Made", "area").value(), Value{42});
}

TEST(CloudsObject, PerThreadMemoryIsPerThread) {
  auto c = makeCluster();
  obj::ClassDef tls;
  tls.name = "tlstest";
  tls.entry("bump", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    const auto v = ctx.tlsGet<std::int64_t>(0) + 1;
    ctx.tlsPut<std::int64_t>(0, v);
    return Value{v};
  });
  c->classes().registerClass(std::move(tls));
  ASSERT_TRUE(c->create("tlstest", "T").ok());
  // Each call() is a fresh thread: per-thread memory starts at zero.
  EXPECT_EQ(c->call("T", "bump").value(), Value{1});
  EXPECT_EQ(c->call("T", "bump").value(), Value{1});
}

TEST(CloudsObject, OutputRoutedToControllingTerminal) {
  auto c = makeCluster();
  obj::ClassDef chatty;
  chatty.name = "chatty";
  chatty.entry("greet", [](obj::ObjectContext& ctx, const ValueList& args) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(who, args[0].asString());
    ctx.print("hello, " + who);
    return Value{};
  });
  c->classes().registerClass(std::move(chatty));
  ASSERT_TRUE(c->create("chatty", "CH").ok());
  ASSERT_TRUE(c->call("CH", "greet", {std::string("clouds")}, 1).ok());
  EXPECT_EQ(c->workstation(0).joinedOutput(0), "hello, clouds");
}

TEST(CloudsObject, InputReadFromTerminal) {
  auto c = makeCluster();
  obj::ClassDef reader;
  reader.name = "reader";
  reader.entry("echo", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    CLOUDS_TRY_ASSIGN(line, ctx.readLine());
    ctx.print("got: " + line);
    return Value{line};
  });
  c->classes().registerClass(std::move(reader));
  ASSERT_TRUE(c->create("reader", "RD").ok());
  c->workstation(0).supplyInput(0, "type this");
  auto r = c->call("RD", "echo");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Value{std::string("type this")});
  EXPECT_EQ(c->workstation(0).joinedOutput(0), "got: type this");
}

TEST(CloudsObject, ConcurrentThreadsShareTheObject) {
  // "Several threads can simultaneously enter an object and execute
  //  concurrently" (§2.2).
  auto c = makeCluster(2);
  ASSERT_TRUE(c->create("counter", "C").ok());
  auto h1 = c->start("C", "add", {1}, 0);
  auto h2 = c->start("C", "add", {1}, 1);
  auto h3 = c->start("C", "add", {1}, 0);
  c->run();
  ASSERT_TRUE(h1->done && h2->done && h3->done);
  // S-threads: all complete; the unsynchronized read-modify-write may lose
  // updates across *nodes*, but the final value is within [1, 3] and the
  // object survived concurrent entry.
  const auto v = c->call("C", "value").value().asInt().value();
  EXPECT_GE(v, 1);
  EXPECT_LE(v, 3);
}

TEST(CloudsObject, DestroyObjectMakesItUnreachable) {
  auto c = makeCluster();
  auto created = c->create("rectangle", "Gone");
  ASSERT_TRUE(created.ok());
  bool destroyed = false;
  c->runtime(0).spawnThread("destroyer", [&](obj::CloudsThread& t) {
    destroyed = c->runtime(0).destroyObject(*t.process, created.value()).ok();
  });
  c->run();
  ASSERT_TRUE(destroyed);
  EXPECT_EQ(c->callObject(created.value(), "area").code(), Errc::not_found);
}

TEST(CloudsObject, FileSimulatedByObject) {
  // The "No Files?" box: byte-sequential storage behind read/write entries.
  auto c = makeCluster();
  ASSERT_TRUE(c->create("file", "F").ok());
  ASSERT_TRUE(c->call("F", "append", {toBytes("hello ")}).ok());
  ASSERT_TRUE(c->call("F", "append", {toBytes("world")}).ok());
  EXPECT_EQ(c->call("F", "size").value(), Value{11});
  auto r = c->call("F", "read", {0, 11});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(toString(r.value().asBytes().value()), "hello world");
  // Sparse overwrite.
  ASSERT_TRUE(c->call("F", "write", {6, toBytes("clouds")}).ok());
  EXPECT_EQ(toString(c->call("F", "read", {0, 12}).value().asBytes().value()), "hello clouds");
}

TEST(CloudsObject, MailboxSimulatesMessages) {
  // The "No Messages?" box: a buffer object as a port between threads.
  auto c = makeCluster(2);
  ASSERT_TRUE(c->create("mailbox", "M").ok());
  auto receiver = c->start("M", "receive", {}, 1);  // blocks until a message arrives
  auto sender = c->start("M", "send", {std::string("ping over objects")}, 0);
  c->run();
  ASSERT_TRUE(sender->done && receiver->done);
  ASSERT_TRUE(receiver->result.ok());
  EXPECT_EQ(receiver->result.value(), Value{std::string("ping over objects")});
  EXPECT_EQ(c->call("M", "pending").value(), Value{0});
}

TEST(CloudsObject, ValueRoundTrip) {
  ValueList vals;
  vals.emplace_back(std::int64_t{-5});
  vals.emplace_back(3.5);
  vals.emplace_back(true);
  vals.emplace_back(std::string("str"));
  vals.emplace_back(toBytes("blob"));
  vals.emplace_back(ValueList{Value{1}, Value{std::string("nested")}});
  vals.emplace_back(Value{});
  const Bytes encoded = Value::encodeList(vals);
  auto decoded = Value::decodeList(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), vals);
  // A real reads back as itself, an integer widens, anything else is a
  // bad argument.
  EXPECT_EQ(decoded.value()[1].asDouble().value(), 3.5);
  EXPECT_EQ(decoded.value()[0].asDouble().value(), -5.0);
  EXPECT_EQ(decoded.value()[3].asDouble().code(), Errc::bad_argument);
}

}  // namespace
}  // namespace clouds
