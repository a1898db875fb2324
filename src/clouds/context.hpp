// ObjectContext — the programmer's view from inside an entry point.
//
// This is the reproduction's CC++ runtime library: everything the code in a
// Clouds object may do. Memory access is offset-based within the object's
// own segments (addresses never cross the boundary, §2.2); the context also
// exposes nested invocation, object creation, terminal I/O, computation
// cost modelling, and the data servers' synchronization primitives.
//
// Typed accessors throw CloudsFault on hard errors (protection, lost
// segment) and consistency::TxAborted when a cp-scope dies; the invocation
// layer catches both. Plain Result-returning variants exist for code that
// wants to handle errors itself.
#pragma once

#include "clouds/object.hpp"
#include "clouds/thread.hpp"
#include "clouds/value.hpp"

namespace clouds::obj {

class Runtime;

struct CloudsFault {
  Error error;
};

class ObjectContext {
 public:
  ObjectContext(Runtime& rt, CloudsThread& thread, ActiveObject& active)
      : rt_(rt), t_(thread), ao_(active) {}

  // ---- Persistent data segment (offset-addressed) ----
  Result<void> readData(std::uint64_t off, MutableByteSpan out);
  Result<void> writeData(std::uint64_t off, ByteSpan data);

  template <typename T>
  T get(std::uint64_t off) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    throwOnError(readData(off, MutableByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T))));
    return v;
  }
  template <typename T>
  void put(std::uint64_t off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    throwOnError(writeData(off, ByteSpan(reinterpret_cast<const std::byte*>(&v), sizeof(T))));
  }

  // ---- Persistent heap (allocator state lives in the segment itself) ----
  Result<std::uint64_t> palloc(std::uint64_t size);
  Result<void> readPHeap(std::uint64_t off, MutableByteSpan out);
  Result<void> writePHeap(std::uint64_t off, ByteSpan data);

  template <typename T>
  T heapGet(std::uint64_t off) {
    T v{};
    throwOnError(readPHeap(off, MutableByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T))));
    return v;
  }
  template <typename T>
  void heapPut(std::uint64_t off, const T& v) {
    throwOnError(writePHeap(off, ByteSpan(reinterpret_cast<const std::byte*>(&v), sizeof(T))));
  }

  // ---- Volatile heap (per activation, node-local; paper §2.1) ----
  Result<std::uint64_t> valloc(std::uint64_t size);
  Result<void> readVHeap(std::uint64_t off, MutableByteSpan out);
  Result<void> writeVHeap(std::uint64_t off, ByteSpan data);

  // ---- Per-invocation memory (paper §5.1: "not shared, yet global to the
  //      routines in the object and lasts for the length of each
  //      invocation") ----
  Result<void> readInv(std::uint64_t off, MutableByteSpan out);
  Result<void> writeInv(std::uint64_t off, ByteSpan data);
  template <typename T>
  T invGet(std::uint64_t off) {
    T v{};
    throwOnError(readInv(off, MutableByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T))));
    return v;
  }
  template <typename T>
  void invPut(std::uint64_t off, const T& v) {
    throwOnError(writeInv(off, ByteSpan(reinterpret_cast<const std::byte*>(&v), sizeof(T))));
  }

  // ---- Per-thread memory (paper §5.1: global to the object's routines,
  //      specific to this thread, lasts until the thread terminates) ----
  Result<void> readTls(std::uint64_t off, MutableByteSpan out);
  Result<void> writeTls(std::uint64_t off, ByteSpan data);
  template <typename T>
  T tlsGet(std::uint64_t off) {
    T v{};
    throwOnError(readTls(off, MutableByteSpan(reinterpret_cast<std::byte*>(&v), sizeof(T))));
    return v;
  }
  template <typename T>
  void tlsPut(std::uint64_t off, const T& v) {
    throwOnError(writeTls(off, ByteSpan(reinterpret_cast<const std::byte*>(&v), sizeof(T))));
  }

  // ---- Invocation (control flow between objects; §2.3) ----
  Result<Value> call(const std::string& object_name, const std::string& entry,
                     const ValueList& args);
  Result<Value> callObject(const Sysname& object, const std::string& entry,
                           const ValueList& args);
  // Ship the invocation to another compute server (the paper's
  // "more general RPC", §3.2).
  Result<Value> callRemote(net::NodeId compute_node, const Sysname& object,
                           const std::string& entry, const ValueList& args);
  Result<Sysname> createObject(const std::string& class_name, net::NodeId data_server,
                               const std::string& user_name);
  // Asynchronous invocation (paper §2.4: objects may be invoked "both
  // synchronously and asynchronously"): start a new Clouds thread on this
  // node and return immediately. The new thread inherits this thread's
  // controlling terminal.
  Result<void> spawn(const std::string& object_name, const std::string& entry,
                     ValueList args);

  // ---- Environment ----
  void compute(sim::Duration work);       // model computation on this node's CPU
  void print(const std::string& text);    // routed to the controlling terminal
  Result<std::string> readLine();
  Sysname self() const noexcept { return ao_.header; }
  net::NodeId nodeId() const noexcept;
  sim::Process& process() noexcept { return *t_.process; }
  CloudsThread& thread() noexcept { return t_; }

  // ---- Distributed synchronization (data-server semaphores) ----
  Result<std::uint64_t> semCreate(std::int64_t initial);
  Result<void> semP(std::uint64_t sem);
  Result<void> semV(std::uint64_t sem);

  const ObjectDescriptor& descriptor() const noexcept { return ao_.desc; }

  ~ObjectContext();  // releases per-invocation memory
  ObjectContext(const ObjectContext&) = delete;
  ObjectContext& operator=(const ObjectContext&) = delete;

 private:
  static void throwOnError(const Result<void>& r) {
    if (!r.ok()) throw CloudsFault{r.error()};
  }
  Result<void> accessSegment(const Sysname& seg, ra::VAddr base, std::uint64_t limit,
                             std::uint64_t off, std::size_t len, ra::Access access,
                             std::byte* in_out, bool lockable);
  Result<void> accessAnon(const Sysname& seg, std::uint64_t limit, std::uint64_t off,
                          MutableByteSpan out, const std::byte* in);

  Runtime& rt_;
  CloudsThread& t_;
  ActiveObject& ao_;
  Sysname inv_seg_;  // lazily created per-invocation memory
};

}  // namespace clouds::obj
