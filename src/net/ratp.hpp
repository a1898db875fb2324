// RaTP — the Ra Transport Protocol (paper §4.2, "Networking and RaTP").
//
// "RaTP ... is similar to the communication protocol VMTP, used in the
// V-system, and provides efficient, reliable connectionless message
// transactions. A message transaction is a send/reply pair used for
// client-server type communications."
//
// Semantics implemented here:
//  * Connectionless request/reply transactions addressed to (node, port).
//  * Messages larger than one Ethernet frame are fragmented; the receiver
//    reassembles with per-fragment duplicate suppression. A fragment is a
//    header plus a view of the message (no bytes copied), and reassembly
//    joins the views, so a page image in a message reaches the receiver's
//    decoder as the sender's buffer.
//  * The reply acknowledges the request; the client retransmits the whole
//    request on timeout. The server's reply cache (VMTP-style, TTL-evicted)
//    answers duplicate requests with the cached reply instead of re-running
//    the handler, so handlers execute at most once per transaction.
//
// Service handlers run on a per-endpoint pool of worker processes (the
// system's server IsiBas), so a handler may block — touch the disk, take
// locks, or issue nested transactions — without stalling frame reception.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "net/ethernet.hpp"

namespace clouds::net {

using PortId = std::uint16_t;

// Well-known Clouds service ports.
inline constexpr PortId kPortEcho = 1;
inline constexpr PortId kPortDsm = 2;       // DSM pages, segments, locks, 2PC (data servers)
inline constexpr PortId kPortNaming = 5;    // name server
inline constexpr PortId kPortThread = 6;    // thread manager (remote invocation)
inline constexpr PortId kPortUserIo = 7;    // user I/O manager (workstation side)
inline constexpr PortId kPortStorage = 8;   // segment storage service
inline constexpr PortId kPortNfs = 9;       // NfsSim comparator
inline constexpr PortId kPortFtp = 10;      // FtpSim comparator
inline constexpr PortId kPortDsmCallback = 11;  // DSM coherence callbacks (compute servers)

// The header that leads every RaTP frame (docs/PROTOCOLS.md, "RaTP"): a
// frame's payload is this header alone, and its body is the `len` bytes of
// the message that make fragment `index` of `count`.
struct FragmentHeader {
  enum class Type : std::uint8_t { request = 1, reply = 2 };

  Type type{};
  std::uint64_t txid = 0;  // (client node id << 32) | client sequence
  PortId port = 0;         // the service port; a reply echoes it
  std::uint16_t index = 0;
  std::uint16_t count = 0;
  std::uint32_t len = 0;

  template <typename H, typename F>
  static void fields(H& h, F& f) {
    f(h.type);
    f(h.txid);
    f(h.port);
    f(h.index);
    f(h.count);
    f(h.len);
  }
};
// The header's encoded size: a fragment carries the MTU less this.
inline constexpr std::size_t kFragHeader = 19;

struct RatpOptions {
  sim::Duration timeout = sim::kZero;  // 0 = use cost model default
  int max_retries = -1;                // <0 = use cost model default
};

class RatpEndpoint {
 public:
  // A handler receives the reassembled request and returns the reply.
  using Handler =
      std::function<Message(sim::Process& self, NodeId client, const Message& request)>;

  RatpEndpoint(Nic& nic, std::string name);

  // Execute a message transaction: send `request` to (dst, port) and wait
  // for the reply. Blocking; must be called from process context. Fails
  // with Errc::timeout once the retry budget is exhausted (dead or
  // partitioned destination, or unbound remote port) — peer-death detection:
  // the endpoint counts the exhaustion in `peer_deaths`. Fails with
  // Errc::aborted if the transaction is torn down mid-wait (abortPending or
  // endpoint crash), so callers never hang on a transaction that cannot
  // finish.
  Result<Message> transact(sim::Process& self, NodeId dst, PortId port, Message request,
                           RatpOptions options = {});

  // Binds a Handler, or a handler written against contiguous bytes
  // (`const Bytes& request`), which gets the request copied into one buffer.
  template <typename F>
  void bindService(PortId port, F handler) {
    if constexpr (std::is_invocable_v<F&, sim::Process&, NodeId, const Message&>) {
      services_[port] = Handler(std::move(handler));
    } else {
      services_[port] = [h = std::move(handler)](sim::Process& self, NodeId client,
                                                 const Message& request) mutable -> Message {
        return h(self, client, request.flatten());
      };
    }
  }

  // Abort every in-flight client transaction: waiters wake and transact
  // returns Errc::aborted. Safe outside process context.
  void abortPending(const std::string& reason);

  // Discard all in-flight state (reply cache, queues, worker bookkeeping)
  // and abort pending client transactions. Called when this endpoint's node
  // crashes or restarts: the processes serving it are killed by the node
  // layer, so the pool must be rebuilt.
  void onCrash();

  NodeId address() const noexcept { return nic_.address(); }
  Nic& nic() noexcept { return nic_; }

 private:
  struct PendingTx {  // client side
    sim::Process* waiter = nullptr;
    std::vector<std::optional<Message>> frags;
    std::size_t received = 0;
    bool complete = false;
    bool aborted = false;  // torn down mid-wait; waiter returns Errc::aborted
    Message reply;
  };
  struct ServerTx {  // server side
    std::vector<std::optional<Message>> frags;
    std::size_t received = 0;
    bool dispatched = false;
    // Cached for duplicate requests until TTL eviction. Its buffers are
    // shared with the worker's sends, which a crash clearing server_txs_
    // must not free.
    std::optional<Message> reply;
    // Eviction time: kReplyCacheTtl after the first fragment, never while
    // the handler runs, kReplyCacheTtl again once the worker finishes.
    sim::TimePoint expires = sim::kZero;
  };
  struct WorkItem {
    std::uint64_t txid = 0;
    NodeId client = kNoNode;
    PortId port = 0;
    Message request;
  };

  void onFrame(sim::Process& self, Frame& frame);
  void onRequestFrag(sim::Process& self, NodeId src, std::uint64_t txid, PortId port,
                     std::uint16_t index, std::uint16_t count, Message data);
  void onReplyFrag(sim::Process& self, std::uint64_t txid, std::uint16_t index,
                   std::uint16_t count, Message data);
  void sendMessage(sim::Process& self, NodeId dst, FragmentHeader::Type type,
                   std::uint64_t txid, PortId port, const Message& message);
  void dispatch(WorkItem item);
  void workerLoop(sim::Process& self);
  // The worker is done with a transaction: cache its reply (none for an
  // unbound port) and start the record's TTL.
  void finish(const std::pair<NodeId, std::uint64_t>& key, std::optional<Message> reply);

  const sim::CostModel& cost() const { return nic_.network().cost(); }
  sim::Simulation& simulation() { return nic_.network().simulation(); }

  Nic& nic_;
  std::string name_;
  std::uint32_t next_seq_ = 1;
  std::map<std::uint64_t, PendingTx> pending_;
  std::map<std::pair<NodeId, std::uint64_t>, ServerTx> server_txs_;
  // Reply-cache eviction is lazy (purged as new transactions arrive) so the
  // simulation's event queue drains as soon as real work stops. One record
  // per ServerTx::expires ever set, in time order; a record evicts its entry
  // only if that is still the entry's expiry.
  std::deque<std::pair<sim::TimePoint, std::pair<NodeId, std::uint64_t>>> expiry_fifo_;
  std::map<PortId, Handler> services_;
  std::deque<WorkItem> work_queue_;
  std::vector<sim::Process*> idle_workers_;
  std::vector<sim::Process*> worker_procs_;  // all workers ever spawned (for crash kill)
  int worker_count_ = 0;
  // Counters ("<name>/ratp/..."), resolved at construction. aborted counts
  // abortPending / endpoint-crash teardowns; peer_deaths counts exhausted
  // retry budgets (peer declared dead).
  std::uint64_t* m_started_;
  std::uint64_t* m_completed_;
  std::uint64_t* m_timeouts_;
  std::uint64_t* m_aborted_;
  std::uint64_t* m_retransmits_;
  std::uint64_t* m_cache_hits_;
  std::uint64_t* m_frags_;
  std::uint64_t* m_peer_deaths_;
  sim::Histogram* m_latency_;
};

}  // namespace clouds::net
