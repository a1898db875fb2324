#include "net/ratp.hpp"

#include <algorithm>
#include <cassert>

namespace clouds::net {

namespace {
// How long a server keeps a transaction's record: a partial request from its
// first fragment, a finished one (and its reply, for duplicate requests)
// from the moment its handler returned. Far above the client's full retry
// horizon, so a transaction id can never be re-executed; a transaction whose
// handler is still running is never evicted.
constexpr sim::Duration kReplyCacheTtl = sim::sec(5);
constexpr sim::TimePoint kNever = sim::TimePoint::max();

// A complete message from its fragments: the views are joined, and views of
// one sender's message merge back into its runs, so no byte is copied. Each
// slot stays engaged, so a late duplicate fragment is still recognised, but
// keeps no buffer alive.
Message reassemble(std::vector<std::optional<Message>>& frags) {
  Message message;
  for (auto& f : frags) {
    message.append(*f);
    *f = Message();
  }
  return message;
}
}  // namespace

RatpEndpoint::RatpEndpoint(Nic& nic, std::string name) : nic_(nic), name_(std::move(name)) {
  sim::MetricsRegistry& metrics = simulation().metrics();
  m_started_ = &metrics.counter(name_ + "/ratp/transactions");
  m_completed_ = &metrics.counter(name_ + "/ratp/completed");
  m_timeouts_ = &metrics.counter(name_ + "/ratp/timeouts");
  m_aborted_ = &metrics.counter(name_ + "/ratp/aborted");
  m_retransmits_ = &metrics.counter(name_ + "/ratp/retransmits");
  m_cache_hits_ = &metrics.counter(name_ + "/ratp/reply_cache_hits");
  m_frags_ = &metrics.counter(name_ + "/ratp/fragments_sent");
  m_peer_deaths_ = &metrics.counter(name_ + "/ratp/peer_deaths");
  m_latency_ = &metrics.histogram(name_ + "/ratp/txn_latency_usec");
  nic_.setHandler(kProtoRatp, [this](sim::Process& self, Frame& frame) { onFrame(self, frame); });
}

void RatpEndpoint::abortPending(const std::string& reason) {
  for (auto& [txid, tx] : pending_) {
    if (tx.complete || tx.aborted) continue;
    tx.aborted = true;
    simulation().trace(name_, "ratp", "abort tx " + std::to_string(txid & 0xffffffff) +
                                          ": " + reason);
    if (tx.waiter != nullptr) tx.waiter->wake();
  }
}

void RatpEndpoint::onCrash() {
  // Do NOT clear pending_: waiters hold references into it. Killed waiters
  // unwind (their Eraser removes the entry); any survivor sees the aborted
  // flag and returns Errc::aborted instead of dereferencing freed state.
  abortPending("endpoint crash");
  server_txs_.clear();
  expiry_fifo_.clear();
  work_queue_.clear();
  idle_workers_.clear();
  for (sim::Process* w : worker_procs_) w->kill();
  worker_procs_.clear();
  worker_count_ = 0;
}

Result<Message> RatpEndpoint::transact(sim::Process& self, NodeId dst, PortId port,
                                       Message request, RatpOptions options) {
  const sim::Duration timeout =
      options.timeout > sim::kZero ? options.timeout : cost().ratp_retransmit_timeout;
  const int retries = options.max_retries >= 0 ? options.max_retries : cost().ratp_max_retries;

  const std::uint64_t txid = (static_cast<std::uint64_t>(nic_.address()) << 32) | next_seq_++;
  PendingTx& tx = pending_[txid];
  tx.waiter = &self;
  ++*m_started_;
  const sim::TimePoint started_at = simulation().now();

  // Erase the client-side state even if the calling process is killed while
  // blocked (node crash unwinds through here).
  struct Eraser {
    std::map<std::uint64_t, PendingTx>& map;
    std::uint64_t key;
    ~Eraser() { map.erase(key); }
  } eraser{pending_, txid};

  for (int attempt = 0; attempt <= retries && !tx.aborted; ++attempt) {
    if (attempt > 0) {
      ++*m_retransmits_;
      simulation().trace(name_, "ratp", "retransmit tx " + std::to_string(txid & 0xffffffff) +
                                            " attempt " + std::to_string(attempt));
    }
    sendMessage(self, dst, FragmentHeader::Type::request, txid, port, request);
    const sim::TimePoint deadline = simulation().now() + timeout;
    while (!tx.complete && !tx.aborted && simulation().now() < deadline) {
      (void)self.blockFor(deadline - simulation().now());
    }
    if (tx.complete) {
      ++*m_completed_;
      m_latency_->observe(simulation().now() - started_at);
      return std::move(tx.reply);
    }
  }
  if (tx.aborted) {
    ++*m_aborted_;
    return makeError(Errc::aborted, name_ + ": transaction to node " + std::to_string(dst) +
                                        " port " + std::to_string(port) + " aborted");
  }
  // Full retry budget spent with no reply: declare the peer dead so upper
  // layers (2PC, DSM, PET) can start recovery instead of waiting forever.
  ++*m_peer_deaths_;
  simulation().trace(name_, "ratp", "peer " + std::to_string(dst) + " declared dead (tx " +
                                        std::to_string(txid & 0xffffffff) + ")");
  ++*m_timeouts_;
  return makeError(Errc::timeout, name_ + ": transaction to node " + std::to_string(dst) +
                                      " port " + std::to_string(port) + " timed out");
}

void RatpEndpoint::sendMessage(sim::Process& self, NodeId dst, FragmentHeader::Type type,
                               std::uint64_t txid, PortId port, const Message& message) {
  const std::size_t capacity = cost().eth_mtu - kFragHeader;
  const auto count =
      static_cast<std::uint16_t>(std::max<std::size_t>(1, (message.size() + capacity - 1) / capacity));
  for (std::uint16_t index = 0; index < count; ++index) {
    const std::size_t off = static_cast<std::size_t>(index) * capacity;
    const std::size_t len = std::min(capacity, message.size() - off);
    Encoder e;
    e.reserve(kFragHeader);
    codec::Writer{e}(
        FragmentHeader{type, txid, port, index, count, static_cast<std::uint32_t>(len)});
    // Transport-layer processing cost per packet, then the driver path.
    nic_.cpu().compute(self, cost().ratp_cpu_packet);
    Frame frame;
    frame.dst = dst;
    frame.protocol = kProtoRatp;
    frame.payload = std::move(e).take();
    frame.body = message.slice(off, len);
    nic_.send(self, std::move(frame));
    ++*m_frags_;
  }
}

void RatpEndpoint::onFrame(sim::Process& self, Frame& frame) {
  nic_.cpu().compute(self, cost().ratp_cpu_packet);
  Decoder d(frame.payload);
  const auto header = codec::read<FragmentHeader>(d);
  // The payload is the header alone; the fragment's bytes are the body, a
  // view of the sender's message, of exactly the length the header gives.
  if (!header.ok() || !d.atEnd() || header.value().len != frame.body.size() ||
      header.value().count == 0 || header.value().index >= header.value().count) {
    simulation().trace(name_, "ratp", "malformed frame dropped");
    return;
  }
  const FragmentHeader& h = header.value();
  switch (h.type) {
    case FragmentHeader::Type::request:
      onRequestFrag(self, frame.src, h.txid, h.port, h.index, h.count, std::move(frame.body));
      break;
    case FragmentHeader::Type::reply:
      onReplyFrag(self, h.txid, h.index, h.count, std::move(frame.body));
      break;
  }
}

void RatpEndpoint::onRequestFrag(sim::Process& self, NodeId src, std::uint64_t txid, PortId port,
                                 std::uint16_t index, std::uint16_t count, Message data) {
  // Lazily evict records past their TTL; by then their clients have long
  // stopped retransmitting. Done before the lookup below so a stale record
  // for this very key cannot shadow the new transaction.
  const sim::TimePoint now = simulation().now();
  while (!expiry_fifo_.empty() && expiry_fifo_.front().first <= now) {
    const auto& [at, stale] = expiry_fifo_.front();
    auto it = server_txs_.find(stale);
    if (it != server_txs_.end() && it->second.expires == at) server_txs_.erase(it);
    expiry_fifo_.pop_front();
  }
  const auto key = std::make_pair(src, txid);
  ServerTx& st = server_txs_[key];
  if (st.frags.empty()) {
    st.frags.resize(count);
    st.expires = now + kReplyCacheTtl;
    expiry_fifo_.emplace_back(st.expires, key);
  }
  if (st.reply) {
    // Duplicate of a completed transaction: answer from the reply cache,
    // once per full retransmitted request (on its final fragment). The
    // local reference keeps the reply alive if a crash clears the cache
    // while the sends block.
    if (index + 1 == count) {
      ++*m_cache_hits_;
      const Message reply = *st.reply;
      sendMessage(self, src, FragmentHeader::Type::reply, txid, port, reply);
    }
    return;
  }
  if (index < st.frags.size() && !st.frags[index].has_value()) {
    st.frags[index] = std::move(data);
    ++st.received;
  }
  if (st.received == st.frags.size() && !st.dispatched) {
    st.dispatched = true;
    st.expires = kNever;  // until the worker finishes
    nic_.cpu().compute(self, cost().ratp_reassembly);
    WorkItem item;
    item.txid = txid;
    item.client = src;
    item.port = port;
    item.request = reassemble(st.frags);
    dispatch(std::move(item));
  }
}

void RatpEndpoint::dispatch(WorkItem item) {
  work_queue_.push_back(std::move(item));
  if (!idle_workers_.empty()) {
    sim::Process* w = idle_workers_.back();
    idle_workers_.pop_back();
    w->wake();
  } else {
    const int id = worker_count_++;
    worker_procs_.push_back(&simulation().spawn(
        name_ + ".ratpw" + std::to_string(id), [this](sim::Process& self) { workerLoop(self); }));
  }
}

void RatpEndpoint::workerLoop(sim::Process& self) {
  for (;;) {
    while (work_queue_.empty()) {
      idle_workers_.push_back(&self);
      self.block();
      // A dispatcher pops us before waking; after a spurious wake we are
      // still listed and must deduplicate.
      std::erase(idle_workers_, &self);
    }
    WorkItem item = std::move(work_queue_.front());
    work_queue_.pop_front();
    const auto key = std::make_pair(item.client, item.txid);
    auto it = services_.find(item.port);
    if (it == services_.end()) {
      simulation().trace(name_, "ratp",
                         "request for unbound port " + std::to_string(item.port) + " ignored");
      finish(key, std::nullopt);
      continue;  // no reply: the client will time out
    }
    // Held here across the blocking sends: a crash meanwhile clears
    // server_txs_, and with it the cache's copy.
    const Message reply = it->second(self, item.client, item.request);
    item.request = Message();
    finish(key, reply);
    sendMessage(self, item.client, FragmentHeader::Type::reply, item.txid, item.port, reply);
  }
}

void RatpEndpoint::finish(const std::pair<NodeId, std::uint64_t>& key,
                          std::optional<Message> reply) {
  auto st = server_txs_.find(key);
  if (st == server_txs_.end()) return;  // cleared by a crash meanwhile
  st->second.reply = std::move(reply);
  st->second.expires = simulation().now() + kReplyCacheTtl;
  expiry_fifo_.emplace_back(st->second.expires, key);
}

void RatpEndpoint::onReplyFrag(sim::Process& self, std::uint64_t txid, std::uint16_t index,
                               std::uint16_t count, Message data) {
  auto it = pending_.find(txid);
  if (it == pending_.end()) return;  // stale duplicate of a finished transaction
  PendingTx& tx = it->second;
  if (tx.complete) return;
  if (tx.frags.empty()) tx.frags.resize(count);
  if (index >= tx.frags.size() || tx.frags[index].has_value()) return;
  tx.frags[index] = std::move(data);
  if (++tx.received < tx.frags.size()) return;
  nic_.cpu().compute(self, cost().ratp_reassembly);
  // The compute blocks: if the waiter's last deadline passed meanwhile,
  // transact has returned and erased the entry (or it was aborted), so `tx`
  // may dangle and the waiter has moved on. Look it up again.
  it = pending_.find(txid);
  if (it == pending_.end() || it->second.aborted) return;
  PendingTx& live = it->second;
  live.reply = reassemble(live.frags);
  live.complete = true;
  live.waiter->wake();
}

}  // namespace clouds::net
