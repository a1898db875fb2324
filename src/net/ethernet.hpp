// Simulated 10 Mbit/s Ethernet.
//
// "Networking is one of the most heavily used subsystems of Clouds" (paper
// §4.3): diskless compute servers demand-page every object over the wire.
// The model is a single shared medium: one frame transmits at a time (frames
// queue behind the medium's busy time), each frame costs wire time
// (bytes/bandwidth), and each side pays a per-frame CPU cost on its node's
// CpuResource — which is what dominates latency on Sun-3-era hardware and
// what produces the paper's 2.4 ms round trip for a 72-byte message.
//
// Fault injection (seeded-random or scripted drops, duplication, NIC
// up/down) drives the RaTP reliability tests and PET failure experiments.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/message.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace clouds::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffu;
// Destination address for link-level broadcast (FF:FF:..): one frame on the
// wire, delivered to every attached interface except the sender's.
inline constexpr NodeId kBroadcast = 0xfffffffeu;

using ProtocolId = std::uint16_t;
inline constexpr ProtocolId kProtoEcho = 1;
inline constexpr ProtocolId kProtoRatp = 2;
inline constexpr ProtocolId kProtoUnixUdp = 3;
inline constexpr ProtocolId kProtoUnixTcp = 4;
inline constexpr ProtocolId kProtoSched = 5;  // scheduler load reports (sched/)

// A frame carries `payload` by value and then `body` by reference: a
// protocol puts its header in the payload and the data it forwards in the
// body (scatter-gather), so a RaTP fragment is a header plus a view of its
// message, and a broadcast's receivers share one body. The wire carries
// both, payload first.
struct Frame {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  ProtocolId protocol = 0;
  Bytes payload;
  Message body{};

  std::size_t wireSize() const noexcept { return payload.size() + body.size(); }
};

class Ethernet;

// Per-node network interface. Received frames are queued and handed to
// protocol handlers by a dedicated receive process, which charges the
// receiving node's CPU for each frame (interrupt + driver cost) before
// dispatch. Handlers run in the receive-process context: they may perform
// short blocking work (CPU charges, sends) but must hand long work to
// worker processes.
class Nic {
 public:
  // A handler may take the frame's payload apart: the frame is its to keep.
  using Handler = std::function<void(sim::Process& self, Frame&)>;

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  NodeId address() const noexcept { return addr_; }
  sim::CpuResource& cpu() noexcept { return cpu_; }
  Ethernet& network() noexcept { return ether_; }

  // Transmit a frame; called from process context. Charges the sender's
  // per-frame CPU cost, then queues the frame on the medium.
  void send(sim::Process& self, Frame frame);

  void setHandler(ProtocolId protocol, Handler handler);

  // Interface state: a down NIC neither sends nor receives (node crash or
  // link partition). Frames in flight to a NIC that goes down are lost.
  void setUp(bool up) noexcept { up_ = up; }
  bool up() const noexcept { return up_; }

  // Node-crash path: interface down, queued frames lost, receive process
  // killed, scripted per-NIC fault state reset. restart() re-creates the
  // receive process and brings the interface back up (protocol handlers
  // persist: they are configuration).
  void crash();
  void restart();

  // Scripted fault injection: silently discard the next n frames that
  // arrive at this interface (targeted receive-side loss). Reset by
  // crash()/restart() — fault state is volatile, not configuration.
  void dropNextRx(int n) noexcept { drop_next_rx_ += n; }

 private:
  friend class Ethernet;
  Nic(Ethernet& ether, NodeId addr, sim::CpuResource& cpu, std::string name);

  void spawnRxProcess();
  void enqueueReceived(Frame frame);  // event context, after wire delay

  Ethernet& ether_;
  NodeId addr_;
  sim::CpuResource& cpu_;
  std::string name_;
  bool up_ = true;
  std::map<ProtocolId, Handler> handlers_;
  std::deque<Frame> rx_queue_;
  sim::Process* rx_process_ = nullptr;
  int drop_next_rx_ = 0;
  // Per-interface counters ("<name>/eth/..."), resolved once at construction.
  // frames_lost counts frames that reached this interface but were never
  // delivered to a handler: arrived or queued while down, cleared at crash,
  // sent while down, or eaten by dropNextRx. Medium-level drops are *not*
  // included — chaos tests cross-check the two accountings.
  std::uint64_t* m_sent_;
  std::uint64_t* m_received_;
  std::uint64_t* m_lost_;
  std::uint64_t* m_crashes_;
  std::uint64_t* m_restarts_;
};

class Ethernet {
 public:
  Ethernet(sim::Simulation& sim, const sim::CostModel& cost);

  // Attach a node; cpu is the node's processor (per-frame costs land there).
  Nic& attach(NodeId addr, sim::CpuResource& cpu, std::string name);
  Nic* find(NodeId addr) noexcept;

  sim::Simulation& simulation() noexcept { return sim_; }
  const sim::CostModel& cost() const noexcept { return cost_; }

  // ---- Fault injection ----
  // Random loss/duplication, deterministic under the simulation seed.
  void setDropRate(double p) noexcept { drop_rate_ = p; }
  void setDuplicateRate(double p) noexcept { dup_rate_ = p; }
  // Drop the next n frames outright (scripted, for targeted tests).
  void dropNextFrames(int n) noexcept { scripted_drops_ += n; }

  // Network partitions: frames between partitioned pairs occupy wire time
  // (the sender cannot know) but are never delivered, like a cut between
  // two Ethernet segments. Symmetric; healAll() reconnects everything.
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);
  void partitionGroups(const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b);
  void healGroups(const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b);
  void healAll();
  bool partitioned(NodeId a, NodeId b) const noexcept;

 private:
  friend class Nic;
  void transmit(Frame frame);  // called with sender CPU cost already paid
  void deliver();              // event context: the front of in_flight_ arrives

  sim::Simulation& sim_;
  const sim::CostModel& cost_;
  std::vector<std::unique_ptr<Nic>> nics_;
  // Frames on the wire, in transmit order (a duplicated frame twice). The
  // one medium serializes transmissions, so arrivals fall in the same order
  // and each delivery event takes the front.
  std::deque<Frame> in_flight_;
  sim::TimePoint medium_free_at_ = sim::kZero;
  double drop_rate_ = 0.0;
  double dup_rate_ = 0.0;
  int scripted_drops_ = 0;
  std::set<std::uint64_t> blocked_pairs_;  // normalized (min, max) address pairs
  // Medium-wide counters ("net/eth/..."), resolved once at construction.
  std::uint64_t* m_on_wire_;
  std::uint64_t* m_dropped_;
  std::uint64_t* m_dup_;
  std::uint64_t* m_blocked_;
  std::uint64_t* m_bytes_;
  std::uint64_t* m_busy_usec_;
};

}  // namespace clouds::net
