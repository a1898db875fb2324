// Mechanistic models of the Unix-stack comparators from paper §4.3:
//
//   "To reliably transfer an 8K page from one machine to another costs
//    11.9 ms [RaTP], compared to 70 ms using Unix FTP and 50 ms using
//    Unix NFS."
//
// Neither SunOS binary can run here, so each comparator is rebuilt as the
// protocol skeleton that dominated its real cost on Sun-3-era hardware:
//
//  * NfsSim — one NFS READ RPC over UDP: request datagram, RPC/XDR decode
//    and nfsd dispatch, server file access (buffer cache + disk mix), reply
//    datagram IP-fragmented to MTU frames, every packet paying the SunOS
//    UDP/IP per-packet CPU cost (several times Ra's lean path).
//  * FtpSim — TCP connection setup (handshake + server fork + control
//    exchange), then stop-and-wait data segments (early BSD TCP on this
//    hardware effectively ack-clocked one segment at a time), then close.
//
// Both run over the same simulated Ethernet as RaTP, so the comparison in
// bench_network is driven by packet counts and per-packet costs, not by
// hard-coded totals.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "net/ethernet.hpp"

namespace clouds::net {

// The comparators' frames (docs/PROTOCOLS.md, "Comparator frames"): a type
// byte, then the fields the type calls for. A frame of another type is
// refused, like one cut short.
enum class NfsMsg : std::uint8_t { read_req = 1, read_data = 2 };

struct NfsFrame {
  NfsMsg type{};
  std::uint32_t xid = 0;
  std::uint64_t file = 0;    // read_req
  std::uint64_t offset = 0;  // read_req
  std::uint32_t length = 0;  // read_req
  std::uint16_t index = 0;   // read_data
  std::uint16_t count = 0;   // read_data
  Bytes data{};              // read_data

  template <typename N, typename F>
  static void fields(N& n, F& f) {
    f(n.type);
    f(n.xid);
    switch (n.type) {
      case NfsMsg::read_req:
        f(n.file);
        f(n.offset);
        f(n.length);
        return;
      case NfsMsg::read_data:
        f(n.index);
        f(n.count);
        f(n.data);
        return;
    }
    f.require(false, "unknown NfsSim message");
  }
};
// A read_data frame's size less its data: a reply datagram is cut at the
// MTU less this.
inline constexpr std::size_t kUdpHeader = 13;

enum class FtpMsg : std::uint8_t { syn = 1, synack = 2, get = 3, data = 4, ack = 5, fin = 6 };

struct FtpFrame {
  FtpMsg type{};
  std::uint32_t conn = 0;
  std::uint64_t file = 0;    // get
  std::uint32_t length = 0;  // get
  std::uint16_t index = 0;   // data
  std::uint16_t count = 0;   // data
  Bytes data{};              // data

  template <typename T, typename F>
  static void fields(T& t, F& f) {
    f(t.type);
    f(t.conn);
    switch (t.type) {
      case FtpMsg::syn:
      case FtpMsg::synack:
      case FtpMsg::ack:
      case FtpMsg::fin:
        return;
      case FtpMsg::get:
        f(t.file);
        f(t.length);
        return;
      case FtpMsg::data:
        f(t.index);
        f(t.count);
        f(t.data);
        return;
    }
    f.require(false, "unknown FtpSim message");
  }
};

// Serves byte ranges of named "files" (in the benches: segment images).
using FileReader = std::function<Bytes(std::uint64_t file_id, std::uint64_t offset,
                                       std::uint32_t length)>;

class NfsSim {
 public:
  NfsSim(Nic& nic, std::string name);

  void serveFiles(FileReader reader) { reader_ = std::move(reader); }

  // Client side: read length bytes of file_id at offset from the server.
  Result<Bytes> read(sim::Process& self, NodeId server, std::uint64_t file_id,
                     std::uint64_t offset, std::uint32_t length);

 private:
  void onFrame(sim::Process& self, const Frame& frame);

  struct PendingRead {
    sim::Process* waiter = nullptr;
    std::uint32_t expected = 0;
    Bytes data;
    bool complete = false;
  };

  Nic& nic_;
  std::string name_;
  std::uint32_t next_xid_ = 1;
  std::map<std::uint32_t, PendingRead> pending_;
  FileReader reader_;
};

class FtpSim {
 public:
  FtpSim(Nic& nic, std::string name);

  void serveFiles(FileReader reader) { reader_ = std::move(reader); }

  // Client side: full FTP-style retrieval of length bytes of file_id
  // (connection setup + stop-and-wait transfer + teardown).
  Result<Bytes> retrieve(sim::Process& self, NodeId server, std::uint64_t file_id,
                         std::uint32_t length);

 private:
  void onFrame(sim::Process& self, const Frame& frame);

  struct Transfer {
    sim::Process* waiter = nullptr;
    Bytes data;
    bool connected = false;
    bool segment_acked = false;
    bool complete = false;
  };

  Nic& nic_;
  std::string name_;
  std::uint32_t next_conn_ = 1;
  std::map<std::uint32_t, Transfer> transfers_;
  FileReader reader_;
};

}  // namespace clouds::net
