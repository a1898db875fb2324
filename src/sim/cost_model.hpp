// Calibrated cost model for the simulated hardware.
//
// The paper's platform is a set of Sun-3/50 and Sun-3/60 machines (≈3 MIPS
// MC68020s) on a 10 Mbit/s Ethernet with 8 KiB pages. Every constant below
// is an ordinary parameter of the simulation; the defaults are calibrated so
// that the benchmarks in bench/ regenerate the measurements of paper §4.3
// *mechanistically* — e.g. the 11.9 ms RaTP page transfer emerges from six
// 1.4 KiB fragments each paying per-packet CPU and wire time, not from a
// hard-coded 11.9.
//
// Derivations (paper numbers in [brackets]):
//  * context_switch [0.14 ms]: charged whenever a node's CPU changes owner.
//  * Page faults [1.5 ms zero-filled / 0.629 ms non-zero-filled, 8 KiB,
//    resident]: measured on a combined compute+data node, the local fault
//    path is fault_trap + syscall + dsm_server_lookup + install, where
//    install is fault_map_frame (resident copy: 0.629 ms total) or
//    fault_zero_fill (clearing 8 KiB on a ~3 MIPS CPU: 1.5 ms total).
//  * Ethernet RTT 72 B [2.4 ms]: one way = eth_cpu_send + wire + eth_cpu_recv
//    ≈ 0.56 + 0.08 + 0.56 ≈ 1.2 ms.
//  * RaTP RTT [4.8 ms]: adds ratp_cpu_packet on each side each way.
//  * RaTP 8 KiB transfer [11.9 ms]: 6 fragments, sender-side per-fragment
//    costs pipelined against the wire, plus reassembly and the reply/ack.
//  * FTP [70 ms] / NFS [50 ms]: Unix-stack per-packet costs (unix_*) are
//    several times the Ra ones (SunOS socket + protocol layers), plus
//    connection setup (FTP) / RPC+attribute overheads (NFS).
//  * Null invocation [min 8 ms]: object-manager work to locate the object,
//    set up/tear down the space and remap the thread stack.
//  * Null invocation [max 103 ms]: cold path = header + code/data/heap pages
//    demand-paged from a data server that must read them from disk; emerges
//    from disk_* and the RaTP costs.
#pragma once

#include "sim/time.hpp"

namespace clouds::sim {

struct CostModel {
  // ---- CPU / kernel ----
  Duration context_switch = usec(140);
  Duration fault_trap = usec(180);        // MMU trap + handler entry/exit
  Duration fault_map_frame = usec(239);   // locate + map a resident frame
  Duration fault_zero_fill = usec(1110);  // clear an 8 KiB frame
  Duration syscall = usec(60);            // user->system object call gate

  // ---- Ethernet (shared 10 Mbit/s medium) ----
  double eth_bandwidth_bps = 10e6;
  Duration eth_propagation = usec(5);   // propagation + preamble + inter-frame gap
  Duration eth_cpu_send = usec(450);    // driver + DMA setup + interrupt, per frame
  Duration eth_cpu_recv = usec(450);
  std::size_t eth_mtu = 1500;           // payload bytes per frame
  std::size_t eth_header = 18;          // MAC header + CRC bytes on the wire

  // ---- RaTP ----
  Duration ratp_cpu_packet = usec(480);  // transport processing per packet per side
  Duration ratp_reassembly = usec(180);  // per-message reassembly + delivery
  Duration ratp_retransmit_timeout = msec(40);
  int ratp_max_retries = 8;

  // ---- Unix-stack comparators (FtpSim / NfsSim) ----
  Duration unix_udp_cpu_packet = usec(2600);  // SunOS UDP/IP per packet per side
  Duration unix_tcp_cpu_packet = usec(1900);  // TCP adds checksum/window processing
  Duration unix_ack_cpu = usec(400);          // header-only ACK processing per side
  Duration nfs_rpc_overhead = usec(3500);     // RPC/XDR decode + nfsd dispatch per call
  Duration nfs_file_access = msec(17);        // biod/buffer-cache + disk mix per READ
  Duration ftp_connection_setup = msec(6);   // fork + control channel + PORT exchange
  Duration ftp_per_block_overhead = usec(400);

  // ---- Data-server disk (Fujitsu Eagle-era) ----
  Duration disk_seek_rotate = msec(24);  // average seek + rotational delay (loaded)
  Duration disk_per_page = msec(2);      // transfer of one 8 KiB page

  // ---- Object manager / invocation ----
  Duration invoke_locate = usec(1400);     // sysname -> active-object lookup
  Duration invoke_map_stack = usec(2800);  // unmap + map thread stack, flush TLB
  Duration invoke_entry = usec(1000);      // entry-point prologue, parameter copy-in
  Duration invoke_return = usec(2600);     // result copy-out + stack remap back
  Duration object_activation = msec(3);    // build virtual space from header

  // ---- DSM / lock service ----
  Duration dsm_server_lookup = usec(150);  // directory lookup per request
  int dsm_callback_retries = 25;           // patience (~1 s) before a holder is declared lost
  Duration lock_service = usec(300);       // lock table operation
  Duration lock_wait_timeout = msec(400);  // cp-thread deadlock policy (wait-die style timeout)
  Duration lock_lease_ttl = sec(2);        // locks of crashed holders expire after this

  // ---- Storage / commit ----
  Duration commit_log_write = msec(3);  // force a prepare/commit record
  // ---- WAL storage engine (store/wal.hpp, docs/STORAGE.md) ----
  // A log force pays commit_log_write (sync + rotational settle at the log
  // head) once per batch plus the sequential transfer of the coalesced
  // payload; the group-commit window is how long the first forcer waits for
  // joiners before issuing the batched force.
  Duration wal_group_commit_window = usec(300);
  // Sequential 8 KiB append at streaming bandwidth — the log's reason to
  // exist is turning random page writes (disk_per_page, head repositioning
  // between write-behind slots) into pure sequential transfer; 4x is a
  // conservative sequential-over-random advantage for one spindle.
  Duration wal_force_per_page = usec(500);
  Duration wal_replay_per_record = usec(40); // re-stage one record at reboot
  Duration wal_writeback_interval = msec(20);  // checkpointer daemon cadence
  std::size_t wal_writeback_batch = 64;        // max pages per write-back sweep
  // DSM client write-back batching: pages per write_back_batch message. Caps
  // the RaTP message at ~8 * 8 KiB so the per-fragment send CPU stays well
  // inside one retransmit timeout.
  std::size_t dsm_writeback_batch_pages = 8;
  // A commit decision must outlive a participant's crash+reboot window
  // (chaos tests reboot after 500 ms): 24 * 40 ms ≈ 1 s of retransmits, so
  // the retried decision lands on the rebooted server's durable prepared
  // log. Cleanup aborts are best-effort (presumed abort covers the rest).
  int txn_decision_retries = 24;
  int txn_cleanup_retries = 2;

  // Wire time for n payload bytes in one frame.
  Duration ethTxTime(std::size_t payload_bytes) const {
    const double bits = static_cast<double>((payload_bytes + eth_header) * 8);
    return Duration(static_cast<std::int64_t>(bits / eth_bandwidth_bps * 1e9));
  }
};

}  // namespace clouds::sim
