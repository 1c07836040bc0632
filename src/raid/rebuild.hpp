// RebuildCoordinator: the first-class detect → degrade → restart → rebuild →
// admit state machine, promoted out of the fault-storm harness's inline
// watcher. Unlike that watcher it never quiesces clients:
//
//  - Write-safe online rebuild. While reconstruction is in flight the
//    coordinator observes every degraded write (CsarFs::WriteObserver) and
//    records the written region in a per-server dirty IntervalSet. A
//    degraded write lands in the *redundancy* (parity / mirror / overflow),
//    not in the rebuilding server's files, so the copier's output for that
//    region is stale the moment the write completes. After each copier pass
//    the coordinator re-copies exactly the dirtied regions; reconstruction
//    always reads the post-write redundancy, so the loop converges. The
//    admit decision — "no writes in flight and nothing dirty" followed by
//    IoServer::admit() — is taken without an intervening await, which in the
//    cooperative single-threaded scheduler makes it atomic: no write can
//    slip between the check and the fence lift.
//
//  - Rebuild throttling. RebuildParams::rate_cap paces the initial copier
//    pass through a sim::TokenBucket (survivor reads + replacement writes
//    are charged per unit before it is issued), yielding bandwidth to
//    foreground IO at the cost of a longer rebuild. Re-copy passes run
//    unthrottled: their traffic is bounded by the foreground write rate
//    itself, so pacing them could only delay convergence, never protect
//    bandwidth.
//
//  - Delta-rebuild for non-wipe restarts. The coordinator arms
//    IoServer::fence_restarts so a rejoiner whose disk *survived* still
//    comes back fenced: regions degraded-written during the outage exist
//    only in the redundancy, and content covered solely by dirty pages died
//    with the crash (LocalFs::take_crash_losses). Only those stale regions
//    are re-reconstructed (RebuildTarget::delta) before admit —
//    instead of either a full rebuild or, worse, silently serving stale
//    bytes (the pre-coordinator behaviour).
//
// The same delta path repairs a live server after transient unreachability:
// if the monitor believed a server dead and clients degraded-wrote around
// it, those regions are resynced in place once probes succeed again,
// closing the "file fork" hazard of proactive failover against a slow-but-
// alive server.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/interval_set.hpp"
#include "obs/metrics.hpp"
#include "raid/csar_fs.hpp"
#include "raid/health.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::raid {

struct RebuildParams {
  /// Token-bucket cap on reconstruction traffic in bytes/sec (0 = uncapped).
  /// Applies to the initial copier pass; dirty re-copy passes are exempt
  /// (see file comment).
  double rate_cap = 0.0;
  /// Token-bucket burst (bytes): how much reconstruction may be issued
  /// back-to-back before pacing kicks in.
  std::uint64_t burst = 1 << 20;
  /// Supervisor cadence: how often restarted/flapped servers are checked
  /// and how often a convergence wait re-samples the in-flight counter.
  sim::Duration poll = sim::ms(1);
  /// Per-rebuild time budget; exceeded ⇒ the attempt fails and the fence
  /// stays up (clients remain degraded) until the next attempt.
  sim::Duration give_up = sim::sec(120);
  /// Bound on copier passes per rebuild (initial + dirty re-copies).
  std::uint32_t max_passes = 64;
  /// Delay before re-attempting a failed rebuild.
  sim::Duration retry_backoff = sim::ms(500);
  /// RPC policy for reconstruction traffic. Rebuilds run on the rig's
  /// dedicated repair client, so these deadlines are independent of the
  /// workload clients' (which may be far too tight for 64 KiB reads queued
  /// behind saturated disks). Generous because a rebuild RPC can carry a
  /// whole overflow-table window (kOverflowWindow, 16 MiB) and its restore
  /// batch, queued behind foreground traffic — but still finite, or a
  /// second crash mid-rebuild would hang the coordinator instead of failing
  /// the attempt.
  pvfs::RpcPolicy rpc{sim::sec(30), 2, sim::ms(50), 0.5};
};

struct RebuildStats {
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuilds_failed = 0;    ///< attempts that hit a budget/error
  std::uint64_t full_rebuilds = 0;      ///< wipe rejoin: whole-file copy
  std::uint64_t delta_rebuilds = 0;     ///< non-wipe rejoin or live resync
  std::uint64_t passes = 0;             ///< copier passes run
  std::uint64_t recopy_passes = 0;      ///< passes re-copying dirtied regions
  std::uint64_t bytes_rebuilt = 0;      ///< reconstruction traffic (charged)
  std::uint64_t dirty_bytes = 0;        ///< degraded-write bytes tracked
  std::uint64_t lost_dirty_bytes = 0;   ///< content destroyed by crashes
  std::uint64_t degraded_writes_seen = 0;
  sim::Time first_down_at = 0;          ///< first down transition observed
  sim::Time first_admit_at = 0;         ///< first completed-rebuild admit
  sim::Time last_admit_at = 0;
  sim::Duration last_rebuild_time = 0;  ///< rejoin→admit of last completion
  bool ok = true;                       ///< false once any attempt failed

  template <class Fn>
  void for_each(Fn fn) const {
    fn("rebuilds_started", rebuilds_started);
    fn("rebuilds_completed", rebuilds_completed);
    fn("rebuilds_failed", rebuilds_failed);
    fn("full_rebuilds", full_rebuilds);
    fn("delta_rebuilds", delta_rebuilds);
    fn("passes", passes);
    fn("recopy_passes", recopy_passes);
    fn("bytes_rebuilt", bytes_rebuilt);
    fn("dirty_bytes", dirty_bytes);
    fn("lost_dirty_bytes", lost_dirty_bytes);
    fn("degraded_writes_seen", degraded_writes_seen);
    fn("first_down_at_ns", first_down_at);
    fn("first_admit_at_ns", first_admit_at);
    fn("last_admit_at_ns", last_admit_at);
    fn("last_rebuild_time_ns", last_rebuild_time);
    fn("ok", std::uint64_t{ok});
  }
};

class RebuildCoordinator final : public CsarFs::WriteObserver {
 public:
  RebuildCoordinator(Rig& rig, HealthMonitor& mon, RebuildParams params = {});
  ~RebuildCoordinator() override;
  RebuildCoordinator(const RebuildCoordinator&) = delete;
  RebuildCoordinator& operator=(const RebuildCoordinator&) = delete;

  /// Register a file the coordinator repairs. `size` is the logical file
  /// size bounding rebuild scans; re-tracking a handle raises it.
  void track(const pvfs::OpenFile& f, std::uint64_t size);

  /// Attach to the rig (write observers on every client's CsarFs, the
  /// monitor's transition listener, fence-on-restart on every server) and
  /// spawn the supervisor loop. The monitor itself must be started by the
  /// caller.
  void start();

  /// Detach everything and let the supervisor exit at its next tick. Must
  /// be called from inside the simulation before expecting sim.run() to
  /// drain (the supervisor re-arms a sleep forever otherwise).
  void stop();

  /// True when no rebuild is running and no reachable server is fenced or
  /// pending repair. Permanently-crashed servers do not count: there is
  /// nothing to coordinate until they restart.
  bool idle() const;

  const RebuildStats& stats() const { return stats_; }
  const RebuildParams& params() const { return p_; }
  /// One counter per RebuildStats field, `rebuild.<field>`.
  void export_metrics(obs::Registry& reg) const { reg.put("rebuild.", stats_); }

  // CsarFs::WriteObserver — called synchronously from writing coroutines.
  void on_degraded_write_begin(std::uint32_t failed) override;
  void on_degraded_write_end(const pvfs::OpenFile& f, std::uint64_t off,
                             std::uint64_t len, std::uint32_t failed) override;

 private:
  enum class Phase : std::uint8_t { healthy, degraded, rebuilding };

  struct Outage {
    Phase phase = Phase::healthy;
    sim::Time down_since = 0;
    std::uint32_t writes_in_flight = 0;  ///< degraded writes not yet landed
    /// Regions degraded-written around this server since it went down
    /// (global file offsets, per handle). Snapshot-and-cleared by each
    /// copier pass.
    std::map<std::uint64_t, IntervalSet> stale;
    sim::Time next_attempt = 0;  ///< backoff gate after a failed rebuild
    /// Overflow content was destroyed by the crash: delta rebuilds must
    /// restore the whole overflow table, not just entries under the delta.
    bool overflow_suspect = false;
  };

  struct Tracked {
    pvfs::OpenFile f;
    std::uint64_t size = 0;
  };

  sim::Simulation& sim() const { return rig_->sim; }
  bool stale_empty(const Outage& o) const;

  sim::Task<void> supervisor(std::uint64_t my_gen);

  /// Run one full rebuild conversation for server `s`: snapshot work, copy,
  /// re-copy dirtied regions until convergence, then (for a fenced rejoiner)
  /// admit. `fenced_rejoin` distinguishes a restarted server behind the
  /// fence from a live resync after transient unreachability.
  sim::Task<void> handle_rejoin(std::uint32_t s, bool fenced_rejoin);

  /// Fold the server's crash-lost byte ranges (dirty pages that died with
  /// the crash) into its stale map, mapped back to global file offsets.
  /// Flags the outage when overflow content was lost.
  void merge_crash_losses(std::uint32_t s);

  Rig* rig_;
  HealthMonitor* mon_;
  HealthMonitor::ListenerId listener_id_ = 0;
  RebuildParams p_;
  std::vector<Tracked> files_;
  std::vector<Outage> outages_;
  RebuildStats stats_;
  std::uint64_t gen_ = 0;
  bool running_ = false;
  bool attached_ = false;
};

}  // namespace csar::raid
