// Fault-storm harness: a seeded client workload driven through a FaultPlan.
//
// This is the capstone scenario for the robustness work: a deployment runs a
// deterministic read/write mix while the injector crashes servers, drops and
// resets messages, plants latent sector errors and slows disks — and the
// client stack (RPC deadlines + retry, HealthMonitor, CsarFs failover,
// Recovery rebuild, Scrubber media repair) is expected to keep every
// completed operation correct. A shadow copy of the file is maintained
// alongside the workload; every successful read is verified against it, and
// a full-file sweep at the end catches anything the sampled reads missed.
//
// Everything is derived from seeds (workload offsets, fault draws, retry
// jitter), so one StormParams value denotes exactly one simulation: the
// metrics, the fault trace and the event count are bit-stable across runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "raid/health.hpp"
#include "raid/migrate.hpp"
#include "raid/rebuild.hpp"
#include "raid/rig.hpp"
#include "sim/time.hpp"

namespace csar::fault {

struct StormParams {
  raid::RigParams rig;        ///< deployment (set rig.rpc to real deadlines!)
  raid::HealthParams health;  ///< failure-detection cadence
  FaultPlan plan;             ///< what goes wrong, and when
  /// Rebuild-coordinator knobs (rate cap, convergence budgets). The storm
  /// maps its lifecycle onto the coordinator: detection, delta/full rebuild
  /// and admit all happen there while the workload keeps running.
  raid::RebuildParams rebuild;
  /// Per-file scheme mix: file i is created under file_schemes[i % size()]
  /// (installed as policy path rules before the rig is built). Empty → every
  /// file uses rig.scheme, reproducing the single-scheme storm exactly.
  std::vector<raid::Scheme> file_schemes;
  /// Scheme-migrator knobs; a migrator runs whenever `adaptive` is set or a
  /// manual migration is scheduled below.
  raid::MigrateParams migrate;
  /// Let the adaptive engine (policy recommend()) trigger migrations
  /// mid-storm from the telemetry the storm itself produces.
  bool adaptive = false;
  /// Manual migration: at `migrate_at`, move file index `migrate_file` to
  /// `migrate_to` (migrate_file < 0 disables).
  std::int32_t migrate_file = -1;
  raid::Scheme migrate_to = raid::Scheme::raid1;
  sim::Time migrate_at = 0;
  std::uint64_t file_size = 8 * 1024 * 1024;  ///< per file
  std::uint32_t stripe_unit = 64 * 1024;
  std::uint32_t nfiles = 1;           ///< files driven concurrently
  std::uint64_t io_size = 64 * 1024;  ///< per-op transfer size
  std::uint64_t ops = 200;            ///< read/write ops after the preload
  sim::Duration op_gap = sim::ms(5);  ///< pause between ops
  std::uint64_t workload_seed = 42;   ///< offsets, op mix, payload patterns
  /// Run a RebuildCoordinator: crashed-then-restarted servers are rebuilt
  /// online (clients keep reading and writing through the rebuild; dirtied
  /// regions are re-copied) and admitted once trustworthy. When false,
  /// wiped rejoiners stay fenced and clients stay degraded.
  bool rebuild_after = true;
  /// Run a Scrubber::repair pass before the final sweep, clearing any
  /// latent sector errors the plan planted.
  bool scrub_after = true;
  /// Observability (both optional, not owned). A tracer records the full
  /// request path as spans plus fault/rebuild/migration instants; a registry
  /// collects counters/histograms, and at the end the rig's per-node Stats,
  /// the coordinator's (rebuild.*) and the migrator's (migrate.*) as
  /// counters. Attaching either adds ZERO simulation
  /// events, so events_executed and the fingerprint are unchanged.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
  /// When nonzero, poll utilization probes (iod/disk/NIC busy fractions)
  /// every `sample_window` of sim time into StormMetrics::samples_csv. The
  /// sampler is itself a sim process, so it DOES shift events_executed —
  /// leave at 0 for fingerprint comparisons.
  sim::Duration sample_window = 0;
};

struct StormMetrics {
  // Workload outcome.
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t verify_mismatches = 0;  ///< successful reads with wrong data
  /// Bytes left indeterminate by failed (possibly torn) writes and never
  /// re-acknowledged; they are excluded from verification.
  std::uint64_t tainted_bytes = 0;

  // The components' own counters at the end of the run, embedded whole.
  pvfs::RpcStats rpc;                    ///< client 0's RPC engine
  raid::CsarFs::FailoverStats failover;  ///< client 0's failover paths
  raid::RebuildStats rebuild;  ///< all zero when rebuild_after is false
  raid::MigrateStats migrate;  ///< all zero without a migrator
  pvfs::ManagerStats manager;
  FaultStats faults;

  // Repair outcome.
  std::uint64_t scrub_media_errors = 0;
  std::uint64_t scrub_repaired = 0;
  bool rebuild_ok = true;  ///< false when a scheduled rebuild failed

  /// Final metadata audit: files whose manager-durable handle/scheme tag/
  /// generation disagrees with the clients' live view after all replays and
  /// reconciliation. Must be zero for a converged storm.
  std::uint64_t meta_mismatches = 0;

  // Fault-tolerance figures of merit.
  sim::Duration detection_latency = 0;  ///< first crash -> monitor notices
  sim::Duration mttr = 0;  ///< first crash -> rebuilt & trusted again
  double availability = 1.0;  ///< ops_ok / ops_attempted

  // Determinism fingerprints.
  std::uint64_t events_executed = 0;
  sim::Time finished_at = 0;
  std::uint64_t fingerprint = 0;  ///< FNV-1a over trace + all counters

  std::vector<std::string> trace;  ///< the injector's executed-fault log
  /// Utilization samples (CSV) when StormParams::sample_window was set.
  std::string samples_csv;
};

/// Build a deployment, run the storm, return the metrics. Blocking (drives
/// the simulation to completion).
StormMetrics run_storm(const StormParams& params);

}  // namespace csar::fault
