// Fleet layer: disk-adaptive redundancy with budgeted transitions.
//
// PACEMAKER's observation (Kadekodi et al., FAST '20) is that a fleet's
// disks do not fail at one flat rate: annualized failure rates follow a
// bathtub curve, and the right redundancy for a disk group depends on where
// on that curve the group currently sits. Reacting to AFR-class changes
// naively ("HeART-attack") fires every required transition at once and the
// resulting copy storm destroys foreground tail latency; the fix is to plan
// transitions proactively and meter them through an explicit transition-IO
// budget.
//
// This subsystem reproduces that control loop on the CSAR stack:
//
//   FleetModel       per-disk bathtub aging (hw::aging_profile) arranged
//                    into failure-domain disk groups (contiguous server
//                    ranges — racks sharing power, cf. SCR's NODE groups),
//                    with a years-per-sim-second compressed timeline and an
//                    AFR-derived fault plan (crashes, latent sector errors,
//                    whole-domain outages) for fault::FaultInjector.
//   rgroups          files are filed into redundancy classes keyed by the
//                    AFR class of the disk group holding their placement
//                    base; the class id is persisted at the metadata
//                    manager (pvfs::Client::set_redundancy) with its scheme,
//                    so transitions are planned per class, not per file.
//   FleetController  observes AFR-class changes ahead of time (lead_years),
//                    plans per-class scheme transitions — rs(6,3) for the
//                    bathtub edges, rs(4,2) for the flat bottom — and
//                    executes them through raid::SchemeMigrator under one
//                    fleet-wide sim::TokenBucket shared across concurrent
//                    migrations. Urgent transitions (durability upgrades,
//                    earliest class-change deadline first) preempt elective
//                    downgrades; max_concurrent bounds parallel copies.
//
// Everything is bit-deterministic: aging profiles and the fault plan derive
// from (seed, disk index), and the controller's decision tick iterates its
// file table in handle order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fault/fault.hpp"
#include "hw/disk.hpp"
#include "obs/metrics.hpp"
#include "raid/migrate.hpp"
#include "raid/rig.hpp"
#include "raid/scheme.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::fleet {

struct FleetParams {
  std::uint64_t seed = 0xF1EE7C5AULL;  ///< aging + fault-plan determinism
  /// Servers per failure domain (disk group): a group shares a rack/power
  /// unit and — because groups are age cohorts — a purchase batch.
  std::uint32_t group_size = 3;
  /// Timeline compression: one simulated second advances every disk's age
  /// by this many years. A 4 s run at 0.5 y/s covers two fleet-years.
  double years_per_sim_sec = 0.5;
  /// Purchase-batch age of group g at sim time 0 is
  ///   group0_age_years - g * group_age_step_years   (clamped at 0),
  /// so group 0 is the oldest cohort (first to hit wearout) and later
  /// groups are progressively younger.
  double group0_age_years = 3.8;
  double group_age_step_years = 1.6;
  /// Scheme map: the flat bottom of the bathtub runs the cheap code; the
  /// elevated-AFR edges (infancy, wearout) run the durable one.
  raid::Scheme scheme_useful = raid::Scheme::rs(4, 2);
  raid::Scheme scheme_edge = raid::Scheme::rs(6, 3);
  /// Proactive lookahead: transitions are planned against the AFR class the
  /// group will be in `lead_years` from now, so the copy work lands before
  /// the class actually changes (the PACEMAKER deadline).
  double lead_years = 0.1;
  /// Assumed repair window (years) for the closed-form loss-rate estimate.
  double repair_window_years = 2e-3;  ///< ~17 h
  /// Fleet-wide transition-IO budget in bytes/sec shared by every
  /// concurrent migration's initial copy pass. 0 = unbudgeted (the
  /// reactive-storm baseline).
  double transition_budget_bps = 8e6;
  std::uint64_t budget_burst = 1 << 20;
  /// Concurrent migrations the controller will keep in flight.
  std::uint32_t max_concurrent = 2;
  sim::Duration decision_interval = sim::ms(100);

  // --- fault-plan derivation knobs ---
  /// Multiplier on AFR-derived per-step crash probabilities (a compressed
  /// run needs enough events to matter; 1.0 = literal rates).
  double fault_boost = 1.0;
  /// Fraction of derived disk events that plant a latent sector error in a
  /// tenant file instead of crashing the server.
  double media_fraction = 0.4;
  /// Transient-outage length for derived crashes (server comes back with
  /// its disk intact; no wipe).
  sim::Duration crash_outage = sim::ms(250);
  /// Whole-domain outage rate per group-year (shared rack/power failures);
  /// 0 disables GroupCrash derivation.
  double group_outage_per_year = 0.0;
  sim::Duration group_outage_duration = sim::ms(150);
};

/// Failures a scheme tolerates per redundancy group (its `m`).
inline std::uint32_t failures_tolerated(raid::Scheme s) {
  switch (s.kind) {
    case raid::SchemeKind::raid0:
      return 0;
    case raid::SchemeKind::raid1:
    case raid::SchemeKind::raid4:
    case raid::SchemeKind::raid5:
    case raid::SchemeKind::raid5_nolock:
    case raid::SchemeKind::raid5_npc:
    case raid::SchemeKind::hybrid:
      return 1;
    case raid::SchemeKind::rs:
      return s.m;
  }
  return 0;
}

/// Closed-form expected data-loss-event rate (events per year) for one
/// redundancy group under scheme `s` with per-disk AFR `afr` and repair
/// window `repair_years`: the first failure arrives at rate g·λ, and each
/// of the m further failures must land among the remaining disks within the
/// repair window — rate ≈ g·λ · Π_{i=1..m} (g−i)·λ·R. `nservers` resolves
/// the group width of the classic schemes (parity: g = nservers).
double loss_event_rate(raid::Scheme s, std::uint32_t nservers, double afr,
                       double repair_years);

/// One stretch of a disk group's scheme schedule, in fleet years since the
/// start of the run.
struct SchemePeriod {
  double begin_years = 0.0;
  double end_years = 0.0;
  raid::Scheme scheme;
};

class FleetModel {
 public:
  /// Assigns a seeded bathtub aging profile to every server disk of the rig
  /// (hw::Disk::set_aging) and records the group structure. Call once,
  /// before deriving a fault plan or starting a controller.
  FleetModel(raid::Rig& rig, const FleetParams& params);

  std::uint32_t ngroups() const { return ngroups_; }
  std::uint32_t nservers() const {
    return static_cast<std::uint32_t>(disks_.size());
  }
  std::uint32_t group_of_server(std::uint32_t s) const {
    return s / p_.group_size;
  }
  /// The group a file belongs to, keyed by its layout's placement base:
  /// base picks the file's first data/coding server, so files rotated over
  /// different bases spread their primary placement across domains.
  std::uint32_t group_of_base(std::uint32_t base) const {
    return group_of_server(base % nservers());
  }
  const std::vector<std::uint32_t>& servers_of_group(std::uint32_t g) const {
    return groups_[g];
  }

  /// Fleet years elapsed at simulated time `now` (timeline compression).
  double added_years(sim::Time now) const {
    return sim::to_seconds(now) * p_.years_per_sim_sec;
  }

  /// A group's AFR class `added_years` fleet-years into the run: the class
  /// of its worst (highest-AFR) member disk — conservative when age jitter
  /// straddles a bathtub boundary.
  hw::AfrClass class_of_group(std::uint32_t g, double added_years) const;
  /// Mean member AFR.
  double afr_of_group(std::uint32_t g, double added_years) const;
  /// Years until any member's class next changes (min over members).
  double years_to_class_change(std::uint32_t g, double added_years) const;

  const hw::AgingParams& disk(std::uint32_t server) const {
    return disks_[server];
  }

  /// Derive a deterministic fault plan for `horizon` of simulated time from
  /// the per-disk AFR curves: each `step`, every disk draws a failure with
  /// probability afr(t)·Δyears·fault_boost — a share becoming latent sector
  /// errors in one of `ntenant_files` open-loop tenant files (handles are
  /// assigned 1..n in creation order), the rest transient server crashes —
  /// and every group draws a whole-domain outage at group_outage_per_year.
  fault::FaultPlan derive_fault_plan(sim::Duration horizon, sim::Duration step,
                                     std::uint32_t ntenant_files) const;

  const FleetParams& params() const { return p_; }

 private:
  raid::Rig* rig_;
  FleetParams p_;
  std::uint32_t ngroups_ = 0;
  std::vector<hw::AgingParams> disks_;            ///< per server
  std::vector<std::vector<std::uint32_t>> groups_;  ///< member servers
};

struct FleetStats {
  std::uint64_t decision_ticks = 0;
  std::uint64_t transitions_requested = 0;  ///< migrations actually spawned
  std::uint64_t urgent_requested = 0;    ///< durability upgrades
  std::uint64_t elective_requested = 0;  ///< cost downgrades
  /// Pending transitions left waiting because max_concurrent migrations
  /// were already in flight (the budget's queueing effect, summed per tick).
  std::uint64_t deferred_concurrency = 0;
  std::uint64_t rgroup_persists = 0;  ///< rgroup persists the manager acked
  std::uint64_t backlog_peak = 0;     ///< max files-awaiting-transition seen

  template <class Fn>
  void for_each(Fn fn) const {
    fn("decision_ticks", decision_ticks);
    fn("transitions", transitions_requested);
    fn("transitions_urgent", urgent_requested);
    fn("transitions_elective", elective_requested);
    fn("deferred_concurrency", deferred_concurrency);
    fn("rgroup_persists", rgroup_persists);
    fn("backlog_peak", backlog_peak);
  }
};

class FleetController {
 public:
  FleetController(raid::Rig& rig, raid::SchemeMigrator& migrator,
                  FleetModel& model, FleetParams params);
  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;
  ~FleetController() { stop(); }

  /// Register a tenant file: assign its rgroup (= the disk group holding
  /// its placement base), track it with the migrator, and spawn the durable
  /// rgroup persist (set_redundancy). Synchronous — safe to call from a
  /// workload's on_file_created hook.
  void register_file(std::uint32_t tenant, const std::string& name,
                     const pvfs::OpenFile& f, std::uint64_t size);

  /// Install the shared transition budget on the migrator (when budgeted)
  /// and spawn the decision loop.
  void start();
  /// Detach the budget and let the loop exit at its next tick.
  void stop();

  /// Scheme the controller targets for a class.
  raid::Scheme scheme_for(hw::AfrClass c) const {
    return c == hw::AfrClass::useful_life ? p_.scheme_useful : p_.scheme_edge;
  }

  /// Files whose current scheme differs from their class target as of the
  /// last decision tick (includes in-flight migrations).
  std::uint64_t backlog() const { return backlog_; }

  /// Bytes drawn from the shared transition budget so far (0 when
  /// unbudgeted).
  std::uint64_t budget_bytes_taken() const {
    return bucket_ ? bucket_->taken() : 0;
  }

  const FleetStats& stats() const { return stats_; }

  /// The group's scheme schedule over [0, total_years], rebuilt from the
  /// controller's transition log (initial scheme = the rig default). Feed
  /// to expected_loss_events.
  std::vector<SchemePeriod> scheme_periods(std::uint32_t group,
                                           double total_years) const;

  /// Fleet gauges: per-class disk counts at sim-now, transition backlog,
  /// budget utilization, transition counters.
  void export_metrics(obs::Registry& reg) const;

 private:
  struct TrackedFile {
    std::string name;
    pvfs::OpenFile f;
    std::uint64_t size = 0;
    std::uint32_t tenant = 0;
    std::uint32_t group = 0;
  };
  struct Transition {
    double at_years = 0.0;
    std::uint32_t group = 0;
    raid::Scheme to;
  };

  sim::Task<void> decision_loop(std::shared_ptr<const bool> stopped);
  void tick();
  sim::Task<void> persist_rgroup(std::string name, std::uint8_t rgroup);

  raid::Rig* rig_;
  raid::SchemeMigrator* migrator_;
  FleetModel* model_;
  FleetParams p_;
  std::map<std::uint64_t, TrackedFile> files_;  ///< handle order = determinism
  std::vector<Transition> log_;
  FleetStats stats_;
  std::unique_ptr<sim::TokenBucket> bucket_;
  raid::Scheme initial_scheme_;
  std::uint64_t backlog_ = 0;
  /// The running decision loop's stop flag, shared with its frame so it
  /// can see the stop after this controller is gone.
  std::shared_ptr<bool> stopped_;
  bool running_ = false;
};

/// Expected data-loss events for one group over the run: numerically
/// integrate the closed-form loss rate along the group's actual AFR curve
/// under the given scheme schedule. Bit-deterministic (fixed step walk).
double expected_loss_events(const FleetModel& model, std::uint32_t group,
                            const std::vector<SchemePeriod>& periods,
                            double repair_years, double step_years = 0.005);

/// One row per disk group: members, start/end age, class trajectory, AFR.
TextTable fleet_groups_table(const FleetModel& model, double added_years);

/// Controller counters as a table (fault_storm --fleet, bench diagnostics).
TextTable fleet_stats_table(const FleetController& ctl);

}  // namespace csar::fleet
