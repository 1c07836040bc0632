// SchemeMigrator: online per-file scheme transitions, flip-last.
//
// A migration rebuilds the *target* scheme's base redundancy into a fresh
// redundancy generation while clients keep writing under the old scheme —
// no quiesce, no locks. The protocol mirrors the RebuildCoordinator's
// write-safe rebuild loop:
//
//  1. Copy pass: Recovery::build_redundancy reads the raw data files and
//     writes generation N+1 mirrors/parity, paced by an optional token
//     bucket. The old generation and the overflow overlay stay
//     authoritative throughout.
//  2. Converge: a CsarFs::WriteListener records every write's byte range in
//     a per-handle dirty IntervalSet; after each pass only the dirtied
//     regions are re-copied (unthrottled — that traffic is bounded by the
//     foreground write rate). The loop exits when a pass finds nothing
//     dirty and no write is in flight.
//  3. Flip: RedundancyPolicy::set_override switches the file to the target
//     scheme at generation N+1. The convergence check and the flip run with
//     no await in between, which under the cooperative single-threaded
//     scheduler makes them atomic: no write can start under the old scheme
//     after the check and land after the flip.
//  4. Persist + GC: the new scheme tag and generation are recorded at the
//     manager (Client::set_redundancy) so later opens see them, then — after a
//     grace period for straggler redundancy reads — the old generation is
//     dropped on every server (Op::drop_red, idempotent).
//
// Migrating away from Hybrid never touches the overflow files: the overlay
// stays live over the new base redundancy (see RedundancyPolicy::
// overflow_possible), so no client-visible byte can change during or after
// the transition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/interval_set.hpp"
#include "obs/metrics.hpp"
#include "raid/csar_fs.hpp"
#include "raid/rig.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::raid {

struct MigrateParams {
  /// Token-bucket cap on first-pass copy traffic in bytes/sec (0 =
  /// uncapped). Dirty re-copy passes are exempt, as in the rebuild path.
  double rate_cap = 0.0;
  std::uint64_t burst = 1 << 20;
  /// Convergence-wait re-sample cadence and adaptive decision cadence.
  sim::Duration poll = sim::ms(1);
  sim::Duration decision_interval = sim::ms(250);
  /// Bound on copy passes per migration (initial + dirty re-copies).
  std::uint32_t max_passes = 64;
  /// Per-migration time budget; exceeded ⇒ the attempt fails and the file
  /// stays on its old scheme (generation N+1 is dropped).
  sim::Duration give_up = sim::sec(120);
  /// Delay between the flip and dropping the old generation, covering
  /// redundancy reads issued just before the flip.
  sim::Duration drop_grace = sim::ms(50);
  /// RPC policy for migration traffic (copies run on the rig's dedicated
  /// repair client; see RebuildParams::rpc for why these are generous).
  pvfs::RpcPolicy rpc{sim::sec(30), 2, sim::ms(50), 0.5};
};

struct MigrateStats {
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_failed = 0;
  std::uint64_t passes = 0;         ///< copy passes run (initial + re-copy)
  std::uint64_t recopy_passes = 0;  ///< passes re-copying dirtied regions
  std::uint64_t dirty_bytes = 0;    ///< concurrent-write bytes tracked
  std::uint64_t old_gens_dropped = 0;  ///< drop_red fan-outs completed
  std::uint64_t stale_persists = 0;    ///< persists fenced off post-crash
  std::uint64_t reconcile_resumed = 0;  ///< flips re-persisted + GC'd
  std::uint64_t reconcile_adopted = 0;  ///< manager state adopted locally
  bool ok = true;  ///< false once any migration attempt failed

  template <class Fn>
  void for_each(Fn fn) const {
    fn("migrations_started", migrations_started);
    fn("migrations_completed", migrations_completed);
    fn("migrations_failed", migrations_failed);
    fn("passes", passes);
    fn("recopy_passes", recopy_passes);
    fn("dirty_bytes", dirty_bytes);
    fn("old_gens_dropped", old_gens_dropped);
    fn("stale_persists", stale_persists);
    fn("reconcile_resumed", reconcile_resumed);
    fn("reconcile_adopted", reconcile_adopted);
    fn("ok", std::uint64_t{ok});
  }
};

class SchemeMigrator final : public CsarFs::WriteListener {
 public:
  SchemeMigrator(Rig& rig, MigrateParams params = {})
      : rig_(&rig), p_(params) {}
  ~SchemeMigrator() override { stop(); }
  SchemeMigrator(const SchemeMigrator&) = delete;
  SchemeMigrator& operator=(const SchemeMigrator&) = delete;

  /// Register a file the migrator may transition. The manager path `name`
  /// is needed to persist the new scheme tag; `size` bounds copy scans.
  /// Re-tracking a handle raises the size.
  void track(std::string name, const pvfs::OpenFile& f, std::uint64_t size);

  /// Attach write listeners on every CsarFs of the rig and spawn the
  /// supervisor (RPC-pressure sampling + adaptive decisions).
  void start();

  /// Detach and let the supervisor exit at its next tick. In-flight
  /// migrations run to completion.
  void stop();

  /// Act on RedundancyPolicy::recommend() from the supervisor loop.
  void enable_adaptive() { adaptive_ = true; }

  /// Manually request a migration of a tracked handle (spawned async).
  /// Returns false — and spawns nothing — if the handle is unknown, already
  /// migrating, or the target scheme does not fit the deployment; true means
  /// the migration task was spawned (callers budgeting transitions can count
  /// on exactly one started/failed/completed event following).
  bool request(std::uint64_t handle, Scheme to);

  /// True when no migration is running.
  bool idle() const { return active_ == 0; }

  /// Number of migrations currently in flight.
  std::uint32_t active() const { return active_; }

  /// Fleet-level transition-IO budget: when set, initial copy passes of
  /// *every* migration draw from this one bucket (shared across concurrent
  /// migrations) instead of a per-migration bucket built from rate_cap.
  /// Not owned; clear with nullptr. Dirty re-copy passes stay exempt.
  void set_shared_bucket(sim::TokenBucket* b) { shared_bucket_ = b; }
  sim::TokenBucket* shared_bucket() const { return shared_bucket_; }

  /// Post-replay reconciliation: cross-check the manager's durable scheme
  /// tag/generation for every tracked file against the live (in-memory
  /// policy + on-server redundancy) state, and repair whichever side is
  /// behind. Call after a manager restart:
  ///  - live generation ahead (crash landed between flip and persist): the
  ///    flip stands — re-persist it under the current incarnation, then GC
  ///    the superseded generation (resume; `reconcile_resumed`).
  ///  - manager generation ahead (this process lost the flip): adopt the
  ///    durable tag via a policy override (`reconcile_adopted`).
  ///  - equal: sweep partial next-generation redundancy a crashed copy pass
  ///    may have left on the servers (idempotent drop_red).
  /// Files with a migration currently in flight are skipped.
  sim::Task<void> reconcile();

  const MigrateStats& stats() const { return stats_; }
  /// One counter per MigrateStats field, `migrate.<field>`.
  void export_metrics(obs::Registry& reg) const { reg.put("migrate.", stats_); }
  const MigrateParams& params() const { return p_; }

  // CsarFs::WriteListener — synchronous, from the writing coroutines.
  void on_write_begin(const pvfs::OpenFile& f) override;
  void on_write_end(const pvfs::OpenFile& f, std::uint64_t off,
                    std::uint64_t len, bool ok) override;

 private:
  struct Tracked {
    std::string name;
    pvfs::OpenFile f;
    std::uint64_t size = 0;
    bool migrating = false;
    std::uint32_t writes_in_flight = 0;
    /// Regions written since the migration's last copy pass snapshot
    /// (global file offsets). Only populated while migrating.
    IntervalSet dirty;
  };

  sim::Simulation& sim() const { return rig_->sim; }

  sim::Task<void> supervisor(std::shared_ptr<const bool> stopped);
  sim::Task<void> migrate_task(std::uint64_t handle, Scheme to);

  Rig* rig_;
  MigrateParams p_;
  std::map<std::uint64_t, Tracked> files_;
  MigrateStats stats_;
  /// The running supervisor's stop flag, shared with its frame so it can
  /// see the stop after this migrator is gone.
  std::shared_ptr<bool> stopped_;
  std::uint32_t active_ = 0;
  std::uint64_t rpc_pressure_seen_ = 0;  ///< last sampled timeouts+resets
  sim::TokenBucket* shared_bucket_ = nullptr;  ///< see set_shared_bucket
  bool running_ = false;
  bool attached_ = false;
  bool adaptive_ = false;
};

}  // namespace csar::raid
