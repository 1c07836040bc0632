#include "raid/migrate.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "raid/recovery.hpp"
#include "sim/sync.hpp"

namespace csar::raid {

void SchemeMigrator::track(std::string name, const pvfs::OpenFile& f,
                           std::uint64_t size) {
  auto [it, fresh] = files_.try_emplace(f.handle);
  Tracked& t = it->second;
  if (fresh) {
    t.name = std::move(name);
    t.f = f;
    t.size = size;
  } else {
    t.size = std::max(t.size, size);
  }
}

void SchemeMigrator::start() {
  if (running_) return;
  running_ = true;
  stopped_ = std::make_shared<bool>(false);
  if (!attached_) {
    attached_ = true;
    for (auto& fs : rig_->fs) fs->set_write_listener(this);
  }
  // Migration copies ride the rig's dedicated repair client; give it real
  // deadlines (a coexisting RebuildCoordinator installs the same defaults).
  rig_->repair_client().set_rpc_policy(p_.rpc);
  sim().spawn(supervisor(stopped_), "migrate_supervisor");
}

void SchemeMigrator::stop() {
  running_ = false;
  if (stopped_) *stopped_ = true;
  if (attached_) {
    attached_ = false;
    for (auto& fs : rig_->fs) fs->set_write_listener(nullptr);
  }
}

bool SchemeMigrator::request(std::uint64_t handle, Scheme to) {
  auto it = files_.find(handle);
  if (it == files_.end() || it->second.migrating) return false;
  if (to.kind == SchemeKind::rs &&
      to.k + to.m > it->second.f.layout.nservers) {
    return false;  // rs(k,m) needs k+m distinct servers; refuse, don't corrupt
  }
  sim().spawn(migrate_task(handle, to), "migrate_task");
  return true;
}

void SchemeMigrator::on_write_begin(const pvfs::OpenFile& f) {
  auto it = files_.find(f.handle);
  if (it == files_.end()) return;
  ++it->second.writes_in_flight;
}

void SchemeMigrator::on_write_end(const pvfs::OpenFile& f, std::uint64_t off,
                                  std::uint64_t len, bool /*ok*/) {
  auto it = files_.find(f.handle);
  if (it == files_.end()) return;
  Tracked& t = it->second;
  if (t.writes_in_flight > 0) --t.writes_in_flight;
  if (!t.migrating || len == 0) return;
  // A failed write may still have landed on a subset of servers, so it
  // dirties its range like a successful one.
  t.dirty.insert(off, off + len);
  stats_.dirty_bytes += len;
  if (off + len > t.size) t.size = off + len;
}

sim::Task<void> SchemeMigrator::supervisor(
    std::shared_ptr<const bool> stopped) {
  // The flag, not a member, is checked after each sleep: the migrator may
  // have been stopped and destroyed while this frame slept.
  while (!*stopped) {
    // Feed the adaptive engine the clients' cumulative RPC pressure
    // (timeouts + fabric resets), as a delta since the last sample.
    std::uint64_t total = 0;
    for (auto& c : rig_->clients) {
      total += c->rpc_stats().timeouts + c->rpc_stats().resets;
    }
    if (total > rpc_pressure_seen_) {
      rig_->policy().note_rpc_pressure(total - rpc_pressure_seen_);
      rpc_pressure_seen_ = total;
    }
    if (adaptive_) {
      if (auto rec = rig_->policy().recommend()) {
        auto it = files_.find(rec->handle);
        if (it == files_.end()) {
          // Untracked handle: no manager path / size to act with, and
          // recommend() would return it forever.
          rig_->policy().dismiss(rec->handle);
        } else if (!it->second.migrating) {
          sim().spawn(migrate_task(rec->handle, rec->to), "migrate_task");
        }
      }
    }
    co_await sim().sleep(p_.decision_interval);
  }
}

sim::Task<void> SchemeMigrator::migrate_task(std::uint64_t handle, Scheme to) {
  auto it = files_.find(handle);
  if (it == files_.end() || it->second.migrating) co_return;
  Tracked& t = it->second;
  RedundancyPolicy& pol = rig_->policy();
  const Scheme from = pol.scheme_of(t.f);
  if (from == to) co_return;
  t.migrating = true;
  t.dirty.clear();
  ++active_;
  ++stats_.migrations_started;
  pol.note_migration_started(handle);
  if (obs::kEnabled && rig_->tracer() != nullptr) {
    rig_->tracer()->instant(
        "migrate:start", "migrate",
        {{{"handle", handle}},
         "\"to\":\"" + std::string(scheme_name(to)) + "\""});
  }

  const std::uint32_t old_gen = pol.red_gen_of(t.f);
  const std::uint32_t new_gen = old_gen + 1;
  const sim::Time t0 = sim().now();
  pvfs::Client& repair = rig_->repair_client();

  // Sample the manager incarnation up front and fence the final persist to
  // it: if the manager crashes and replays mid-migration, the (stale)
  // persist is rejected instead of clobbering post-replay state, and
  // reconcile() resolves the flip afterwards.
  auto cur = co_await repair.open(t.name);
  if (!cur.ok()) {
    ++stats_.migrations_failed;
    stats_.ok = false;
    t.migrating = false;
    --active_;
    co_return;
  }
  const std::uint32_t fence = repair.manager_epoch();

  // Pass 0 is paced by the rate cap (or, when a fleet-level budget is
  // installed, by the one bucket every concurrent migration shares); dirty
  // re-copy passes are bounded by the foreground write rate, so pacing them
  // could only delay convergence.
  sim::TokenBucket paced(sim(), p_.rate_cap, p_.burst);
  sim::TokenBucket* pace = shared_bucket_ ? shared_bucket_ : &paced;
  Recovery rec = rig_->repair_recovery();

  std::uint32_t passes = 0;
  bool failed = false;
  while (true) {
    if (passes >= p_.max_passes || sim().now() - t0 > p_.give_up) {
      failed = true;
      break;
    }
    IntervalSet snap = std::move(t.dirty);
    t.dirty.clear();
    const bool initial = passes == 0;
    if (!initial && snap.empty()) {
      if (t.writes_in_flight == 0) {
        // Converged. No await between this check and the flip: under the
        // cooperative scheduler the pair is atomic, so no write can start
        // under the old scheme and land after the flip.
        pol.set_override(t.f, to, new_gen);
        if (obs::kEnabled && rig_->tracer() != nullptr) {
          rig_->tracer()->instant("migrate:flip", "migrate",
                                  {{"handle", handle}});
        }
        break;
      }
      co_await sim().sleep(p_.poll);
      continue;
    }
    ++passes;
    ++stats_.passes;
    if (!initial) ++stats_.recopy_passes;
    auto r = co_await rec.build_redundancy(t.f, to, new_gen, t.size,
                                           initial ? nullptr : &snap,
                                           initial ? pace : nullptr);
    if (!r.ok()) {
      failed = true;
      break;
    }
  }

  if (failed) {
    // The file never left its old scheme; generation N+1 is garbage.
    // Best-effort cleanup, ignoring per-server errors (drop is idempotent
    // and a dead server's copy died with its disk).
    for (std::uint32_t s = 0; s < repair.nservers(); ++s) {
      pvfs::Request r;
      r.op = pvfs::Op::drop_red;
      r.handle = handle;
      r.red_gen = new_gen;
      co_await repair.rpc(s, std::move(r), p_.rpc);
    }
    ++stats_.migrations_failed;
    stats_.ok = false;
    t.migrating = false;
    --active_;
    co_return;
  }

  // Persist the transition at the manager so later opens carry the new
  // scheme tag and generation (the in-memory override already covers every
  // OpenFile copy taken before or during the migration).
  auto ns = co_await repair.set_redundancy(t.name, scheme_tag(to), new_gen,
                                           pvfs::kRgroupUnset, fence);
  if (ns.ok()) {
    t.f = *ns;
  } else {
    // The flip stands (generation N+1 is complete and live); only the
    // durable tag is stale. Count the failure and keep the old generation
    // so nothing is lost either way; reconcile() re-persists after the
    // manager replays.
    if (ns.error().code == Errc::stale_epoch) ++stats_.stale_persists;
    ++stats_.migrations_failed;
    stats_.ok = false;
    t.migrating = false;
    --active_;
    co_return;
  }

  // Old-generation GC after a grace period for straggler redundancy reads
  // issued just before the flip. RAID0 sources have no redundancy to drop.
  co_await sim().sleep(p_.drop_grace);
  if (from != Scheme::raid0) {
    for (std::uint32_t s = 0; s < repair.nservers(); ++s) {
      pvfs::Request r;
      r.op = pvfs::Op::drop_red;
      r.handle = handle;
      r.red_gen = old_gen;
      co_await repair.rpc(s, std::move(r), p_.rpc);
    }
    ++stats_.old_gens_dropped;
  }

  ++stats_.migrations_completed;
  if (obs::kEnabled && rig_->tracer() != nullptr) {
    rig_->tracer()->instant("migrate:complete", "migrate",
                            {{"handle", handle}});
  }
  t.migrating = false;
  --active_;
}

sim::Task<void> SchemeMigrator::reconcile() {
  RedundancyPolicy& pol = rig_->policy();
  pvfs::Client& repair = rig_->repair_client();
  // Snapshot the handle set first: the map may gain entries while we await.
  std::vector<std::uint64_t> handles;
  for (const auto& [h, t] : files_) handles.push_back(h);

  for (std::uint64_t handle : handles) {
    auto it = files_.find(handle);
    if (it == files_.end() || it->second.migrating) continue;
    Tracked& t = it->second;

    auto mgr = co_await repair.open(t.name);
    // Re-check after every await: a migration may have started meanwhile,
    // and reconciling under it could GC a generation it is building.
    if (t.migrating) continue;
    if (!mgr.ok()) continue;  // removed (or manager still down): nothing to do

    const Scheme live_scheme = pol.scheme_of(t.f);
    const std::uint32_t live_gen = pol.red_gen_of(t.f);
    const std::uint32_t mgr_gen = mgr->red_gen;

    if (live_gen > mgr_gen) {
      // Crash landed between flip and persist: generation `live_gen` is
      // complete and live but the durable tag still says `mgr_gen`. The
      // flip stands — re-persist under the current incarnation, then GC the
      // superseded generation the completed migration never got to drop.
      auto ns = co_await repair.set_redundancy(
          t.name, scheme_tag(live_scheme), live_gen, pvfs::kRgroupUnset,
          repair.manager_epoch());
      if (t.migrating) continue;
      if (!ns.ok()) continue;  // manager crashed again; a later pass retries
      t.f = *ns;
      for (std::uint32_t s = 0; s < repair.nservers(); ++s) {
        pvfs::Request r;
        r.op = pvfs::Op::drop_red;
        r.handle = handle;
        r.red_gen = mgr_gen;
        co_await repair.rpc(s, std::move(r), p_.rpc);
        if (t.migrating) break;
      }
      ++stats_.reconcile_resumed;
      if (obs::kEnabled && rig_->tracer() != nullptr) {
        rig_->tracer()->instant("migrate:reconcile_resume", "migrate",
                                {{"handle", handle}});
      }
      continue;
    }

    if (mgr_gen > live_gen) {
      // The manager's durable state is ahead of this process (its replay
      // carries a persisted flip our in-memory policy never saw). Adopt it.
      if (mgr->scheme != pvfs::kSchemeUnset) {
        pol.set_override(t.f, scheme_from_tag(mgr->scheme), mgr_gen);
      }
      t.f = *mgr;
      ++stats_.reconcile_adopted;
      if (obs::kEnabled && rig_->tracer() != nullptr) {
        rig_->tracer()->instant("migrate:reconcile_adopt", "migrate",
                                {{"handle", handle}});
      }
      continue;
    }

    // Generations agree: sweep partial next-generation redundancy left by a
    // copy pass the crash aborted (drop_red of an absent generation is an
    // idempotent no-op on every server).
    for (std::uint32_t s = 0; s < repair.nservers(); ++s) {
      pvfs::Request r;
      r.op = pvfs::Op::drop_red;
      r.handle = handle;
      r.red_gen = live_gen + 1;
      co_await repair.rpc(s, std::move(r), p_.rpc);
      if (t.migrating) break;  // that generation is being built again — stop
    }
  }
}

}  // namespace csar::raid
