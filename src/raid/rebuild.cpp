#include "raid/rebuild.hpp"

#include <algorithm>
#include <utility>

#include "pvfs/io_server.hpp"
#include "sim/sync.hpp"

namespace csar::raid {

RebuildCoordinator::RebuildCoordinator(Rig& rig, HealthMonitor& mon,
                                       RebuildParams params)
    : rig_(&rig), mon_(&mon), p_(params), outages_(rig.p.nservers) {
  // Materialize the repair client now, while the deployment is still being
  // assembled (keeps node-id assignment independent of when the first
  // rebuild happens to run).
  rig.repair_client().set_rpc_policy(p_.rpc);
}

RebuildCoordinator::~RebuildCoordinator() { stop(); }

void RebuildCoordinator::track(const pvfs::OpenFile& f, std::uint64_t size) {
  for (auto& t : files_) {
    if (t.f.handle == f.handle) {
      t.size = std::max(t.size, size);
      return;
    }
  }
  files_.push_back({f, size});
}

void RebuildCoordinator::start() {
  if (running_) return;
  running_ = true;
  ++gen_;
  if (!attached_) {
    attached_ = true;
    for (auto& fs : rig_->fs) fs->set_write_observer(this);
    for (auto& srv : rig_->servers) srv->fence_restarts(true);
    listener_id_ =
        mon_->add_listener([this](std::uint32_t s, bool alive, sim::Time at) {
          if (alive) return;
          Outage& o = outages_[s];
          if (o.phase == Phase::healthy) {
            o.phase = Phase::degraded;
            o.down_since = at;
            if (obs::kEnabled && rig_->tracer() != nullptr) {
              rig_->tracer()->instant("rebuild:degraded", "rebuild",
                                      {{"server", s}});
            }
          }
          if (stats_.first_down_at == 0) stats_.first_down_at = at;
        });
  }
  sim().spawn(supervisor(gen_), "rebuild_supervisor");
}

void RebuildCoordinator::stop() {
  running_ = false;
  ++gen_;
  if (attached_) {
    attached_ = false;
    for (auto& fs : rig_->fs) fs->set_write_observer(nullptr);
    for (auto& srv : rig_->servers) srv->fence_restarts(false);
    mon_->remove_listener(listener_id_);
  }
}

bool RebuildCoordinator::idle() const {
  for (std::uint32_t s = 0; s < outages_.size(); ++s) {
    auto& srv = rig_->server(s);
    if (srv.crashed()) continue;  // nothing to coordinate until it restarts
    if (srv.fenced()) return false;
    if (outages_[s].phase != Phase::healthy) return false;
  }
  return true;
}

void RebuildCoordinator::on_degraded_write_begin(std::uint32_t failed) {
  ++outages_[failed].writes_in_flight;
  ++stats_.degraded_writes_seen;
}

void RebuildCoordinator::on_degraded_write_end(const pvfs::OpenFile& f,
                                               std::uint64_t off,
                                               std::uint64_t len,
                                               std::uint32_t failed) {
  // Recorded unconditionally (even while the phase is still `healthy`): a
  // reactive degraded write can land before the monitor's transition, and
  // the region is stale on the target either way.
  Outage& o = outages_[failed];
  --o.writes_in_flight;
  o.stale[f.handle].insert(off, off + len);
  stats_.dirty_bytes += len;
}

bool RebuildCoordinator::stale_empty(const Outage& o) const {
  for (const auto& [handle, set] : o.stale) {
    (void)handle;
    if (!set.empty()) return false;
  }
  return true;
}

sim::Task<void> RebuildCoordinator::supervisor(std::uint64_t my_gen) {
  while (running_ && gen_ == my_gen) {
    for (std::uint32_t s = 0; s < outages_.size() && gen_ == my_gen; ++s) {
      Outage& o = outages_[s];
      if (o.phase == Phase::rebuilding) continue;
      if (sim().now() < o.next_attempt) continue;
      auto& srv = rig_->server(s);
      if (srv.crashed()) continue;  // still down: clients stay degraded
      if (srv.fenced()) {
        co_await handle_rejoin(s, /*fenced_rejoin=*/true);
      } else if ((o.phase == Phase::degraded || !stale_empty(o)) &&
                 mon_->is_alive(s)) {
        // Transient unreachability: the server answers probes again without
        // having restarted, but any degraded writes routed around it exist
        // only in the redundancy — resync those regions in place.
        co_await handle_rejoin(s, /*fenced_rejoin=*/false);
      }
    }
    co_await sim().sleep(p_.poll);
  }
}

sim::Task<void> RebuildCoordinator::handle_rejoin(std::uint32_t s,
                                                  bool fenced_rejoin) {
  Outage& o = outages_[s];
  auto& srv = rig_->server(s);

  // Schemes are per-file now: only when *no* tracked file carries any
  // redundancy is there nothing to rebuild from. A mixed population takes
  // the normal path; Recovery::rebuild_server no-ops on its RAID0 files.
  bool any_redundancy = false;
  for (const auto& t : files_) {
    if (rig_->policy().scheme_of(t.f) != Scheme::raid0) {
      any_redundancy = true;
      break;
    }
  }
  if (!any_redundancy && !files_.empty()) {
    // No redundancy exists to rebuild from; lift the fence as-is.
    if (srv.fenced()) srv.admit();
    o.stale.clear();
    o.phase = Phase::healthy;
    co_return;
  }

  const bool wiped = fenced_rejoin && srv.last_restart_wiped();
  if (fenced_rejoin) merge_crash_losses(s);

  std::map<std::uint64_t, IntervalSet> work;
  if (wiped) {
    // Pass 0 below copies everything ever written, and reconstruction reads
    // the post-write redundancy — so regions dirtied before this snapshot
    // come out fresh anyway. Only writes completing after it must re-copy.
    o.stale.clear();
  } else {
    work = std::exchange(o.stale, {});
    bool any = false;
    for (const auto& [handle, set] : work) {
      (void)handle;
      if (!set.empty()) any = true;
    }
    if (!any && o.writes_in_flight == 0 && !fenced_rejoin) {
      // A probe flap with nothing recorded: nothing is stale.
      o.phase = Phase::healthy;
      co_return;
    }
  }

  o.phase = Phase::rebuilding;
  ++stats_.rebuilds_started;
  if (wiped) {
    ++stats_.full_rebuilds;
  } else {
    ++stats_.delta_rebuilds;
  }
  if (obs::kEnabled && rig_->tracer() != nullptr) {
    rig_->tracer()->instant(
        "rebuild:start", "rebuild",
        {{{"server", s}}, wiped ? "\"full\":true" : "\"full\":false"});
  }
  const sim::Time t0 = sim().now();
  // Pass 0 is paced by the rate cap; dirty re-copy passes only tally their
  // bytes — their traffic is bounded by the foreground write rate, so
  // pacing them could only delay convergence, never protect bandwidth.
  sim::TokenBucket paced(sim(), p_.rate_cap, p_.burst);
  sim::TokenBucket tally(sim(), 0.0, 1);
  Recovery rec = rig_->repair_recovery();

  for (std::uint32_t pass = 0;; ++pass) {
    if (!running_ || pass >= p_.max_passes ||
        sim().now() - t0 > p_.give_up) {
      break;
    }
    RebuildOptions opt;
    opt.throttle = pass == 0 ? &paced : &tally;
    opt.restore_all_overflow = o.overflow_suspect;
    // Other servers still out while this one rebuilds: coded files decode
    // around them while k fragments remain (rs(k,m) with m >= 2); single
    // redundancy reads through them.
    // Recomputed per pass — a concurrent outage may heal or appear between
    // passes.
    for (std::uint32_t s2 = 0; s2 < outages_.size(); ++s2) {
      if (s2 == s) continue;
      auto& srv2 = rig_->server(s2);
      if (srv2.crashed() || srv2.fenced() || !mon_->is_alive(s2)) {
        opt.also_down.push_back(s2);
      }
    }
    // One repair stream per pass (Recovery::repair): a full pass covers
    // every file, a delta pass the files with stale regions.
    const bool full = wiped && pass == 0;
    std::vector<RebuildTarget> targets;
    for (const auto& t : files_) {
      const IntervalSet* delta = nullptr;
      if (!full) {
        auto it = work.find(t.f.handle);
        if (it == work.end() || it->second.empty()) continue;
        delta = &it->second;
      }
      targets.push_back({t.f, t.size, delta});
    }
    auto rb = co_await rec.rebuild_server(std::move(targets), s, std::move(opt));
    if (!rb.ok()) break;
    ++stats_.passes;
    if (pass > 0) ++stats_.recopy_passes;

    // Convergence check, admit and monitor flip with no await in between:
    // atomic under the cooperative scheduler, so no degraded write can
    // start (or land) between the check and the fence lift.
    if (o.writes_in_flight == 0 && stale_empty(o)) {
      if (srv.fenced()) {
        srv.admit();
        // Flip the monitor now rather than at its next probe round: the
        // detection lag would keep clients degrading writes around an
        // already-trustworthy server, re-staling what was just rebuilt.
        mon_->mark_alive(s);
      }
      o.phase = Phase::healthy;
      o.next_attempt = 0;
      o.overflow_suspect = false;
      ++stats_.rebuilds_completed;
      if (obs::kEnabled && rig_->tracer() != nullptr) {
        rig_->tracer()->instant("rebuild:admit", "rebuild",
                                {{"server", s}});
      }
      if (stats_.first_admit_at == 0) stats_.first_admit_at = sim().now();
      stats_.last_admit_at = sim().now();
      stats_.last_rebuild_time = sim().now() - t0;
      stats_.bytes_rebuilt += paced.taken() + tally.taken();
      co_return;
    }
    // Foreground writes raced the pass: wait for the in-flight ones to
    // land, then re-copy exactly the regions they dirtied.
    while (running_ && o.writes_in_flight > 0 && stale_empty(o) &&
           sim().now() - t0 <= p_.give_up) {
      co_await sim().sleep(p_.poll);
    }
    work = std::exchange(o.stale, {});
  }

  // Attempt failed (error, pass budget, or time budget). The fence stays up
  // — a fenced server keeps failing probes, so clients stay degraded and no
  // stale byte is served. Merge the unfinished work back and retry after a
  // backoff.
  stats_.ok = false;
  ++stats_.rebuilds_failed;
  if (obs::kEnabled && rig_->tracer() != nullptr) {
    rig_->tracer()->instant("rebuild:failed", "rebuild", {{"server", s}});
  }
  stats_.bytes_rebuilt += paced.taken() + tally.taken();
  for (const auto& [handle, set] : work) {
    for (const auto& iv : set.to_vector()) {
      o.stale[handle].insert(iv.start, iv.end);
    }
  }
  o.phase = Phase::degraded;
  o.next_attempt = sim().now() + p_.retry_backoff;
}

void RebuildCoordinator::merge_crash_losses(std::uint32_t s) {
  auto losses = rig_->server(s).fs().take_crash_losses();
  if (losses.empty()) return;
  Outage& o = outages_[s];
  for (const auto& t : files_) {
    const pvfs::StripeLayout& lay = t.f.layout;
    const std::uint64_t su = lay.su();
    const Scheme sch = rig_->policy().scheme_of(t.f);
    const std::uint32_t gen = rig_->policy().red_gen_of(t.f);

    // Data file: each lost local row maps straight back to a global span.
    // (Under fixed parity placement the dedicated parity server holds no
    // data file, so the inverse mapping does not apply to it.)
    if (auto it = losses.find(pvfs::IoServer::data_name(t.f.handle));
        it != losses.end() &&
        !(lay.placement == pvfs::ParityPlacement::fixed &&
          s >= lay.data_servers())) {
      for (const auto& iv : it->second.to_vector()) {
        stats_.lost_dirty_bytes += iv.length();
        for (std::uint64_t lo = iv.start; lo < iv.end;) {
          const std::uint64_t row_end =
              std::min(iv.end, (lo / su + 1) * su);
          const std::uint64_t g0 = lay.global_off(s, lo);
          o.stale[t.f.handle].insert(g0, g0 + (row_end - lo));
          lo = row_end;
        }
      }
    }

    // Redundancy file: coding slots map back through the placement's
    // inverse. A lost coding byte of a k = 1 group (RAID1's mirror) is a
    // copy of one data byte and taints exactly that byte; in a wider group
    // it taints the group's whole span. Only the file's *current*
    // generation matters — losses in a superseded generation are garbage
    // awaiting drop_red, never read again.
    if (auto it = losses.find(pvfs::IoServer::red_name(t.f.handle, gen));
        it != losses.end()) {
      const CodeSpec spec = sch.code(lay);
      for (const auto& iv : it->second.to_vector()) {
        stats_.lost_dirty_bytes += iv.length();
        if (!uses_group_coding(sch)) continue;
        for (std::uint64_t q = iv.start / su; q * su < iv.end; ++q) {
          const auto at = lay.coding_at(s, q, spec.k, spec.m);
          if (!at) continue;
          const std::uint64_t gs = lay.group_start(at->first, spec.k);
          if (spec.k == 1) {
            // Column c of the slot is byte c of the group's one unit.
            o.stale[t.f.handle].insert(
                gs + std::max(iv.start, q * su) - q * su,
                gs + std::min(iv.end, (q + 1) * su) - q * su);
          } else if (gs < t.size) {
            o.stale[t.f.handle].insert(
                gs, std::min(lay.group_end(at->first, spec.k), t.size));
          }
        }
      }
    }

    // Overflow file: entry boundaries are server-local allocation detail,
    // so a partial loss taints the whole table — restore all of it.
    if (auto it = losses.find(pvfs::IoServer::ovfl_name(t.f.handle));
        it != losses.end()) {
      for (const auto& iv : it->second.to_vector()) {
        stats_.lost_dirty_bytes += iv.length();
      }
      o.overflow_suspect = true;
    }
  }
}

}  // namespace csar::raid
