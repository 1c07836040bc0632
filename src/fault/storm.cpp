#include "fault/storm.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "raid/migrate.hpp"
#include "raid/rebuild.hpp"
#include "raid/scrub.hpp"

namespace csar::fault {

namespace {

/// Reference copy of a file, updated on every acknowledged write.
///
/// Bytes covered by a *failed* write are tainted — indeterminate until an
/// acknowledged write covers them again. A torn write may have landed on
/// some servers and not others, and under a parity scheme it can leave the
/// whole group's parity unsynchronized (the RAID5 write hole), so the
/// workload taints the full group span. Verification skips tainted bytes:
/// the contract is about acknowledged data only.
class Shadow {
 public:
  explicit Shadow(std::uint64_t size) : bytes_(size, std::byte{0}) {}

  void write(std::uint64_t off, const Buffer& data) {
    auto src = data.bytes();
    std::memcpy(bytes_.data() + off, src.data(), src.size());
    if (taint_count_ != 0) {
      const std::uint64_t end = off + data.size();
      for (std::uint64_t i = off; i < end; ++i) {
        taint_count_ -= tainted_[i];
        tainted_[i] = 0;
      }
    }
  }

  void taint(std::uint64_t off, std::uint64_t len) {
    if (tainted_.empty()) tainted_.assign(bytes_.size(), 0);
    const std::uint64_t end = std::min<std::uint64_t>(off + len,
                                                      tainted_.size());
    for (std::uint64_t i = off; i < end; ++i) {
      taint_count_ += 1u - tainted_[i];
      tainted_[i] = 1;
    }
  }

  std::uint64_t tainted_bytes() const { return taint_count_; }

  bool matches(std::uint64_t off, const Buffer& got) const {
    auto b = got.bytes();
    // Fast path: no tainted bytes anywhere (the common case outside fault
    // windows) — one memcmp instead of a per-byte masked walk.
    if (taint_count_ == 0) {
      return std::memcmp(bytes_.data() + off, b.data(), b.size()) == 0;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (tainted_[off + i]) continue;
      if (bytes_[off + i] != b[i]) return false;
    }
    return true;
  }

 private:
  std::vector<std::byte> bytes_;
  /// 0/1 per byte; allocated lazily on the first taint so clean runs pay
  /// nothing. taint_count_ is the number of 1s (kept exact so the fast
  /// memcmp path in matches() is safe whenever it is zero).
  std::vector<std::uint8_t> tainted_;
  std::uint64_t taint_count_ = 0;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fingerprint(const StormMetrics& m) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& line : m.trace) {
    for (char c : line) h = fnv1a(h, static_cast<unsigned char>(c));
  }
  for (std::uint64_t v :
       {m.ops_attempted, m.ops_ok, m.ops_failed, m.reads, m.writes,
        m.verify_mismatches, m.tainted_bytes, m.rpc.sent, m.rpc.retries,
        m.rpc.timeouts, m.rpc.resets, m.failover.degraded_reads,
        m.failover.degraded_writes, m.failover.reactive,
        m.scrub_media_errors, m.scrub_repaired,
        m.rebuild.rebuilds_completed, m.rebuild.delta_rebuilds,
        m.rebuild.passes, m.rebuild.recopy_passes, m.rebuild.bytes_rebuilt,
        m.rebuild.dirty_bytes, m.migrate.migrations_started,
        m.migrate.migrations_completed, m.migrate.migrations_failed,
        m.migrate.recopy_passes, m.migrate.dirty_bytes, m.manager.crashes,
        m.manager.replays, m.manager.replayed_records, m.manager.dedup_hits,
        m.manager.dropped_replies, m.meta_mismatches,
        static_cast<std::uint64_t>(m.detection_latency),
        static_cast<std::uint64_t>(m.mttr), m.events_executed,
        static_cast<std::uint64_t>(m.finished_at), m.faults.crashes,
        m.faults.restarts, m.faults.mgr_crashes, m.faults.mgr_restarts,
        m.faults.msgs_dropped, m.faults.msgs_reset,
        m.faults.msgs_delayed, m.faults.media_planted,
        m.faults.slow_periods}) {
    h = fnv1a(h, v);
  }
  return h;
}

/// Fire a scheduled manual migration once `at` arrives.
sim::Task<void> trigger_migration(sim::Simulation& sim,
                                  raid::SchemeMigrator& mig,
                                  std::uint64_t handle, raid::Scheme to,
                                  sim::Time at) {
  if (at > sim.now()) co_await sim.sleep_until(at);
  mig.request(handle, to);
}

/// The workload: preload every file, run the op mix *straight through* any
/// crash, detection, rebuild, migration or admit (no quiescing — write-
/// safety is the RebuildCoordinator's / SchemeMigrator's job), then wait
/// for both to settle, scrub, and sweep-verify every byte against the
/// shadows.
sim::Task<void> driver(const StormParams& p, raid::Rig& rig,
                       raid::HealthMonitor& mon, FaultInjector& inj,
                       raid::RebuildCoordinator* coord,
                       raid::SchemeMigrator* mig, obs::Sampler* sampler,
                       std::vector<Shadow>& shadows, StormMetrics& m) {
  auto& sim = rig.sim;
  auto& fs = rig.client_fs();
  Rng wl(p.workload_seed);
  const std::uint32_t nfiles =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(shadows.size()));

  // Preload: populate every file (and its redundancy) before the storm.
  std::vector<pvfs::OpenFile> files;
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    const std::string name = "storm" + std::to_string(i);
    auto f = co_await fs.create(name, rig.layout(p.stripe_unit));
    if (!f.ok()) co_return;
    files.push_back(*f);
    if (coord) coord->track(*f, p.file_size);
    if (mig) mig->track(name, *f, p.file_size);
  }
  const std::uint64_t chunk = files[0].layout.stripe_width();
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    for (std::uint64_t off = 0; off < p.file_size; off += chunk) {
      const std::uint64_t len =
          std::min<std::uint64_t>(chunk, p.file_size - off);
      Buffer data = Buffer::pattern(len, wl.next());
      auto wr = co_await fs.write(files[i], off, data.slice(0, len));
      if (wr.ok()) shadows[i].write(off, data);
    }
  }

  // Unleash the storm.
  mon.start();
  if (coord) coord->start();
  if (mig) {
    if (p.adaptive) mig->enable_adaptive();
    mig->start();
    if (p.migrate_file >= 0 &&
        static_cast<std::uint32_t>(p.migrate_file) < nfiles) {
      sim.spawn(trigger_migration(
          sim, *mig, files[static_cast<std::uint32_t>(p.migrate_file)].handle,
          p.migrate_to, p.migrate_at));
    }
  }
  inj.start();

  const std::uint64_t span = p.file_size > p.io_size
                                 ? p.file_size - p.io_size
                                 : 0;
  for (std::uint64_t op = 0; op < p.ops; ++op) {
    const std::uint32_t fi = nfiles == 1 ? 0 : wl.below(nfiles);
    const std::uint64_t off = span == 0 ? 0 : wl.below(span + 1);
    const bool is_write = wl.below(2) == 0;
    ++m.ops_attempted;
    if (is_write) {
      ++m.writes;
      Buffer data = Buffer::pattern(p.io_size, wl.next());
      auto wr = co_await fs.write(files[fi], off, data.slice(0, p.io_size));
      if (wr.ok()) {
        ++m.ops_ok;
        shadows[fi].write(off, data);
      } else {
        ++m.ops_failed;
        // Torn write: parts may have landed, and under a parity scheme the
        // groups it touched may be left with stale parity (write hole) —
        // a later degraded read anywhere in those groups is suspect.
        std::uint64_t lo = off;
        std::uint64_t hi = off + p.io_size;
        // The write-hole span depends on the file's *current* scheme (a
        // migration may have landed mid-storm); striped-only writes and
        // k = 1 codes (RAID1), whose coding is a copy of the written bytes
        // alone, tear at most their own range.
        const raid::Scheme sch = rig.policy().scheme_of(files[fi]);
        const std::uint32_t k = sch.code(files[fi].layout).k;
        if (raid::uses_group_coding(sch) && k > 1) {
          // A coded group is k units wide (the full stripe for parity). A
          // torn write can desynchronize the whole group.
          const std::uint64_t w = files[fi].layout.group_width(k);
          lo = lo / w * w;
          hi = std::min<std::uint64_t>(p.file_size, (hi + w - 1) / w * w);
        }
        shadows[fi].taint(lo, hi - lo);
      }
    } else {
      ++m.reads;
      auto rd = co_await fs.read(files[fi], off, p.io_size);
      if (rd.ok()) {
        ++m.ops_ok;
        if (!shadows[fi].matches(off, *rd)) ++m.verify_mismatches;
      } else {
        ++m.ops_failed;
      }
    }
    co_await sim.sleep(p.op_gap);
  }

  // Let every scheduled restart happen, then wait (bounded) for the
  // coordinator to converge and admit whoever it can. A mis-sized plan
  // degrades the metrics, not the run.
  sim::Time last_restart = 0;
  for (const auto& c : p.plan.crashes) {
    if (c.restart_at && *c.restart_at > last_restart) {
      last_restart = *c.restart_at;
    }
  }
  for (const auto& c : p.plan.mgr_crashes) {
    if (c.restart_at && *c.restart_at > last_restart) {
      last_restart = *c.restart_at;
    }
  }
  if (last_restart > sim.now()) co_await sim.sleep_until(last_restart);
  if (coord) {
    const sim::Time give_up = sim.now() + sim::sec(120);
    while (!coord->idle() && sim.now() < give_up) {
      co_await sim.sleep(sim::ms(5));
    }
  }
  if (mig) {
    const sim::Time give_up = sim.now() + sim::sec(120);
    while (!mig->idle() && sim.now() < give_up) {
      co_await sim.sleep(sim::ms(5));
    }
    // After a manager replay, cross-check every tracked file's durable
    // scheme tag against the live state and repair whichever side is
    // behind (resume a flip the crash stranded, adopt a persisted one).
    if (!p.plan.mgr_crashes.empty()) co_await mig->reconcile();
  }

  // With every server healthy again, clear latent sector errors the plan
  // planted; the scrubber rebuilds unreadable units from the redundancy
  // (routing each file through its own — possibly migrated — scheme).
  if (p.scrub_after && !mon.first_failed()) {
    raid::Scrubber scrub(rig.client(), rig.policy());
    for (const auto& f : files) {
      auto rep = co_await scrub.repair(f, p.file_size);
      if (rep.ok()) {
        m.scrub_media_errors += rep->media_errors;
        m.scrub_repaired += rep->repaired;
      }
    }
  }

  // Full-file sweep: every byte must match its shadow. Reads go through
  // the failover path, so a permanently-down server is not an excuse.
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    for (std::uint64_t off = 0; off < p.file_size; off += chunk) {
      const std::uint64_t len =
          std::min<std::uint64_t>(chunk, p.file_size - off);
      auto rd = co_await fs.read(files[i], off, len);
      if (!rd.ok() || !shadows[i].matches(off, *rd)) ++m.verify_mismatches;
    }
  }

  // Metadata audit: after every replay and reconciliation, the manager's
  // durable view of each file (handle, scheme tag, redundancy generation)
  // must agree with the live state the clients are acting on. Skipped only
  // when the plan leaves the manager down for good.
  if (!rig.manager->crashed()) {
    for (std::uint32_t i = 0; i < nfiles; ++i) {
      auto f2 = co_await rig.client().open("storm" + std::to_string(i));
      if (!f2.ok() || f2->handle != files[i].handle) {
        ++m.meta_mismatches;
        continue;
      }
      if (f2->red_gen != rig.policy().red_gen_of(files[i])) {
        ++m.meta_mismatches;
      }
      // An unset tag means "layout default", which the policy may have
      // overridden locally — only a *set* tag can contradict the live scheme.
      if (f2->scheme != pvfs::kSchemeUnset &&
          raid::scheme_from_tag(f2->scheme) !=
              rig.policy().scheme_of(files[i])) {
        ++m.meta_mismatches;
      }
    }
  }

  // Stop every poller from inside the simulation or sim.run() never drains.
  mon.stop();
  if (coord) coord->stop();
  if (mig) mig->stop();
  if (sampler) sampler->stop();
  for (const auto& s : shadows) m.tainted_bytes += s.tainted_bytes();
  m.finished_at = sim.now();
}

}  // namespace

StormMetrics run_storm(const StormParams& params) {
  raid::RigParams rp = params.rig;
  // Per-file scheme mix rides the policy's path rules: file i is named
  // "storm<i>", so a rule per index pins its scheme. Rules are installed in
  // descending index order because matching is first-prefix-wins and
  // "storm1" is a prefix of "storm10".
  if (!params.file_schemes.empty()) {
    const std::uint32_t nfiles = std::max<std::uint32_t>(1, params.nfiles);
    for (std::uint32_t i = nfiles; i-- > 0;) {
      rp.policy.rules.push_back(
          {"storm" + std::to_string(i),
           params.file_schemes[i % params.file_schemes.size()]});
    }
  }
  raid::Rig rig(rp);
  rig.set_obs(params.tracer, params.metrics);
  raid::HealthMonitor mon(rig.client(), params.health);
  // Down transitions are one of the adaptive engine's fault-pressure feeds.
  mon.add_listener([&rig](std::uint32_t s, bool alive, sim::Time at) {
    rig.policy().note_health_transition(s, alive, at);
  });
  std::vector<pvfs::IoServer*> server_ptrs;
  for (auto& s : rig.servers) server_ptrs.push_back(s.get());
  FaultInjector inj(rig.cluster, rig.fabric, std::move(server_ptrs),
                    params.plan);
  inj.set_tracer(rig.tracer());
  inj.set_manager(rig.manager.get());
  for (auto& fs : rig.fs) fs->enable_failover(&mon);
  std::optional<raid::RebuildCoordinator> coord;
  if (params.rebuild_after) coord.emplace(rig, mon, params.rebuild);
  std::optional<raid::SchemeMigrator> mig;
  if (params.adaptive || params.migrate_file >= 0) {
    mig.emplace(rig, params.migrate);
  }

  std::vector<Shadow> shadows;
  const std::uint32_t nfiles = std::max<std::uint32_t>(1, params.nfiles);
  shadows.reserve(nfiles);
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    shadows.emplace_back(params.file_size);
  }
  // Optional windowed utilization sampler. Busy-time probes report the
  // fraction of each window the resource spent transferring, as a delta of
  // its cumulative busy_time (captured mutable in the closure).
  std::optional<obs::Sampler> sampler;
  if (params.sample_window > 0) {
    sampler.emplace(rig.sim, params.sample_window);
    const double win_s = sim::to_seconds(params.sample_window);
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(rig.servers.size()); ++s) {
      pvfs::IoServer& srv = *rig.servers[s];
      sampler->probe("iod" + std::to_string(s) + "_util",
                     [&srv, win_s, prev = sim::Duration{0}]() mutable {
                       const sim::Duration busy = srv.iod().busy_time();
                       const double u = sim::to_seconds(busy - prev) / win_s;
                       prev = busy;
                       return u;
                     });
      hw::Node& n = rig.cluster.node(srv.node_id());
      if (n.disk() != nullptr) {
        hw::Disk& d = *n.disk();
        sampler->probe("disk" + std::to_string(s) + "_util",
                       [&d, win_s, prev = sim::Duration{0}]() mutable {
                         const sim::Duration busy = d.stats().busy_time;
                         const double u =
                             sim::to_seconds(busy - prev) / win_s;
                         prev = busy;
                         return u;
                       });
      }
    }
    hw::Node& c0 = rig.cluster.node(rig.client().node_id());
    sampler->probe("client0_tx_util",
                   [&c0, win_s, prev = sim::Duration{0}]() mutable {
                     const sim::Duration busy = c0.tx().busy_time();
                     const double u = sim::to_seconds(busy - prev) / win_s;
                     prev = busy;
                     return u;
                   });
    sampler->start();
  }

  StormMetrics m;
  rig.sim.spawn(driver(params, rig, mon, inj, coord ? &*coord : nullptr,
                       mig ? &*mig : nullptr,
                       sampler ? &*sampler : nullptr, shadows, m),
                "storm_driver");
  rig.sim.run();
  if (sampler) m.samples_csv = sampler->to_csv();
  if (params.metrics != nullptr) {
    rig.export_metrics(*params.metrics);
    if (coord) coord->export_metrics(*params.metrics);
    if (mig) mig->export_metrics(*params.metrics);
  }

  m.rpc = rig.client().rpc_stats();
  m.failover = rig.client_fs().failover_stats();
  m.manager = rig.manager->stats();
  m.availability = m.ops_attempted == 0
                       ? 1.0
                       : static_cast<double>(m.ops_ok) /
                             static_cast<double>(m.ops_attempted);

  std::optional<sim::Time> first_crash;
  for (const auto& c : params.plan.crashes) {
    if (!first_crash || c.at < *first_crash) first_crash = c.at;
  }
  if (coord) {
    m.rebuild = coord->stats();
    m.rebuild_ok = m.rebuild.rebuilds_failed == 0;
    // A restarted server still behind the fence means its rebuild never
    // completed — whatever the per-attempt counters say.
    for (const auto& c : params.plan.crashes) {
      if (c.restart_at && rig.server(c.server).fenced()) m.rebuild_ok = false;
    }
    if (first_crash && m.rebuild.first_down_at > *first_crash) {
      m.detection_latency = m.rebuild.first_down_at - *first_crash;
    }
    if (first_crash && m.rebuild.first_admit_at > *first_crash) {
      m.mttr = m.rebuild.first_admit_at - *first_crash;
    }
  } else if (first_crash) {
    // No coordinator: the monitor's transition record still dates the
    // detection, as long as the victim stayed down.
    for (const auto& c : params.plan.crashes) {
      if (c.at != *first_crash) continue;
      if (!mon.is_alive(c.server) && mon.status_since(c.server) > c.at) {
        m.detection_latency = mon.status_since(c.server) - c.at;
      }
      break;
    }
  }

  if (mig) m.migrate = mig->stats();

  m.faults = inj.stats();
  m.trace = inj.trace();
  m.events_executed = rig.sim.events_executed();
  m.fingerprint = fingerprint(m);
  return m;
}

}  // namespace csar::fault
