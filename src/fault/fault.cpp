#include "fault/fault.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "hw/page_cache.hpp"
#include "pvfs/manager.hpp"

namespace csar::fault {

namespace {

/// One executable step of the plan, in firing order.
struct Step {
  sim::Time at;
  enum Kind {
    crash,
    group_crash,
    restart,
    group_restart,
    plant,
    slow_on,
    slow_off,
    mgr_crash,
    mgr_restart
  } kind;
  std::size_t idx;  ///< index into the plan vector the kind refers to
};

}  // namespace

FaultInjector::~FaultInjector() {
  // Leave the fabric clean if the injector dies first (rigs tear down in
  // member order, so this is the common case in tests).
  if (started_) fabric_->set_fault_hook(nullptr);
}

void FaultInjector::start() {
  assert(!started_ && "start() is one-shot");
  started_ = true;
  fabric_->set_fault_hook(this);
  cluster_->sim().spawn(timeline(), "fault_timeline");
}

std::optional<sim::Time> FaultInjector::first_crash_time() const {
  std::optional<sim::Time> t;
  for (const auto& c : plan_.crashes) {
    if (!t || c.at < *t) t = c.at;
  }
  for (const auto& g : plan_.group_crashes) {
    if (!g.servers.empty() && (!t || g.at < *t)) t = g.at;
  }
  return t;
}

void FaultInjector::note(const char* what, std::uint32_t server,
                         const char* extra) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "t=%.3fms %s server %u%s",
                sim::to_seconds(cluster_->sim().now()) * 1e3, what, server,
                extra);
  trace_.emplace_back(buf);
  // `what` is a string literal at every call site, so the tracer may keep
  // the pointer.
  if (obs::kEnabled && tracer_ != nullptr) {
    tracer_->instant(what, "fault", {{"server", server}});
  }
}

void FaultInjector::note_manager(const char* what, const char* extra) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "t=%.3fms %s manager%s",
                sim::to_seconds(cluster_->sim().now()) * 1e3, what, extra);
  trace_.emplace_back(buf);
  if (obs::kEnabled && tracer_ != nullptr) {
    tracer_->instant(what, "fault", {{"manager", 1}});
  }
}

net::FabricHook::Verdict FaultInjector::on_transfer(
    hw::NodeId src, hw::NodeId dst, std::uint64_t /*payload_bytes*/) {
  Verdict v{};
  const sim::Time now = cluster_->sim().now();
  for (const auto& lf : plan_.links) {
    if (now < lf.start || now >= lf.end) continue;
    const bool forward = src == lf.a && dst == lf.b;
    const bool backward = lf.bidirectional && src == lf.b && dst == lf.a;
    if (!forward && !backward) continue;
    // Reset is checked first: a refused connection never reaches the wire,
    // so it cannot also be dropped or delayed.
    if (lf.reset_p > 0.0 && rng_.chance(lf.reset_p)) {
      ++stats_.msgs_reset;
      v.reset = true;
      return v;
    }
    if (lf.drop_p > 0.0 && rng_.chance(lf.drop_p)) {
      ++stats_.msgs_dropped;
      v.drop = true;
    }
    if (lf.extra_delay > 0) {
      ++stats_.msgs_delayed;
      v.extra_delay += lf.extra_delay;
    }
  }
  return v;
}

sim::Task<void> FaultInjector::timeline() {
  auto& sim = cluster_->sim();
  std::vector<Step> steps;
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    steps.push_back({plan_.crashes[i].at, Step::crash, i});
    if (plan_.crashes[i].restart_at) {
      steps.push_back({*plan_.crashes[i].restart_at, Step::restart, i});
    }
  }
  for (std::size_t i = 0; i < plan_.group_crashes.size(); ++i) {
    steps.push_back({plan_.group_crashes[i].at, Step::group_crash, i});
    if (plan_.group_crashes[i].restart_at) {
      steps.push_back({*plan_.group_crashes[i].restart_at,
                       Step::group_restart, i});
    }
  }
  for (std::size_t i = 0; i < plan_.mgr_crashes.size(); ++i) {
    steps.push_back({plan_.mgr_crashes[i].at, Step::mgr_crash, i});
    if (plan_.mgr_crashes[i].restart_at) {
      steps.push_back({*plan_.mgr_crashes[i].restart_at, Step::mgr_restart,
                       i});
    }
  }
  for (std::size_t i = 0; i < plan_.media.size(); ++i) {
    steps.push_back({plan_.media[i].at, Step::plant, i});
  }
  for (std::size_t i = 0; i < plan_.slow_disks.size(); ++i) {
    steps.push_back({plan_.slow_disks[i].start, Step::slow_on, i});
    steps.push_back({plan_.slow_disks[i].end, Step::slow_off, i});
  }
  std::sort(steps.begin(), steps.end(), [](const Step& x, const Step& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.kind != y.kind) return x.kind < y.kind;
    return x.idx < y.idx;
  });

  for (const Step& s : steps) {
    if (s.at > sim.now()) co_await sim.sleep_until(s.at);
    switch (s.kind) {
      case Step::crash: {
        const auto& c = plan_.crashes[s.idx];
        servers_[c.server]->crash();
        ++stats_.crashes;
        note("crash", c.server);
        break;
      }
      case Step::restart: {
        const auto& c = plan_.crashes[s.idx];
        servers_[c.server]->restart(c.wipe);
        ++stats_.restarts;
        note("restart", c.server, c.wipe ? " (blank disk)" : "");
        break;
      }
      case Step::group_crash: {
        // The whole failure domain dies in one step, no await between
        // members: every scheme sees the outage as simultaneous.
        const auto& g = plan_.group_crashes[s.idx];
        for (std::uint32_t sv : g.servers) {
          servers_[sv]->crash();
          ++stats_.crashes;
          note("group crash", sv, " (failure domain)");
        }
        ++stats_.group_crashes;
        break;
      }
      case Step::group_restart: {
        const auto& g = plan_.group_crashes[s.idx];
        for (std::uint32_t sv : g.servers) {
          servers_[sv]->restart(g.wipe);
          ++stats_.restarts;
          note("group restart", sv, g.wipe ? " (blank disk)" : "");
        }
        break;
      }
      case Step::plant: {
        const auto& mf = plan_.media[s.idx];
        auto& server = *servers_[mf.server];
        const std::uint64_t fid = server.fs().fid_of(mf.file);
        hw::Disk* disk = cluster_->node(server.node_id()).disk();
        if (fid == 0 || disk == nullptr) {
          note("media fault skipped (no such file)", mf.server);
          break;
        }
        const std::uint64_t addr =
            hw::PageCache::page_addr(fid, 0, 1) + mf.off;
        disk->plant_media_error(addr, mf.len);
        ++stats_.media_planted;
        note("latent sector error", mf.server,
             (" in " + mf.file).c_str());
        break;
      }
      case Step::slow_on: {
        const auto& sd = plan_.slow_disks[s.idx];
        hw::Disk* disk =
            cluster_->node(servers_[sd.server]->node_id()).disk();
        if (disk != nullptr) {
          disk->set_service_factor(sd.factor);
          ++stats_.slow_periods;
          note("disk fail-slow begins", sd.server);
        }
        break;
      }
      case Step::slow_off: {
        const auto& sd = plan_.slow_disks[s.idx];
        hw::Disk* disk =
            cluster_->node(servers_[sd.server]->node_id()).disk();
        if (disk != nullptr) {
          disk->set_service_factor(1.0);
          note("disk fail-slow ends", sd.server);
        }
        break;
      }
      case Step::mgr_crash: {
        assert(manager_ != nullptr && "set_manager() before mgr_crashes");
        const auto& c = plan_.mgr_crashes[s.idx];
        manager_->crash(c.wipe_unsynced);
        ++stats_.mgr_crashes;
        note_manager("crash", c.wipe_unsynced ? " (unsynced tail lost)" : "");
        break;
      }
      case Step::mgr_restart: {
        assert(manager_ != nullptr && "set_manager() before mgr_crashes");
        // Replay runs inline on the timeline: any later step scheduled
        // inside the replay window fires right after it completes, which
        // keeps the step order (and the storm fingerprint) deterministic.
        co_await manager_->restart();
        ++stats_.mgr_restarts;
        note_manager("restart (journal replayed)");
        break;
      }
    }
  }
}

}  // namespace csar::fault
