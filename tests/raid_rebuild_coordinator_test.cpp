// RebuildCoordinator: online, write-safe reconstruction. These tests drive
// the coordinator the way the storm and figure benches do — crash a server
// under a live client, restart it (blank or with a surviving disk) and let
// the coordinator rebuild and admit it without quiescing — then verify the
// result byte-for-byte against a reference model.
#include "raid/rebuild.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hw/node.hpp"
#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "pvfs/io_server.hpp"
#include "raid/health.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 32 * 1024;
constexpr std::uint64_t kFile = 1024 * 1024;

RigParams rig_params() {
  RigParams p;
  p.scheme = Scheme::hybrid;
  p.nservers = 5;
  p.rpc.timeout = sim::ms(150);
  p.rpc.max_attempts = 4;
  p.rpc.backoff = sim::ms(5);
  return p;
}

/// Spin until the coordinator has nothing left to do (or `bound` elapses).
sim::Task<void> await_idle(Rig& r, RebuildCoordinator& co,
                           sim::Duration bound) {
  const sim::Time give_up = r.sim.now() + bound;
  while (!co.idle() && r.sim.now() < give_up) {
    co_await r.sim.sleep(sim::ms(5));
  }
}

// A server restarts blank mid-workload; the client keeps writing patterned
// data while the coordinator rebuilds. Every write must land exactly once:
// regions dirtied during the copy are re-copied before admit, so the final
// content matches the reference model byte for byte.
TEST(RebuildCoordinator, ConcurrentWritesStayByteExact) {
  Rig rig(rig_params());
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  rig.client_fs().enable_failover(&mon);
  RebuildCoordinator coord(rig, mon, RebuildParams{});

  run_sim_void(rig, [](Rig& r, HealthMonitor& m,
                       RebuildCoordinator& co) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    co.track(*f, kFile);
    RefFile ref;
    Rng rng(4242);
    Buffer preload = Buffer::pattern(kFile, rng.next());
    ref.write(0, preload);
    auto wr = co_await fs.write(*f, 0, std::move(preload));
    CO_ASSERT_TRUE(wr.ok());
    auto fl = co_await fs.flush(*f);
    CO_ASSERT_TRUE(fl.ok());

    m.start();
    co.start();
    r.server(1).crash();

    // Write through the outage: once the monitor flags the server these go
    // down the degraded path and land only in the redundancy, so the
    // coordinator must track them as stale for the rebuild.
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t len = 1 + rng.below(3 * kSu);
      const std::uint64_t off = rng.below(kFile - len);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
      co_await r.sim.sleep(sim::ms(10));
    }
    r.server(1).restart(/*wipe_disk=*/true);

    // Keep writing while the rebuild runs; offsets and lengths are
    // arbitrary (unaligned) so the dirty tracking sees partial units.
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t len = 1 + rng.below(3 * kSu);
      const std::uint64_t off = rng.below(kFile - len);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
      co_await r.sim.sleep(sim::ms(1));
    }

    co_await await_idle(r, co, sim::sec(60));
    EXPECT_FALSE(r.server(1).fenced());
    EXPECT_GE(co.stats().rebuilds_completed, 1u);
    EXPECT_EQ(co.stats().rebuilds_failed, 0u);
    EXPECT_GT(co.stats().dirty_bytes, 0u);

    auto rd = co_await fs.read(*f, 0, kFile);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, kFile));
    m.stop();
    co.stop();
  }(rig, mon, coord));
}

struct NonWipeOutcome {
  RebuildStats stats;
  bool fenced = true;
  bool byte_exact = false;
};

/// Crash a server whose dirty pages are volatile, degraded-write around it
/// while it is down, then restart it with (wipe=false) or without
/// (wipe=true kept as control) its disk contents.
NonWipeOutcome run_restart(bool wipe) {
  RigParams rp = rig_params();
  rp.fs.volatile_dirty_pages = true;
  Rig rig(rp);
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  rig.client_fs().enable_failover(&mon);
  RebuildCoordinator coord(rig, mon, RebuildParams{});

  NonWipeOutcome out;
  run_sim_void(rig, [](Rig& r, HealthMonitor& m, RebuildCoordinator& co,
                       bool wipe, NonWipeOutcome* out) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    co.track(*f, kFile);
    RefFile ref;
    Rng rng(777);
    Buffer preload = Buffer::pattern(kFile, rng.next());
    ref.write(0, preload);
    auto wr = co_await fs.write(*f, 0, std::move(preload));
    CO_ASSERT_TRUE(wr.ok());
    auto fl = co_await fs.flush(*f);
    CO_ASSERT_TRUE(fl.ok());

    // Recent writes whose pages are still dirty when the crash hits: their
    // only on-disk copy is the redundancy, so a non-wipe rejoin must still
    // reconstruct them.
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t off = (i * 5) * kSu;
      Buffer data = Buffer::pattern(kSu, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
    }

    m.start();
    co.start();
    r.server(1).crash();
    co_await r.sim.sleep(sim::ms(200));

    // Degraded writes during the outage land only in the redundancy.
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t len = 1 + rng.below(2 * kSu);
      const std::uint64_t off = rng.below(kFile - len);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
      co_await r.sim.sleep(sim::ms(1));
    }

    r.server(1).restart(wipe);
    co_await await_idle(r, co, sim::sec(60));
    out->stats = co.stats();
    out->fenced = r.server(1).fenced();
    auto rd = co_await fs.read(*f, 0, kFile);
    CO_ASSERT_TRUE(rd.ok());
    out->byte_exact = *rd == ref.expect(0, kFile);
    m.stop();
    co.stop();
  }(rig, mon, coord, wipe, &out));
  return out;
}

// A non-wipe restart takes the delta path: only regions degraded-written
// during the outage or lost with the dirty page cache are reconstructed,
// which moves far less data than the wipe control's full rebuild — and the
// result is still byte-exact.
TEST(RebuildCoordinator, NonWipeRestartDeltaRebuilds) {
  const NonWipeOutcome delta = run_restart(/*wipe=*/false);
  EXPECT_GE(delta.stats.delta_rebuilds, 1u);
  EXPECT_EQ(delta.stats.full_rebuilds, 0u);
  EXPECT_EQ(delta.stats.rebuilds_failed, 0u);
  EXPECT_GT(delta.stats.lost_dirty_bytes, 0u);
  EXPECT_FALSE(delta.fenced);
  EXPECT_TRUE(delta.byte_exact);

  const NonWipeOutcome full = run_restart(/*wipe=*/true);
  EXPECT_GE(full.stats.full_rebuilds, 1u);
  EXPECT_FALSE(full.fenced);
  EXPECT_TRUE(full.byte_exact);
  EXPECT_LT(delta.stats.bytes_rebuilt, full.stats.bytes_rebuilt);
}

struct CapOutcome {
  RebuildStats stats;
  sim::Duration rebuild = 0;  // restart -> first admit
};

/// Wipe-rebuild a quiet rig (no foreground writes after the restart) under
/// `rate_cap` so the copy time is governed by the token bucket alone.
CapOutcome run_capped(double rate_cap) {
  Rig rig(rig_params());
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  rig.client_fs().enable_failover(&mon);
  RebuildParams rbp;
  rbp.rate_cap = rate_cap;
  RebuildCoordinator coord(rig, mon, rbp);

  CapOutcome out;
  run_sim_void(rig, [](Rig& r, HealthMonitor& m, RebuildCoordinator& co,
                       CapOutcome* out) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    co.track(*f, kFile);
    auto wr = co_await fs.write(*f, 0, Buffer::pattern(kFile, 9));
    CO_ASSERT_TRUE(wr.ok());
    auto fl = co_await fs.flush(*f);
    CO_ASSERT_TRUE(fl.ok());
    m.start();
    co.start();
    r.server(1).crash();
    co_await r.sim.sleep(sim::ms(100));
    const sim::Time restart_at = r.sim.now();
    r.server(1).restart(/*wipe_disk=*/true);
    co_await await_idle(r, co, sim::sec(120));
    out->stats = co.stats();
    out->rebuild = co.stats().first_admit_at - restart_at;
    EXPECT_FALSE(r.server(1).fenced());
    m.stop();
    co.stop();
  }(rig, mon, coord, &out));
  return out;
}

// The token bucket bounds the reconstruction rate from above, so the
// rebuild cannot finish faster than bytes/rate (minus the initial burst) —
// and the whole throttled run is bit-deterministic.
TEST(RebuildCoordinator, RateCapBoundsRebuildDeterministically) {
  const double cap = 8.0 * 1024 * 1024;  // bytes/sec
  const CapOutcome a = run_capped(cap);
  EXPECT_GE(a.stats.rebuilds_completed, 1u);
  EXPECT_EQ(a.stats.rebuilds_failed, 0u);
  EXPECT_GT(a.stats.bytes_rebuilt, 0u);

  // Duration lower bound: everything beyond the burst is paced at `cap`.
  const double paced =
      static_cast<double>(a.stats.bytes_rebuilt) - (1 << 20);
  if (paced > 0) {
    EXPECT_GE(sim::to_seconds(a.rebuild), paced / cap * 0.95);
  }
  // Effective rate never exceeds the cap (burst allowance included).
  const double eff =
      static_cast<double>(a.stats.bytes_rebuilt) / sim::to_seconds(a.rebuild);
  EXPECT_LE(eff, cap * 1.05 + (1 << 20) / sim::to_seconds(a.rebuild));

  // Uncapped control must be faster.
  const CapOutcome un = run_capped(0.0);
  EXPECT_LT(un.rebuild, a.rebuild);

  // Bit-determinism: identical params => identical stats and timings.
  const CapOutcome b = run_capped(cap);
  EXPECT_EQ(a.rebuild, b.rebuild);
  EXPECT_EQ(a.stats.bytes_rebuilt, b.stats.bytes_rebuilt);
  EXPECT_EQ(a.stats.passes, b.stats.passes);
  EXPECT_EQ(a.stats.first_admit_at, b.stats.first_admit_at);
  EXPECT_EQ(a.stats.last_rebuild_time, b.stats.last_rebuild_time);
}

/// Survivors the monitor marks down while server 1 is wipe-rebuilt under
/// `nfiles` Hybrid files of `size` bytes, with sub-stripe writes growing
/// their overflow tables during the rebuild. Every write must succeed.
std::uint32_t survivor_downs_during_rebuild(std::uint32_t nfiles,
                                            std::uint64_t size) {
  RigParams p = rig_params();
  p.nservers = 6;
  p.profile = hw::profile_experimental2003();
  Rig rig(p);
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  std::uint32_t survivor_downs = 0;
  mon.add_listener([&](std::uint32_t s, bool alive, sim::Time) {
    if (s != 1 && !alive) ++survivor_downs;
  });
  rig.client_fs().enable_failover(&mon);
  RebuildCoordinator coord(rig, mon, RebuildParams{});

  run_sim_void(rig, [](Rig& r, HealthMonitor& m, RebuildCoordinator& co,
                       std::uint32_t nfiles,
                       std::uint64_t size) -> sim::Task<void> {
    constexpr std::uint64_t kUnit = 64 * 1024;
    auto& fs = r.client_fs();
    std::vector<pvfs::OpenFile> files;
    for (std::uint32_t i = 0; i < nfiles; ++i) {
      auto f = co_await fs.create("big" + std::to_string(i), r.layout(kUnit));
      CO_ASSERT_TRUE(f.ok());
      co.track(*f, size);
      CO_ASSERT_TRUE((co_await fs.write(*f, 0, Buffer::phantom(size))).ok());
      // With many files, overflow each before the crash too (one unit per
      // five-unit stripe), so every file's restore has a table to read.
      for (std::uint64_t off = 0; nfiles > 1 && off + kUnit <= size;
           off += 5 * kUnit) {
        CO_ASSERT_TRUE(
            (co_await fs.write(*f, off, Buffer::phantom(kUnit))).ok());
      }
      CO_ASSERT_TRUE((co_await fs.flush(*f)).ok());
      files.push_back(*f);
    }
    m.start();
    co.start();
    r.server(1).crash();
    co_await r.sim.sleep(sim::ms(200));
    r.server(1).restart(/*wipe_disk=*/true);
    // Sub-stripe writes keep the overflow tables growing during the rebuild.
    // (No early return on failure: the monitor and coordinator must be
    // stopped below or the simulation never drains.)
    std::uint32_t failed_writes = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t off = (i * 7 % (size / kUnit)) * kUnit;
      auto w = co_await fs.write(files[i % nfiles], off,
                                 Buffer::phantom(kUnit));
      if (!w.ok()) ++failed_writes;
      co_await r.sim.sleep(sim::ms(2));
    }
    EXPECT_EQ(failed_writes, 0u);
    co_await await_idle(r, co, sim::sec(300));
    EXPECT_FALSE(r.server(1).fenced());
    EXPECT_GE(co.stats().rebuilds_completed, 1u);
    m.stop();
    co.stop();
  }(rig, mon, coord, nfiles, size));
  return survivor_downs;
}

// Hybrid overflow tables are rebuilt window by window from the survivors.
// Each window occupies the survivor's iod dispatch loop, and health probes
// queue behind it, so a window longer than the probe deadline made the
// monitor mark a healthy survivor down while the rejoiner was still
// fenced: two servers "down" under a one-failure scheme, and foreground
// writes failed. No survivor may flap during the rebuild: not under one
// large file, nor when one pass overlaps the restores of many files (their
// window reads queued at the same survivor until they go one at a time).
TEST(RebuildCoordinator, OverflowRebuildDoesNotStarveSurvivorProbes) {
  EXPECT_EQ(survivor_downs_during_rebuild(1, 128ull << 20), 0u);
  EXPECT_EQ(survivor_downs_during_rebuild(16, 32ull << 20), 0u);
}

// ---------- one repair stream per pass ----------

constexpr std::uint32_t kFiles = 16;
constexpr std::uint32_t kWiped = 1;
constexpr std::uint32_t kSurvivor = 3;

/// kFiles real-byte Hybrid files of kFile bytes, each written whole and then
/// overwritten in sub-stripe pieces, which Hybrid sends to overflow. Their
/// contents go to `refs`.
sim::Task<std::vector<pvfs::OpenFile>> overflowed_files(
    Rig& r, std::vector<RefFile>* refs) {
  std::vector<pvfs::OpenFile> files;
  Rng rng(2929);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    auto f = co_await r.client_fs().create("s" + std::to_string(i),
                                           r.layout(kSu));
    EXPECT_TRUE(f.ok());
    RefFile& ref = refs->emplace_back();
    Buffer whole = Buffer::pattern(kFile, rng.next());
    ref.write(0, whole);
    EXPECT_TRUE((co_await r.client_fs().write(*f, 0, std::move(whole))).ok());
    for (int j = 0; j < 4; ++j) {
      const std::uint64_t len = 1 + rng.below(2 * kSu);
      const std::uint64_t off = rng.below(kFile - len);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      EXPECT_TRUE((co_await r.client_fs().write(*f, off, std::move(data))).ok());
    }
    EXPECT_TRUE((co_await r.client_fs().flush(*f)).ok());
    files.push_back(*f);
  }
  co_return files;
}

/// Files of `files` whose content reads back equal to `refs`.
sim::Task<std::uint32_t> files_intact(Rig& r,
                                      const std::vector<pvfs::OpenFile>& files,
                                      const std::vector<RefFile>& refs) {
  std::uint32_t intact = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto rd = co_await r.client_fs().read(files[i], 0, kFile);
    if (rd.ok() && *rd == refs[i].expect(0, kFile)) ++intact;
  }
  co_return intact;
}

/// Messages and wire bytes each server has sent and received.
struct ServerTraffic {
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  bool operator==(const ServerTraffic&) const = default;
};

std::vector<ServerTraffic> server_traffic(Rig& r) {
  std::vector<ServerTraffic> out;
  for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
    auto& node = r.cluster.node(r.server(s).node_id());
    out.push_back({node.rx().ops_total() + node.tx().ops_total(),
                   node.rx().bytes_total() + node.tx().bytes_total()});
  }
  return out;
}

struct PassOutcome {
  std::vector<ServerTraffic> traffic;  ///< per server, the rebuild's share
  sim::Duration elapsed = 0;
  std::uint32_t intact = 0;
  std::uint64_t overflow_bytes = 0;  ///< the wiped server's tables, before
};

/// Wipe server kWiped under kFiles overflowed files and rebuild it: in one
/// pass over every file (`one_pass`), or by one single-file pass per file,
/// back to back.
PassOutcome rebuild_wiped(bool one_pass) {
  Rig rig(rig_params());
  PassOutcome out;
  run_sim_void(rig, [](Rig& r, bool one_pass,
                       PassOutcome* out) -> sim::Task<void> {
    std::vector<RefFile> refs;
    const auto files = co_await overflowed_files(r, &refs);
    for (const auto& f : files) {
      out->overflow_bytes +=
          r.server(kWiped).fs().size(pvfs::IoServer::ovfl_name(f.handle));
    }
    r.server(kWiped).fail();
    r.server(kWiped).wipe();
    r.server(kWiped).recover();
    const auto before = server_traffic(r);
    const sim::Time t0 = r.sim.now();
    Recovery rec = r.repair_recovery();
    if (one_pass) {
      std::vector<RebuildTarget> targets;
      for (const auto& f : files) targets.push_back({f, kFile});
      auto rb = co_await rec.rebuild_server(std::move(targets), kWiped);
      CO_ASSERT_TRUE(rb.ok());
    } else {
      for (const auto& f : files) {
        auto rb = co_await rec.rebuild_server(f, kWiped, kFile);
        CO_ASSERT_TRUE(rb.ok());
      }
    }
    out->elapsed = r.sim.now() - t0;
    const auto after = server_traffic(r);
    for (std::size_t s = 0; s < after.size(); ++s) {
      out->traffic.push_back(
          {after[s].messages - before[s].messages,
           after[s].wire_bytes - before[s].wire_bytes});
    }
    out->intact = co_await files_intact(r, files, refs);
  }(rig, one_pass, &out));
  return out;
}

// One pass streams every file's jobs and overflow restores through one
// pipeline. It sends exactly the requests of one single-file pass per file —
// per server, the same messages and wire bytes — and restores every file,
// but takes less than half their summed time.
TEST(RebuildStream, OnePassMovesTheSameBytesInUnderHalfTheTime) {
  const PassOutcome stream = rebuild_wiped(/*one_pass=*/true);
  const PassOutcome singles = rebuild_wiped(/*one_pass=*/false);
  EXPECT_GT(stream.overflow_bytes, 0u);
  EXPECT_EQ(stream.intact, kFiles);
  EXPECT_EQ(singles.intact, kFiles);
  ASSERT_EQ(stream.traffic.size(), singles.traffic.size());
  for (std::size_t s = 0; s < stream.traffic.size(); ++s) {
    EXPECT_GT(stream.traffic[s].messages, 0u) << "server " << s;
    EXPECT_EQ(stream.traffic[s], singles.traffic[s]) << "server " << s;
  }
  EXPECT_LT(2 * stream.elapsed, singles.elapsed);
}

/// Fragment reads (requests without payload) the repair client sends, and
/// the first one to `target` after `crashed` is set.
struct ReadLog final : net::FabricHook {
  ReadLog(Rig& r, std::uint32_t target)
      : sim(&r.sim),
        from(r.repair_client().node_id()),
        to(r.server(target).node_id()) {}
  Verdict on_transfer(hw::NodeId src, hw::NodeId dst,
                      std::uint64_t payload_bytes) override {
    if (src != from || payload_bytes != 0) return {};
    reads.push_back(sim->now());
    if (crashed && dst == to && !first_after_crash) {
      first_after_crash = sim->now();
    }
    return {};
  }
  sim::Simulation* sim;
  hw::NodeId from;
  hw::NodeId to;
  bool crashed = false;
  std::vector<sim::Time> reads;
  std::optional<sim::Time> first_after_crash;
};

// A survivor crashes in the middle of a multi-file stream. The pass fails
// with the first error, which names the survivor, and issues nothing once it
// has seen it: every read it sends leaves before the first request the
// crashed survivor never answers has timed out. The coordinator's retry,
// once the survivor is back, admits the rebuilt server with every file
// intact.
TEST(RebuildStream, SurvivorCrashStopsThePassAndTheRetryAdmits) {
  constexpr sim::Duration kTimeout = sim::ms(40);
  constexpr sim::Duration kCrashAfter = sim::ms(60);
  {
    Rig rig(rig_params());
    ReadLog log(rig, kSurvivor);
    run_sim_void(rig, [](Rig& r, ReadLog& log) -> sim::Task<void> {
      std::vector<RefFile> refs;
      const auto files = co_await overflowed_files(r, &refs);
      r.server(kWiped).fail();
      r.server(kWiped).wipe();
      r.server(kWiped).recover();
      r.repair_client().set_rpc_policy({kTimeout, 1, sim::ms(5), 0.0});
      r.fabric.set_fault_hook(&log);
      r.sim.spawn([](Rig& r2, ReadLog& l) -> sim::Task<void> {
        co_await r2.sim.sleep(kCrashAfter);
        r2.server(kSurvivor).crash();
        l.crashed = true;
      }(r, log));
      std::vector<RebuildTarget> targets;
      for (const auto& f : files) targets.push_back({f, kFile});
      auto rb = co_await r.repair_recovery().rebuild_server(std::move(targets),
                                                            kWiped);
      r.fabric.set_fault_hook(nullptr);
      CO_ASSERT_TRUE(!rb.ok());
      EXPECT_EQ(rb.error().server, static_cast<int>(kSurvivor));
      EXPECT_EQ(rb.error().code, Errc::timeout);
    }(rig, log));
    ASSERT_TRUE(log.first_after_crash.has_value());
    const sim::Time seen_by = *log.first_after_crash + kTimeout;
    std::size_t before_crash = 0;
    for (const sim::Time at : log.reads) {
      EXPECT_LE(at, seen_by);
      if (at < *log.first_after_crash) ++before_crash;
    }
    // The crash fell mid-stream: reads went out on both sides of it.
    EXPECT_GT(before_crash, 0u);
    EXPECT_GT(log.reads.size(), before_crash);
  }

  RebuildParams rbp;
  rbp.rpc = {sim::ms(200), 2, sim::ms(50), 0.5};
  Rig rig(rig_params());
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  RebuildCoordinator coord(rig, mon, rbp);
  run_sim_void(rig, [](Rig& r, HealthMonitor& m,
                       RebuildCoordinator& co) -> sim::Task<void> {
    std::vector<RefFile> refs;
    const auto files = co_await overflowed_files(r, &refs);
    for (const auto& f : files) co.track(f, kFile);
    m.start();
    co.start();
    r.server(kWiped).crash();
    co_await r.sim.sleep(sim::ms(200));
    r.server(kWiped).restart(/*wipe_disk=*/true);
    // The coordinator starts its pass within a supervisor tick of the
    // restart; the survivor crashes under it and comes back, disk intact.
    co_await r.sim.sleep(kCrashAfter);
    r.server(kSurvivor).crash();
    co_await r.sim.sleep(sim::ms(300));
    r.server(kSurvivor).restart(/*wipe_disk=*/false);
    co_await await_idle(r, co, sim::sec(60));
    EXPECT_GE(co.stats().rebuilds_failed, 1u);
    EXPECT_GE(co.stats().full_rebuilds, 2u);
    EXPECT_FALSE(r.server(kWiped).fenced());
    EXPECT_FALSE(r.server(kSurvivor).fenced());
    EXPECT_EQ(co_await files_intact(r, files, refs), kFiles);
    m.stop();
    co.stop();
  }(rig, mon, coord));
}

// The restores of one pass overlap, and each survivor serves their
// overflow window reads one at a time: no server ever holds two window
// reads at once (see kOverflowWindow), while one restore's own side, read
// from the rebuilt server's successor, runs beside another's mirror side,
// read from its predecessor.
TEST(RebuildStream, EachSurvivorServesOneOverflowWindowAtATime) {
  if (!obs::kEnabled) GTEST_SKIP() << "hooks compiled out (CSAR_OBS=0)";
  obs::Tracer tracer;  // outlives the rig, which drains its simulation
  Rig rig(rig_params());
  rig.set_obs(&tracer, nullptr);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    std::vector<RefFile> refs;
    const auto files = co_await overflowed_files(r, &refs);
    r.server(kWiped).fail();
    r.server(kWiped).wipe();
    r.server(kWiped).recover();
    std::vector<RebuildTarget> targets;
    for (const auto& f : files) targets.push_back({f, kFile});
    auto rb =
        co_await r.repair_recovery().rebuild_server(std::move(targets), kWiped);
    CO_ASSERT_TRUE(rb.ok());
    EXPECT_EQ(co_await files_intact(r, files, refs), kFiles);
  }(rig));
  rig.set_obs(nullptr, nullptr);

  // Each server's window reads, as the spans of the requests it handled.
  std::vector<std::vector<std::pair<sim::Time, sim::Time>>> windows(
      rig.p.nservers);
  for (const auto& e : tracer.events()) {
    const std::string name = e.name;
    if (name != "read_own_overflow" && name != "read_mirror") continue;
    for (std::uint32_t s = 0; s < rig.p.nservers; ++s) {
      if (tracer.node_pid(rig.server(s).node_id()) == e.pid) {
        windows[s].emplace_back(e.start, e.start + e.dur);
      }
    }
  }
  const std::uint32_t n = rig.p.nservers;
  const std::uint32_t successor = (kWiped + 1) % n;
  const std::uint32_t predecessor = (kWiped + n - 1) % n;
  for (std::uint32_t s = 0; s < n; ++s) {
    auto& w = windows[s];
    std::sort(w.begin(), w.end());
    if (s == successor || s == predecessor) {
      EXPECT_EQ(w.size(), kFiles) << "server " << s;
    } else {
      EXPECT_TRUE(w.empty()) << "server " << s;
    }
    for (std::size_t i = 1; i < w.size(); ++i) {
      EXPECT_GE(w[i].first, w[i - 1].second) << "server " << s;
    }
  }
  std::size_t overlapping = 0;
  for (const auto& a : windows[successor]) {
    for (const auto& b : windows[predecessor]) {
      if (a.first < b.second && b.first < a.second) ++overlapping;
    }
  }
  EXPECT_GT(overlapping, 0u);
}

// ---------- survivor reads in disk order ----------

/// Seeks each server's disk makes while server 1 of 6 is rebuilt, in one
/// pass, under one raid5 and one rs(4,2) file of 16 KiB units, read from a
/// cold cache of 1 MiB per server.
std::vector<std::uint64_t> cold_rebuild_seeks() {
  constexpr std::uint64_t kUnit = 16 * 1024;
  constexpr std::uint64_t kSize = 480 * kUnit;  // whole groups for both
  RigParams p;
  p.nservers = 6;
  p.scheme = Scheme::raid5;
  p.policy.rules = {{"r5/", Scheme::raid5}, {"rs/", Scheme::rs(4, 2)}};
  p.profile.server.cache->capacity_bytes = 1024 * 1024;
  Rig rig(p);
  std::vector<std::uint64_t> seeks;
  run_sim_void(rig, [](Rig& r,
                       std::vector<std::uint64_t>* out) -> sim::Task<void> {
    std::vector<RebuildTarget> targets;
    for (const char* name : {"r5/f", "rs/f"}) {
      auto f = co_await r.client_fs().create(name, r.layout(kUnit));
      CO_ASSERT_TRUE(f.ok());
      CO_ASSERT_TRUE(
          (co_await r.client_fs().write(*f, 0, Buffer::phantom(kSize))).ok());
      CO_ASSERT_TRUE((co_await r.client_fs().flush(*f)).ok());
      targets.push_back({*f, kSize});
    }
    r.drop_all_caches();
    r.server(1).fail();
    r.server(1).wipe();
    r.server(1).recover();
    auto seeks = [&r](std::uint32_t s) {
      return r.cluster.node(r.server(s).node_id()).disk()->stats().seeks;
    };
    std::vector<std::uint64_t> before;
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) before.push_back(seeks(s));
    auto rb =
        co_await r.repair_recovery().rebuild_server(std::move(targets), 1);
    CO_ASSERT_TRUE(rb.ok());
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      out->push_back(seeks(s) - before[s]);
    }
  }(rig, &seeks));
  return seeks;
}

// A rebuild plans each file's jobs in group order and sends each batch's
// survivor reads sorted by server, data file before redundancy file, local
// offset, so a survivor seeks about once per switch between its two files.
// Issued in the old order (every data-unit job, then every coding-unit
// job, each job's reads sent on their own), the same pass made 49, 169,
// 145, 185 and 144 seeks on survivors 0, 2, 3, 4 and 5.
TEST(RebuildStream, SurvivorReadsFollowDiskOrder) {
  const auto seeks = cold_rebuild_seeks();
  ASSERT_EQ(seeks.size(), 6u);
  EXPECT_EQ(seeks[0], 25u);
  EXPECT_EQ(seeks[2], 54u);
  EXPECT_EQ(seeks[3], 25u);
  EXPECT_EQ(seeks[4], 54u);
  EXPECT_EQ(seeks[5], 25u);
}

}  // namespace
}  // namespace csar::raid
