// RebuildCoordinator: online, write-safe reconstruction. These tests drive
// the coordinator the way the storm and figure benches do — crash a server
// under a live client, restart it (blank or with a surviving disk) and let
// the coordinator rebuild and admit it without quiescing — then verify the
// result byte-for-byte against a reference model.
#include "raid/rebuild.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hw/node.hpp"
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

// A large hybrid file's overflow tables are rebuilt window by window from
// the survivors. Each window occupies the survivor's iod dispatch loop, and
// health probes queue behind it, so a window longer than the probe deadline
// made the monitor mark a healthy survivor down while the rejoiner was still
// fenced: two servers "down" under a one-failure scheme, and foreground
// writes failed. No survivor may flap during the rebuild.
TEST(RebuildCoordinator, OverflowRebuildDoesNotStarveSurvivorProbes) {
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

  run_sim_void(rig, [](Rig& r, HealthMonitor& m,
                       RebuildCoordinator& co) -> sim::Task<void> {
    constexpr std::uint64_t kBig = 128 * 1024 * 1024;
    constexpr std::uint64_t kUnit = 64 * 1024;
    auto& fs = r.client_fs();
    auto f = co_await fs.create("big", r.layout(kUnit));
    CO_ASSERT_TRUE(f.ok());
    co.track(*f, kBig);
    CO_ASSERT_TRUE((co_await fs.write(*f, 0, Buffer::phantom(kBig))).ok());
    CO_ASSERT_TRUE((co_await fs.flush(*f)).ok());
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
      const std::uint64_t off = (i * 7 % (kBig / kUnit)) * kUnit;
      auto w = co_await fs.write(*f, off, Buffer::phantom(kUnit));
      if (!w.ok()) ++failed_writes;
      co_await r.sim.sleep(sim::ms(2));
    }
    EXPECT_EQ(failed_writes, 0u);
    co_await await_idle(r, co, sim::sec(300));
    EXPECT_FALSE(r.server(1).fenced());
    EXPECT_GE(co.stats().rebuilds_completed, 1u);
    m.stop();
    co.stop();
  }(rig, mon, coord));
  EXPECT_EQ(survivor_downs, 0u);
}

}  // namespace
}  // namespace csar::raid
