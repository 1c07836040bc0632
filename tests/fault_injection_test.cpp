// FaultInjector mechanics: the declarative plan executes on schedule, media
// errors surface as distinct repairable findings, and crash/restart keeps
// durable content while volatile state is lost.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include "raid/health.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "test_util.hpp"

namespace csar::fault {
namespace {

using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 16 * 1024;

raid::RigParams rig_params(raid::Scheme scheme = raid::Scheme::raid5) {
  raid::RigParams p;
  p.scheme = scheme;
  p.nservers = 4;
  p.rpc.timeout = sim::ms(200);
  p.rpc.max_attempts = 3;
  return p;
}

std::vector<pvfs::IoServer*> server_ptrs(raid::Rig& rig) {
  std::vector<pvfs::IoServer*> out;
  for (auto& s : rig.servers) out.push_back(s.get());
  return out;
}

TEST(FaultInjector, TimelineExecutesInOrder) {
  raid::Rig rig(rig_params());
  FaultPlan plan;
  plan.crashes.push_back({sim::ms(100), 1, sim::ms(400), false});
  SlowDisk sd;
  sd.start = sim::ms(200);
  sd.end = sim::ms(300);
  sd.server = 0;
  sd.factor = 3.0;
  plan.slow_disks.push_back(sd);
  FaultInjector inj(rig.cluster, rig.fabric, server_ptrs(rig), plan);
  ASSERT_TRUE(inj.first_crash_time().has_value());
  EXPECT_EQ(*inj.first_crash_time(), sim::ms(100));
  inj.start();
  run_sim_void(rig, [](raid::Rig& r, FaultInjector* in) -> sim::Task<void> {
    co_await r.sim.sleep(sim::ms(150));
    EXPECT_TRUE(r.server(1).crashed());
    co_await r.sim.sleep(sim::ms(100));  // t=250ms: inside the slow window
    EXPECT_EQ(in->stats().slow_periods, 1u);
    co_await r.sim.sleep(sim::ms(300));  // t=550ms: past the restart
    EXPECT_FALSE(r.server(1).crashed());
    EXPECT_EQ(in->stats().crashes, 1u);
    EXPECT_EQ(in->stats().restarts, 1u);
    EXPECT_EQ(in->trace().size(), 4u);  // crash, slow on, slow off, restart
  }(rig, &inj));
}

TEST(FaultInjector, CrashKeepsDurableContentDropsCache) {
  raid::Rig rig(rig_params());
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(8 * kSu, 3);
    auto wr = co_await fs.write(*f, 0, data.slice(0, data.size()));
    CO_ASSERT_TRUE(wr.ok());
    r.server(1).crash();
    EXPECT_EQ(r.server(1).fs().cache().dirty_pages(), 0u);
    r.server(1).restart(/*wipe_disk=*/false);
    // Applied writes are durable: the data survives the crash (only the
    // timing changes — everything now re-reads cold).
    auto rd = co_await fs.read(*f, 0, data.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
  }(rig));
}

TEST(FaultInjector, MediaErrorIsReroutedThenScrubRepaired) {
  raid::Rig rig(rig_params());
  raid::HealthMonitor mon(rig.client());
  rig.client_fs().enable_failover(&mon);
  FaultPlan plan;
  MediaFault mf;
  mf.at = sim::ms(100);
  mf.server = 3;
  mf.file = pvfs::IoServer::data_name(1);
  mf.off = 0;
  mf.len = 1024 * 1024;  // blanket the whole local data extent
  plan.media.push_back(mf);
  FaultInjector inj(rig.cluster, rig.fabric, server_ptrs(rig), plan);
  run_sim_void(rig, [](raid::Rig& r, raid::HealthMonitor* m,
                       FaultInjector* in) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t size = 16 * kSu;
    Buffer data = Buffer::pattern(size, 9);
    auto wr = co_await fs.write(*f, 0, data.slice(0, size));
    CO_ASSERT_TRUE(wr.ok());
    r.drop_all_caches();  // reads must actually touch the bad sectors
    m->start();
    in->start();
    co_await r.sim.sleep(sim::ms(200));  // past the plant time
    EXPECT_EQ(in->stats().media_planted, 1u);
    // A read over the bad range still succeeds: the media error carries the
    // culprit server, and the client reroutes through the degraded path.
    auto rd = co_await fs.read(*f, 0, size);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
    EXPECT_GE(fs.failover_stats().reactive, 1u);
    EXPECT_GE(fs.failover_stats().degraded_reads, 1u);
    // The scrubber sees a latent sector error as a repairable finding, not
    // a dead server: it rewrites the unreadable units from redundancy.
    raid::Scrubber scrub(r.client(), r.policy());
    auto rep = co_await scrub.repair(*f, size);
    CO_ASSERT_TRUE(rep.ok());
    EXPECT_GE(rep->media_errors, 1u);
    EXPECT_GE(rep->repaired, 1u);
    EXPECT_EQ(rep->unrepairable, 0u);
    r.drop_all_caches();
    // Rewriting remapped the bad sectors: plain reads work again.
    const std::uint64_t before = r.client_fs().failover_stats().reactive;
    auto again = co_await fs.read(*f, 0, size);
    CO_ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, data);
    EXPECT_EQ(r.client_fs().failover_stats().reactive, before);
    m->stop();
  }(rig, &mon, &inj));
}

TEST(FaultInjector, WipeRestartIsFencedUntilAdmitted) {
  raid::Rig rig(rig_params(raid::Scheme::raid1));
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(8 * kSu, 5);
    auto wr = co_await fs.write(*f, 0, data.slice(0, data.size()));
    CO_ASSERT_TRUE(wr.ok());
    r.server(1).crash();
    r.server(1).restart(/*wipe_disk=*/true);
    EXPECT_TRUE(r.server(1).fenced());
    // A fenced server refuses reads: without the fence, a read landing on
    // the blank replacement disk would be answered with plausible zeros.
    auto rd = co_await fs.read(*f, 0, data.size());
    EXPECT_FALSE(rd.ok());
    // Rebuild writes pass through the fence; admit() reopens reads.
    raid::Recovery rec = r.recovery();
    auto rb = co_await rec.rebuild_server(*f, 1, data.size());
    CO_ASSERT_TRUE(rb.ok());
    r.server(1).admit();
    EXPECT_FALSE(r.server(1).fenced());
    auto again = co_await fs.read(*f, 0, data.size());
    CO_ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, data);
  }(rig));
}

TEST(FaultInjector, MediaFaultOnAbsentFileIsSkipped) {
  raid::Rig rig(rig_params());
  FaultPlan plan;
  MediaFault mf;
  mf.at = sim::ms(10);
  mf.server = 0;
  mf.file = "nope.data";
  mf.len = 4096;
  plan.media.push_back(mf);
  FaultInjector inj(rig.cluster, rig.fabric, server_ptrs(rig), plan);
  inj.start();
  run_sim_void(rig, [](raid::Rig& r, FaultInjector* in) -> sim::Task<void> {
    co_await r.sim.sleep(sim::ms(50));
    EXPECT_EQ(in->stats().media_planted, 0u);
    EXPECT_EQ(in->trace().size(), 1u);
  }(rig, &inj));
}

}  // namespace
}  // namespace csar::fault
