// End-to-end fault storm: a FaultPlan crashes a server mid-workload (with a
// blank-disk restart), drops messages on a second server's link, slows a
// third disk and plants latent sector errors on a fourth — while the client
// stack rides it out on its own: RPC deadlines + retry, health-monitor
// detection, transparent failover through the degraded paths, rebuild on
// rejoin and a scrub pass for the sector errors. The test body injects
// nothing by hand; everything arrives through the plan. Every completed
// read is verified against a shadow copy, and the whole run is
// bit-deterministic: same plan + seeds => identical metrics and trace.
#include "fault/storm.hpp"

#include <gtest/gtest.h>

#include "pvfs/io_server.hpp"

namespace csar::fault {
namespace {

StormParams storm_params(raid::Scheme scheme) {
  StormParams p;
  p.rig.scheme = scheme;
  p.rig.nservers = 4;
  p.rig.rpc.timeout = sim::ms(150);
  p.rig.rpc.max_attempts = 4;
  p.rig.rpc.backoff = sim::ms(5);
  p.rig.seed = 0xABCD;
  p.health.interval = sim::ms(100);
  p.file_size = 2 * 1024 * 1024;
  p.stripe_unit = 32 * 1024;
  p.io_size = 32 * 1024;
  p.ops = 300;
  p.op_gap = sim::ms(8);
  p.workload_seed = 2024;

  // The storm. Times are absolute simulated time; the workload preload
  // finishes well before the first fault.
  p.plan.seed = 77;
  // Server 1 hard-crashes mid-workload and rejoins on a blank disk.
  p.plan.crashes.push_back(
      {sim::ms(400), 1, sim::ms(1200), /*wipe=*/true});
  // The client<->server-2 link drops a third of its messages for a while.
  LinkFault lf;
  lf.b = 0;  // patched to real node ids below (see storm_plan_for)
  lf.start = sim::ms(300);
  lf.end = sim::ms(900);
  lf.drop_p = 0.3;
  p.plan.links.push_back(lf);
  // Server 0's disk goes fail-slow for 300 ms.
  SlowDisk sd;
  sd.start = sim::ms(500);
  sd.end = sim::ms(800);
  sd.server = 0;
  sd.factor = 3.0;
  p.plan.slow_disks.push_back(sd);
  // Latent sector errors appear under server 3's data extent late in the
  // run (after the rebuild window, as on real hardware they are found by
  // reads, not planted conveniently early).
  MediaFault mf;
  mf.at = sim::ms(2500);
  mf.server = 3;
  mf.file = pvfs::IoServer::data_name(1);
  mf.off = 0;
  mf.len = 1024 * 1024;
  p.plan.media.push_back(mf);
  return p;
}

/// Node ids depend on the rig build order (manager, servers, clients), so
/// resolve the lossy link against a throwaway rig with the same shape.
void patch_link_nodes(StormParams& p) {
  raid::Rig probe(p.rig);
  p.plan.links[0].a = probe.client().node_id();
  p.plan.links[0].b = probe.server(2).node_id();
}

TEST(FaultStorm, SurvivesWithZeroMismatches) {
  StormParams p = storm_params(raid::Scheme::raid5);
  patch_link_nodes(p);
  StormMetrics m = run_storm(p);

  // The plan fired completely.
  EXPECT_EQ(m.faults.crashes, 1u);
  EXPECT_EQ(m.faults.restarts, 1u);
  EXPECT_EQ(m.faults.media_planted, 1u);
  EXPECT_EQ(m.faults.slow_periods, 1u);
  EXPECT_GE(m.faults.msgs_dropped, 1u);

  // The client machinery did its job.
  EXPECT_GE(m.rpc.retries, 1u);
  EXPECT_GE(m.rpc.timeouts, 1u);
  EXPECT_GE(m.failover.degraded_reads + m.failover.degraded_writes, 1u);
  EXPECT_TRUE(m.rebuild_ok);
  EXPECT_GT(m.detection_latency, 0u);
  // Detection within ~one probe interval plus probe deadlines.
  EXPECT_LE(m.detection_latency, sim::ms(600));
  EXPECT_GT(m.mttr, 0u);

  // The contract: every byte that was acknowledged reads back correctly.
  EXPECT_EQ(m.verify_mismatches, 0u);
  EXPECT_GT(m.ops_attempted, 0u);
  EXPECT_GE(m.availability, 0.9);
}

TEST(FaultStorm, HybridSchemeSurvivesToo) {
  StormParams p = storm_params(raid::Scheme::hybrid);
  patch_link_nodes(p);
  StormMetrics m = run_storm(p);
  EXPECT_EQ(m.verify_mismatches, 0u);
  EXPECT_TRUE(m.rebuild_ok);
  EXPECT_GE(m.availability, 0.9);
}

TEST(FaultStorm, BitDeterministicAcrossRuns) {
  StormParams p = storm_params(raid::Scheme::raid5);
  patch_link_nodes(p);
  StormMetrics a = run_storm(p);
  StormMetrics b = run_storm(p);
  // Same plan + seeds => the same simulation, event for event.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.rpc.retries, b.rpc.retries);
  EXPECT_EQ(a.detection_latency, b.detection_latency);
  EXPECT_EQ(a.mttr, b.mttr);

  // A different fault seed changes the drop pattern — and therefore the
  // fingerprint — proving the fingerprint actually covers the dynamics.
  StormParams q = p;
  q.plan.seed = 78;
  StormMetrics c = run_storm(q);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

}  // namespace
}  // namespace csar::fault
