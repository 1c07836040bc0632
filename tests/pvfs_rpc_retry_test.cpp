// Client RPC robustness: per-call deadlines on the simulated clock, bounded
// retry with exponential backoff, and the distinct error codes a caller
// needs to tell a silent server from a refused connection.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::pvfs {
namespace {

using csar::test::run_sim_void;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::LinkFault;

raid::RigParams rig_params() {
  raid::RigParams p;
  p.nservers = 4;
  return p;
}

Request ping() {
  Request r;
  r.op = Op::ping;
  return r;
}

TEST(RpcRetry, DeadlineFiresOnSilentServer) {
  raid::Rig rig(rig_params());
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    // crash() is silent: no reply ever comes, unlike fail() which answers
    // with server_failed. Only the deadline can end the call.
    r.server(2).crash();
    RpcPolicy policy;
    policy.timeout = sim::ms(50);
    policy.max_attempts = 3;
    policy.jitter = 0.0;
    const sim::Time before = r.sim.now();
    auto resp = co_await r.client().rpc(2, ping(), policy);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.err, Errc::timeout);
    EXPECT_EQ(resp.server, 2);
    // Three 50 ms deadlines plus backoffs of 5 and 10 ms.
    EXPECT_GE(r.sim.now() - before, sim::ms(165));
    const auto& stats = r.client().rpc_stats();
    EXPECT_EQ(stats.sent, 3u);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.timeouts, 3u);
  }(rig));
}

TEST(RpcRetry, GivesUpAfterMaxAttempts) {
  raid::Rig rig(rig_params());
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    r.server(0).crash();
    RpcPolicy policy;
    policy.timeout = sim::ms(20);
    policy.max_attempts = 5;
    auto resp = co_await r.client().rpc(0, ping(), policy);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(r.client().rpc_stats().sent, 5u);
    EXPECT_EQ(r.client().rpc_stats().retries, 4u);
    // A restarted server answers again — the same call now succeeds.
    r.server(0).restart(/*wipe_disk=*/false);
    auto again = co_await r.client().rpc(0, ping(), policy);
    EXPECT_TRUE(again.ok);
  }(rig));
}

TEST(RpcRetry, SucceedsAfterTransientMessageLoss) {
  raid::Rig rig(rig_params());
  std::vector<pvfs::IoServer*> servers;
  for (auto& s : rig.servers) servers.push_back(s.get());
  // Drop every client<->server-1 message for the first 40 ms; afterwards
  // the link heals and a retry gets through.
  FaultPlan plan;
  LinkFault lf;
  lf.a = rig.client().node_id();
  lf.b = rig.server(1).node_id();
  lf.start = 0;
  lf.end = sim::ms(40);
  lf.drop_p = 1.0;
  plan.links.push_back(lf);
  FaultInjector inj(rig.cluster, rig.fabric, servers, plan);
  inj.start();
  run_sim_void(rig, [](raid::Rig& r, FaultInjector* in) -> sim::Task<void> {
    RpcPolicy policy;
    policy.timeout = sim::ms(25);
    policy.max_attempts = 4;
    auto resp = co_await r.client().rpc(1, ping(), policy);
    EXPECT_TRUE(resp.ok);
    EXPECT_GE(r.client().rpc_stats().retries, 1u);
    EXPECT_GE(r.client().rpc_stats().timeouts, 1u);
    EXPECT_GE(in->stats().msgs_dropped, 1u);
  }(rig, &inj));
}

TEST(RpcRetry, ResetSurfacesAsConnDropped) {
  raid::Rig rig(rig_params());
  std::vector<pvfs::IoServer*> servers;
  for (auto& s : rig.servers) servers.push_back(s.get());
  FaultPlan plan;
  LinkFault lf;
  lf.a = rig.client().node_id();
  lf.b = rig.server(3).node_id();
  lf.start = 0;
  lf.end = sim::sec(10);
  lf.reset_p = 1.0;
  plan.links.push_back(lf);
  FaultInjector inj(rig.cluster, rig.fabric, servers, plan);
  inj.start();
  run_sim_void(rig, [](raid::Rig& r, FaultInjector* in) -> sim::Task<void> {
    RpcPolicy policy;
    policy.timeout = sim::ms(25);
    policy.max_attempts = 2;
    auto resp = co_await r.client().rpc(3, ping(), policy);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.err, Errc::conn_dropped);
    EXPECT_EQ(r.client().rpc_stats().resets, 2u);
    EXPECT_EQ(in->stats().msgs_reset, 2u);
    // A reset never reaches the wire, so nothing was dropped or delayed.
    EXPECT_EQ(in->stats().msgs_dropped, 0u);
  }(rig, &inj));
}

// --- metadata path: retried meta-RPCs must be idempotent ---

TEST(MetaRetry, RetriedCreateIsIdempotent) {
  raid::Rig rig(rig_params());
  std::vector<pvfs::IoServer*> servers;
  for (auto& s : rig.servers) servers.push_back(s.get());
  // Drop every manager->client reply for the first 40 ms: the create
  // executes, its reply dies, and the retry must be answered from the
  // manager's dedup table — not re-executed into `already_exists`.
  FaultPlan plan;
  LinkFault lf;
  lf.a = rig.manager->node_id();
  lf.b = rig.client().node_id();
  lf.bidirectional = false;
  lf.start = 0;
  lf.end = sim::ms(40);
  lf.drop_p = 1.0;
  plan.links.push_back(lf);
  FaultInjector inj(rig.cluster, rig.fabric, servers, plan);
  inj.start();
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    RpcPolicy policy;
    policy.timeout = sim::ms(25);
    policy.max_attempts = 4;
    policy.jitter = 0.0;
    r.client().set_rpc_policy(policy);
    auto f = co_await r.client().create("idem", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    EXPECT_EQ(r.manager->file_count(), 1u);
    EXPECT_GE(r.manager->stats().dedup_hits, 1u);
    EXPECT_GE(r.manager->stats().dropped_replies, 1u);
    auto f2 = co_await r.client().open("idem");
    CO_ASSERT_TRUE(f2.ok());
    EXPECT_EQ(f2->handle, f->handle);
  }(rig));
}

TEST(MetaRetry, LossyLinkCreateOpenSetScheme) {
  raid::Rig rig(rig_params());
  std::vector<pvfs::IoServer*> servers;
  for (auto& s : rig.servers) servers.push_back(s.get());
  // A coin-flip loss in both directions: committed ops must never surface
  // as failures (already_exists / stale_generation) to the caller.
  FaultPlan plan;
  LinkFault lf;
  lf.a = rig.client().node_id();
  lf.b = rig.manager->node_id();
  lf.start = 0;
  lf.end = sim::ms(50);
  lf.drop_p = 0.5;
  plan.links.push_back(lf);
  FaultInjector inj(rig.cluster, rig.fabric, servers, plan);
  inj.start();
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    RpcPolicy policy;
    policy.timeout = sim::ms(20);
    policy.max_attempts = 6;
    r.client().set_rpc_policy(policy);
    auto f = co_await r.client().create("lossy", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    auto o = co_await r.client().open("lossy");
    CO_ASSERT_TRUE(o.ok());
    EXPECT_EQ(o->handle, f->handle);
    auto s = co_await r.client().set_redundancy(
        "lossy", raid::scheme_tag(raid::Scheme::raid1), 1, kRgroupUnset);
    CO_ASSERT_TRUE(s.ok());
    auto fin = co_await r.client().open("lossy");
    CO_ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin->red_gen, 1u);
    EXPECT_EQ(r.manager->file_count(), 1u);
  }(rig));
}

TEST(MetaRetry, ResettingLinkMetaOpsRecover) {
  raid::Rig rig(rig_params());
  std::vector<pvfs::IoServer*> servers;
  for (auto& s : rig.servers) servers.push_back(s.get());
  FaultPlan plan;
  LinkFault lf;
  lf.a = rig.client().node_id();
  lf.b = rig.manager->node_id();
  lf.start = 0;
  lf.end = sim::ms(30);
  lf.reset_p = 1.0;
  plan.links.push_back(lf);
  FaultInjector inj(rig.cluster, rig.fabric, servers, plan);
  inj.start();
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    RpcPolicy policy;
    policy.timeout = sim::ms(20);
    policy.max_attempts = 4;
    policy.backoff = sim::ms(20);
    policy.jitter = 0.0;
    r.client().set_rpc_policy(policy);
    // Resets until 30 ms; backoffs (20, 40 ms) carry a retry past the fault
    // window, so the create lands exactly once.
    auto f = co_await r.client().create("reset", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    EXPECT_GE(r.client().rpc_stats().resets, 1u);
    EXPECT_EQ(r.manager->file_count(), 1u);
  }(rig));
}

// A meta op every attempt of which the fabric refused fails with the same
// error as a refused data RPC, not as a timeout.
TEST(MetaRetry, ResetSurfacesAsConnDropped) {
  raid::Rig rig(rig_params());
  std::vector<pvfs::IoServer*> servers;
  for (auto& s : rig.servers) servers.push_back(s.get());
  FaultPlan plan;
  LinkFault lf;
  lf.a = rig.client().node_id();
  lf.b = rig.manager->node_id();
  lf.start = 0;
  lf.end = sim::sec(10);
  lf.reset_p = 1.0;
  plan.links.push_back(lf);
  FaultInjector inj(rig.cluster, rig.fabric, servers, plan);
  inj.start();
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    RpcPolicy policy;
    policy.timeout = sim::ms(25);
    policy.max_attempts = 2;
    r.client().set_rpc_policy(policy);
    auto f = co_await r.client().create("refused", r.layout(64 * 1024));
    CO_ASSERT_TRUE(!f.ok());
    EXPECT_EQ(f.error().code, Errc::conn_dropped);
    EXPECT_EQ(r.client().rpc_stats().resets, 2u);
    EXPECT_EQ(r.manager->file_count(), 0u);
  }(rig));
}

TEST(RpcRetry, BackoffJitterIsDeterministicPerSeed) {
  // Two identically-seeded clients issue the same failing call; the total
  // elapsed time (which includes the jittered backoffs) must match exactly.
  sim::Duration elapsed[2];
  for (int i = 0; i < 2; ++i) {
    raid::Rig rig(rig_params());
    rig.client().seed_retry_rng(7);
    rig.server(1).crash();
    run_sim_void(rig,
                 [](raid::Rig& r, sim::Duration* out) -> sim::Task<void> {
                   RpcPolicy policy;
                   policy.timeout = sim::ms(30);
                   policy.max_attempts = 4;
                   const sim::Time before = r.sim.now();
                   auto resp = co_await r.client().rpc(1, ping(), policy);
                   EXPECT_FALSE(resp.ok);
                   *out = r.sim.now() - before;
                 }(rig, &elapsed[i]));
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

}  // namespace
}  // namespace csar::pvfs
