// Op::batch wire protocol: in-order execution with per-sub responses,
// server-side merging of adjacent reads, atomic ascending-key lock
// acquisition, owner-checked explicit unlock, rpc_all's redundancy-only
// coalescing, and bit-determinism of the batched RMW path.
#include <gtest/gtest.h>

#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "sim/sync.hpp"
#include "test_util.hpp"

namespace csar::pvfs {
namespace {

using csar::test::run_sim;
using csar::test::run_sim_void;
using raid::Rig;
using raid::RigParams;
using raid::Scheme;

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme = Scheme::hybrid,
                     std::uint32_t nclients = 1) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 3;
  p.nclients = nclients;
  return p;
}

/// Direct-RPC fixture: drive a single server through the client's batches.
struct Fx {
  Rig rig;
  explicit Fx(RigParams p = rig_params()) : rig(p) {}

  Request make(Op op, std::uint64_t handle) {
    Request r;
    r.op = op;
    r.handle = handle;
    r.su = kSu;
    return r;
  }
};

TEST(Batch, ExecutesSubsInOrderWithPerSubResponses) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    std::vector<Request> subs;
    Request w1 = f.make(Op::write_data, 7);
    w1.off = 0;
    w1.payload = Buffer::pattern(600, 1);
    subs.push_back(std::move(w1));
    Request w2 = f.make(Op::write_data, 7);
    w2.off = 100;
    w2.payload = Buffer::pattern(300, 2);
    subs.push_back(std::move(w2));
    Request rd = f.make(Op::read_data, 7);
    rd.off = 0;
    rd.len = 600;
    subs.push_back(std::move(rd));

    auto rs = co_await f.rig.client().rpc_batch(0, std::move(subs));
    CO_ASSERT_EQ(rs.size(), 3u);
    for (const auto& r : rs) {
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.server, 0);
    }
    // In-order execution: the second write overlays the first, and the
    // trailing read observes both.
    Buffer expect = Buffer::pattern(600, 1);
    expect.write_at(100, Buffer::pattern(300, 2));
    EXPECT_EQ(rs[2].data, expect);
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 1u);
    EXPECT_EQ(f.rig.server(0).batch_stats().subs, 3u);
  }(fx));
}

TEST(Batch, SingleSubAndDisabledBatchingDegradeToPlainRpc) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    std::vector<Request> one;
    Request w = f.make(Op::write_data, 7);
    w.off = 0;
    w.payload = Buffer::pattern(kSu, 1);
    one.push_back(std::move(w));
    auto rs = co_await f.rig.client().rpc_batch(0, std::move(one));
    CO_ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 0u);

    // The ablation switch must reproduce the legacy wire traffic exactly:
    // no envelopes, one message per request, same results.
    f.rig.client().set_rpc_batching(false);
    std::vector<Request> two;
    Request a = f.make(Op::read_data, 7);
    a.off = 0;
    a.len = kSu;
    two.push_back(std::move(a));
    Request b = f.make(Op::read_data, 7);
    b.off = 0;
    b.len = 100;
    two.push_back(std::move(b));
    auto rs2 = co_await f.rig.client().rpc_batch(0, std::move(two));
    CO_ASSERT_EQ(rs2.size(), 2u);
    EXPECT_TRUE(rs2[0].ok);
    EXPECT_TRUE(rs2[1].ok);
    EXPECT_EQ(rs2[0].data, Buffer::pattern(kSu, 1));
    EXPECT_EQ(rs2[1].data, Buffer::pattern(100, 1));
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 0u);
  }(fx));
}

TEST(Batch, AdjacentReadsMergeIntoOneCacheAccess) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 7);
    w.off = 0;
    w.payload = Buffer::pattern(2 * kSu, 3);
    auto wr = co_await f.rig.client().rpc(0, std::move(w));
    CO_ASSERT_TRUE(wr.ok);
    Request fl = f.make(Op::flush, 7);
    (void)co_await f.rig.client().rpc(0, std::move(fl));
    f.rig.drop_all_caches();

    // Two adjacent raw reads in one batch: served by a single covering
    // page-cache read — one contiguous miss run on the disk — then sliced
    // back into per-sub responses.
    const std::uint64_t runs0 =
        f.rig.server(0).fs().cache().stats().miss_runs;
    std::vector<Request> subs;
    for (int i = 0; i < 2; ++i) {
      Request rd = f.make(Op::read_data_raw, 7);
      rd.off = static_cast<std::uint64_t>(i) * kSu;
      rd.len = kSu;
      subs.push_back(std::move(rd));
    }
    auto rs = co_await f.rig.client().rpc_batch(0, std::move(subs));
    CO_ASSERT_EQ(rs.size(), 2u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_TRUE(rs[1].ok);
    EXPECT_EQ(rs[0].data, Buffer::pattern(2 * kSu, 3).slice(0, kSu));
    EXPECT_EQ(rs[1].data, Buffer::pattern(2 * kSu, 3).slice(kSu, kSu));
    EXPECT_EQ(f.rig.server(0).batch_stats().merged_reads, 1u);
    EXPECT_EQ(f.rig.server(0).fs().cache().stats().miss_runs, runs0 + 1);

    // Non-adjacent order (descending offsets) must not merge.
    std::vector<Request> rev;
    for (int i = 1; i >= 0; --i) {
      Request rd = f.make(Op::read_data_raw, 7);
      rd.off = static_cast<std::uint64_t>(i) * kSu;
      rd.len = kSu;
      rev.push_back(std::move(rd));
    }
    auto rs2 = co_await f.rig.client().rpc_batch(0, std::move(rev));
    CO_ASSERT_EQ(rs2.size(), 2u);
    EXPECT_EQ(f.rig.server(0).batch_stats().merged_reads, 1u);
  }(fx));
}

TEST(Batch, ContendingBatchesAcquireLocksInAscendingKeyOrder) {
  Fx fx(rig_params(Scheme::hybrid, /*nclients=*/2));
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    // Two clients batch locking reads of the same two parity blocks in
    // OPPOSITE sub order. The server sorts each batch's acquisitions by
    // ascending key before taking any of them, so the inversion cannot
    // deadlock — without that rule this test would hang until the lease.
    auto locker = [](Fx* f, std::uint32_t c,
                     bool forward) -> sim::Task<void> {
      std::vector<Request> subs;
      for (int i = 0; i < 2; ++i) {
        Request rr = f->make(Op::read_red, 11);
        rr.off = static_cast<std::uint64_t>(forward ? i : 1 - i) * kSu;
        rr.len = kSu;
        rr.lock = true;
        subs.push_back(std::move(rr));
      }
      auto rs = co_await f->rig.client(c).rpc_batch(0, std::move(subs));
      for (const auto& r : rs) EXPECT_TRUE(r.ok);
      for (int i = 0; i < 2; ++i) {
        Request wr = f->make(Op::write_red, 11);
        wr.off = static_cast<std::uint64_t>(i) * kSu;
        wr.payload = Buffer::pattern(kSu, 5);
        wr.unlock = true;
        auto resp = co_await f->rig.client(c).rpc(0, std::move(wr));
        EXPECT_TRUE(resp.ok);
      }
    };
    auto h1 = f.rig.sim.spawn(locker(&f, 0, true));
    auto h2 = f.rig.sim.spawn(locker(&f, 1, false));
    co_await h1.join();
    co_await h2.join();
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 4u);
    EXPECT_GE(f.rig.server(0).lock_stats().waits, 1u);
    EXPECT_EQ(f.rig.server(0).lock_stats().lease_expirations, 0u);
  }(fx));
}

TEST(Batch, UnlockRedHonoursOnlyTheOwner) {
  Fx fx(rig_params(Scheme::hybrid, /*nclients=*/2));
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request lk = f.make(Op::read_red, 9);
    lk.off = 0;
    lk.len = kSu;
    lk.lock = true;
    auto held = co_await f.rig.client(0).rpc(0, std::move(lk));
    CO_ASSERT_TRUE(held.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 1u);

    // A stranger's unlock is a no-op: only the recorded owner may release.
    Request bogus = f.make(Op::unlock_red, 9);
    bogus.off = 0;
    auto br = co_await f.rig.client(1).rpc(0, std::move(bogus));
    EXPECT_TRUE(br.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().explicit_releases, 0u);

    // The owner's unlock releases immediately — no parity write, no lease
    // wait — and the next locking read proceeds without queueing.
    const sim::Time t0 = f.rig.sim.now();
    Request mine = f.make(Op::unlock_red, 9);
    mine.off = 0;
    auto mr = co_await f.rig.client(0).rpc(0, std::move(mine));
    EXPECT_TRUE(mr.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().explicit_releases, 1u);

    Request again = f.make(Op::read_red, 9);
    again.off = 0;
    again.len = kSu;
    again.lock = true;
    auto ar = co_await f.rig.client(1).rpc(0, std::move(again));
    EXPECT_TRUE(ar.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 2u);
    EXPECT_EQ(f.rig.server(0).lock_stats().waits, 0u);
    EXPECT_LT(f.rig.sim.now() - t0, sim::ms(100));

    Request done = f.make(Op::unlock_red, 9);
    done.off = 0;
    (void)co_await f.rig.client(1).rpc(0, std::move(done));
    EXPECT_EQ(f.rig.server(0).lock_stats().explicit_releases, 2u);
  }(fx));
}

TEST(Batch, RpcAllCoalescesOnlyRedundancyClassRequests) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request seed = f.make(Op::write_data, 7);
    seed.off = 0;
    seed.payload = Buffer::pattern(2 * kSu, 4);
    (void)co_await f.rig.client().rpc(0, std::move(seed));

    // Two redundancy-class reads + two bulk reads, all to server 0: only
    // the redundancy pair may share an envelope — bulk responses must
    // pipeline as their own messages.
    std::vector<std::pair<std::uint32_t, Request>> reqs;
    Request r1 = f.make(Op::read_red, 7);
    r1.off = 0;
    r1.len = kSu;
    reqs.emplace_back(0, std::move(r1));
    Request d1 = f.make(Op::read_data, 7);
    d1.off = 0;
    d1.len = kSu;
    reqs.emplace_back(0, std::move(d1));
    Request r2 = f.make(Op::read_red, 7);
    r2.off = kSu;
    r2.len = kSu;
    reqs.emplace_back(0, std::move(r2));
    Request d2 = f.make(Op::read_data, 7);
    d2.off = kSu;
    d2.len = kSu;
    reqs.emplace_back(0, std::move(d2));
    auto rs = co_await f.rig.client().rpc_all(std::move(reqs));
    CO_ASSERT_EQ(rs.size(), 4u);
    for (const auto& r : rs) EXPECT_TRUE(r.ok);
    // Responses come back in request order regardless of grouping.
    EXPECT_EQ(rs[1].data, Buffer::pattern(2 * kSu, 4).slice(0, kSu));
    EXPECT_EQ(rs[3].data, Buffer::pattern(2 * kSu, 4).slice(kSu, kSu));
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 1u);
    EXPECT_EQ(f.rig.server(0).batch_stats().subs, 2u);
  }(fx));
}

TEST(Batch, RpcAllWithBatchingOffSendsNoEnvelopes) {
  RigParams p = rig_params();
  p.rpc_batching = false;
  Fx fx(p);
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    std::vector<std::pair<std::uint32_t, Request>> reqs;
    for (int i = 0; i < 2; ++i) {
      Request rr = f.make(Op::read_red, 7);
      rr.off = static_cast<std::uint64_t>(i) * kSu;
      rr.len = kSu;
      reqs.emplace_back(0, std::move(rr));
    }
    auto rs = co_await f.rig.client().rpc_all(std::move(reqs));
    CO_ASSERT_EQ(rs.size(), 2u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_TRUE(rs[1].ok);
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 0u);
  }(fx));
}

/// A RAID5 RMW whose head and tail partial groups (0 and 3) share one
/// parity server: the batched lock+read phase really produces envelopes.
sim::Time straddle_end(std::uint64_t* batches) {
  RigParams p = rig_params(Scheme::raid5);
  Rig rig(p);
  const sim::Time end =
      run_sim(rig, [](Rig& r) -> sim::Task<sim::Time> {
        auto f = co_await r.client_fs().create("f", r.layout(kSu));
        if (!f.ok()) co_return sim::Time{0};
        const std::uint64_t width = f->layout.stripe_width();
        for (int i = 0; i < 8; ++i) {
          auto wr = co_await r.client_fs().write(
              *f, width - 2 * 1024,
              Buffer::pattern(2 * width + 4 * 1024,
                              static_cast<std::uint8_t>(i + 1)));
          if (!wr.ok()) co_return sim::Time{0};
        }
        const bool consistent = co_await csar::test::parity_consistent(
            r, *f, 4 * f->layout.stripe_width());
        EXPECT_TRUE(consistent);
        co_return r.sim.now();
      }(rig));
  for (std::uint32_t s = 0; s < rig.p.nservers; ++s) {
    *batches += rig.server(s).batch_stats().batches;
  }
  return end;
}

TEST(Batch, StraddlingRmwIsBitDeterministic) {
  std::uint64_t batches1 = 0;
  std::uint64_t batches2 = 0;
  const sim::Time end1 = straddle_end(&batches1);
  const sim::Time end2 = straddle_end(&batches2);
  EXPECT_GT(end1, sim::Time{0});
  EXPECT_GT(batches1, 0u);  // the batched lock+read phase actually ran
  EXPECT_EQ(end1, end2);
  EXPECT_EQ(batches1, batches2);
}

// rpc_all skips building envelope groups when no server would get two
// redundancy-class requests. These pin that its one-request path puts the
// same messages on the wire as the grouped path.

/// Records every fabric transfer (time, endpoints, payload bytes).
struct WireLog : net::FabricHook {
  struct Msg {
    sim::Time t;
    hw::NodeId src;
    hw::NodeId dst;
    std::uint64_t bytes;
    bool operator==(const Msg&) const = default;
  };
  sim::Simulation* sim = nullptr;
  std::vector<Msg> msgs;
  Verdict on_transfer(hw::NodeId src, hw::NodeId dst,
                      std::uint64_t bytes) override {
    msgs.push_back({sim->now(), src, dst, bytes});
    return {};
  }
};

/// A Hybrid partial write's two requests: the primary overflow copy to its
/// server and the mirror copy to the successor.
std::vector<std::pair<std::uint32_t, Request>> hybrid_partial_requests() {
  std::vector<std::pair<std::uint32_t, Request>> reqs;
  for (const bool mirror : {false, true}) {
    Request r;
    r.op = Op::write_overflow;
    r.handle = 9;
    r.off = 512;
    r.payload = Buffer::pattern(3000, 4);
    r.owner = 1;
    r.mirror = mirror;
    r.su = kSu;
    reqs.emplace_back(mirror ? 2u : 1u, std::move(r));
  }
  return reqs;
}

/// Send `reqs` through rpc_all (`grouped` = false), or as the grouped path
/// sends them: one rpc_batch per envelope group, all concurrently.
std::vector<WireLog::Msg> send_logged(
    bool grouped, std::vector<std::pair<std::uint32_t, Request>> reqs,
    std::uint64_t* envelopes) {
  Rig rig(rig_params());
  WireLog log;
  log.sim = &rig.sim;
  rig.fabric.set_fault_hook(&log);
  run_sim_void(rig, [](Rig& r, bool g, decltype(reqs) rs) -> sim::Task<void> {
    std::vector<Response> out;
    if (!g) {
      out = co_await r.client().rpc_all(std::move(rs));
    } else {
      out.resize(rs.size());
      std::vector<sim::Task<void>> groups;
      for (std::size_t i = 0; i < rs.size(); ++i) {
        std::vector<Request> subs;
        subs.push_back(std::move(rs[i].second));
        groups.push_back([](Client& c, std::uint32_t s,
                            std::vector<Request> sub,
                            Response* slot) -> sim::Task<void> {
          *slot = std::move((co_await c.rpc_batch(s, std::move(sub)))[0]);
        }(r.client(), rs[i].first, std::move(subs), &out[i]));
      }
      co_await sim::when_all(r.sim, std::move(groups));
    }
    for (const auto& resp : out) EXPECT_TRUE(resp.ok);
  }(rig, grouped, std::move(reqs)));
  for (std::uint32_t s = 0; s < rig.p.nservers; ++s) {
    *envelopes += rig.server(s).batch_stats().batches;
  }
  rig.fabric.set_fault_hook(nullptr);
  return log.msgs;
}

TEST(Batch, OneRequestPathMatchesGroupedPathForHybridPartialWrite) {
  std::uint64_t env_fast = 0;
  std::uint64_t env_grouped = 0;
  const auto fast = send_logged(false, hybrid_partial_requests(), &env_fast);
  const auto grouped =
      send_logged(true, hybrid_partial_requests(), &env_grouped);
  EXPECT_EQ(fast.size(), 4u);  // two requests, two replies
  EXPECT_EQ(fast, grouped);    // same messages, same bytes, same times
  EXPECT_EQ(env_fast, 0u);
  EXPECT_EQ(env_grouped, 0u);
}

TEST(Batch, RaidRmwWithTwoCodingUnitsOnOneServerStillSharesAnEnvelope) {
  // 4 servers, 4 KiB units: groups of 3 units. A write from the middle of
  // group 0 to the middle of group 4 leaves partial groups 0 and 4, whose
  // parity both lives on server 3 (group g's parity server is
  // (g + 1) * 3 mod 4). The lock phase sends server 3 one envelope with
  // both locked reads, and rpc_all's write phase one with both parity
  // writes: two redundancy-class requests for one server take the
  // grouped path.
  RigParams p = rig_params(Scheme::raid5);
  p.nservers = 4;
  Rig rig(p);
  WireLog log;
  log.sim = &rig.sim;
  rig.fabric.set_fault_hook(&log);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t width = f->layout.stripe_width();
    CO_ASSERT_EQ(f->layout.coding_server(0, 3, 0), 3u);
    CO_ASSERT_EQ(f->layout.coding_server(4, 3, 0), 3u);
    auto wr = co_await r.client_fs().write(
        *f, width / 2, Buffer::pattern(4 * width, 5));
    EXPECT_TRUE(wr.ok());
  }(rig));
  rig.fabric.set_fault_hook(nullptr);
  EXPECT_EQ(rig.server(3).batch_stats().batches, 2u);
  EXPECT_EQ(rig.server(3).batch_stats().subs, 4u);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(rig.server(s).batch_stats().batches, 0u) << "server " << s;
  }
  // Every message the client sent to server 3 is an envelope: no parity
  // request travelled on its own.
  const hw::NodeId client = rig.client().node_id();
  std::size_t to_parity = 0;
  for (const auto& m : log.msgs) {
    if (m.src == client && m.dst == rig.server(3).node_id()) ++to_parity;
  }
  EXPECT_EQ(to_parity, 2u + 1u);  // two envelopes + the data write
}

}  // namespace
}  // namespace csar::pvfs
