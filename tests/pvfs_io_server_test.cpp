// White-box I/O server protocol tests: request routing, overflow table
// semantics, invalidation edges, lock keying, failure responses, and the
// per-connection stream classes.
#include "pvfs/io_server.hpp"

#include <gtest/gtest.h>

#include "raid/diagnostics.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::pvfs {
namespace {

using csar::test::run_sim_void;
using raid::Rig;
using raid::RigParams;
using raid::Scheme;

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme = Scheme::hybrid) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 3;
  return p;
}

/// Direct-RPC fixture: drive a single server through the client's rpc().
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

TEST(IoServer, WriteThenReadData) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 7);
    w.off = 100;
    w.payload = Buffer::pattern(500, 1);
    auto wr = co_await f.rig.client().rpc(0, std::move(w));
    EXPECT_TRUE(wr.ok);

    Request r = f.make(Op::read_data, 7);
    r.off = 100;
    r.len = 500;
    auto rd = co_await f.rig.client().rpc(0, std::move(r));
    EXPECT_TRUE(rd.ok);
    EXPECT_EQ(rd.data, Buffer::pattern(500, 1));
  }(fx));
}

TEST(IoServer, OverflowEntryOverlaysDataFile) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request base = f.make(Op::write_data, 7);
    base.off = 0;
    base.payload = Buffer::pattern(2 * kSu, 1);
    (void)co_await f.rig.client().rpc(0, std::move(base));

    Request ov = f.make(Op::write_overflow, 7);
    ov.off = 100;
    ov.payload = Buffer::pattern(300, 2);
    ov.owner = 0;
    (void)co_await f.rig.client().rpc(0, std::move(ov));

    Request r = f.make(Op::read_data, 7);
    r.off = 0;
    r.len = kSu;
    auto rd = co_await f.rig.client().rpc(0, std::move(r));
    Buffer expect = Buffer::pattern(kSu, 1);
    expect.write_at(100, Buffer::pattern(300, 2));
    EXPECT_EQ(rd.data, expect);

    // Raw reads bypass the overlay: the base content is unchanged.
    Request raw = f.make(Op::read_data_raw, 7);
    raw.off = 0;
    raw.len = kSu;
    auto rd2 = co_await f.rig.client().rpc(0, std::move(raw));
    EXPECT_EQ(rd2.data, Buffer::pattern(kSu, 1));
  }(fx));
}

TEST(IoServer, InvalidationDropsOwnAndMirrorEntries) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    // Own entry on server 0, mirror entry (owner 2) also on server 0.
    Request own = f.make(Op::write_overflow, 7);
    own.off = 0;
    own.payload = Buffer::pattern(kSu, 1);
    own.owner = 0;
    (void)co_await f.rig.client().rpc(0, std::move(own));
    Request mirror = f.make(Op::write_overflow, 7);
    mirror.off = 5 * kSu;
    mirror.payload = Buffer::pattern(kSu, 2);
    mirror.owner = 2;
    mirror.mirror = true;
    (void)co_await f.rig.client().rpc(0, std::move(mirror));

    // A data write carrying both invalidation ranges.
    Request w = f.make(Op::write_data, 7);
    w.off = 0;
    w.payload = Buffer::pattern(kSu, 3);
    w.inval_own = {0, kSu};
    w.inval_mirror = {5 * kSu, 6 * kSu};
    (void)co_await f.rig.client().rpc(0, std::move(w));

    // The own entry no longer overlays...
    Request r = f.make(Op::read_data, 7);
    r.off = 0;
    r.len = kSu;
    auto rd = co_await f.rig.client().rpc(0, std::move(r));
    EXPECT_EQ(rd.data, Buffer::pattern(kSu, 3));
    // ...and the mirror table is empty for the invalidated range.
    Request rm = f.make(Op::read_mirror, 7);
    rm.off = 0;
    rm.len = 100 * kSu;
    rm.owner = 2;
    auto mirrors = co_await f.rig.client().rpc(0, std::move(rm));
    EXPECT_TRUE(mirrors.pieces.empty());
  }(fx));
}

TEST(IoServer, OverflowAllocationRoundsToStripeUnits) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      Request ov = f.make(Op::write_overflow, 9);
      ov.off = static_cast<std::uint64_t>(i) * kSu;
      ov.payload = Buffer::pattern(10, i);  // tiny
      ov.owner = 0;
      (void)co_await f.rig.client().rpc(0, std::move(ov));
    }
    Request q = f.make(Op::storage_query, 9);
    auto resp = co_await f.rig.client().rpc(0, std::move(q));
    EXPECT_EQ(resp.storage.overflow_bytes, 3u * kSu);
  }(fx));
}

TEST(IoServer, FailedServerRejectsEveryOp) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    f.rig.server(1).fail();
    for (Op op : {Op::read_data, Op::write_data, Op::read_red,
                  Op::write_red, Op::write_overflow, Op::flush,
                  Op::storage_query}) {
      Request r = f.make(op, 7);
      r.len = kSu;
      r.payload = Buffer::pattern(16, 0);
      auto resp = co_await f.rig.client().rpc(1, std::move(r));
      EXPECT_FALSE(resp.ok) << op_name(op);
      EXPECT_EQ(resp.err, Errc::server_failed) << op_name(op);
    }
  }(fx));
}

TEST(IoServer, LocksAreKeyedPerHandleAndBlock) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    // Lock (handle 7, block 0).
    Request r1 = f.make(Op::read_red, 7);
    r1.off = 0;
    r1.len = kSu;
    r1.lock = true;
    (void)co_await f.rig.client().rpc(0, std::move(r1));
    // A different block and a different handle proceed immediately...
    Request r2 = f.make(Op::read_red, 7);
    r2.off = kSu;  // block 1
    r2.len = kSu;
    r2.lock = true;
    auto resp2 = co_await f.rig.client().rpc(0, std::move(r2));
    EXPECT_TRUE(resp2.ok);
    Request r3 = f.make(Op::read_red, 8);
    r3.off = 0;
    r3.len = kSu;
    r3.lock = true;
    auto resp3 = co_await f.rig.client().rpc(0, std::move(r3));
    EXPECT_TRUE(resp3.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 3u);
    EXPECT_EQ(f.rig.server(0).lock_stats().waits, 0u);
    // Release all three so teardown is clean.
    for (auto [h, off] : {std::pair<std::uint64_t, std::uint64_t>{7, 0},
                          {7, kSu},
                          {8, 0}}) {
      Request w = f.make(Op::write_red, h);
      w.off = off;
      w.payload = Buffer::pattern(kSu, 0);
      w.unlock = true;
      (void)co_await f.rig.client().rpc(0, std::move(w));
    }
  }(fx));
}

TEST(IoServer, TotalStorageAggregatesHandles) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    for (std::uint64_t h : {1ull, 2ull}) {
      Request w = f.make(Op::write_data, h);
      w.off = 0;
      w.payload = Buffer::pattern(kSu, h);
      (void)co_await f.rig.client().rpc(0, std::move(w));
    }
    const auto total = f.rig.server(0).total_storage();
    EXPECT_EQ(total.data_bytes, 2u * kSu);
  }(fx));
}

TEST(IoServer, DiagnosticsTableRenders) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 1);
    w.payload = Buffer::pattern(kSu, 1);
    (void)co_await f.rig.client().rpc(0, std::move(w));
    co_return;
  }(fx));
  const std::string table = raid::rig_stats_table(fx.rig).to_string();
  EXPECT_NE(table.find("s0"), std::string::npos);
  EXPECT_NE(table.find("cache hit%"), std::string::npos);
}

/// The diagnostics table's row for server `s`.
std::string stats_row(Rig& rig, std::uint32_t s) {
  const std::string table = raid::rig_stats_table(rig).to_string();
  const std::size_t at = table.find("\ns" + std::to_string(s) + " ");
  if (at == std::string::npos) return {};
  return table.substr(at + 1, table.find('\n', at + 1) - at - 1);
}

TEST(IoServer, WriteAllocationsAreNotCacheMisses) {
  Fx fx;
  const hw::PageCache& cache =
      *fx.rig.cluster.node(fx.rig.server(0).node_id()).cache();
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 1);
    w.payload = Buffer::pattern(4 * kSu, 1);
    (void)co_await f.rig.client().rpc(0, std::move(w));
  }(fx));
  // Fresh pages that a write fills read nothing from disk.
  EXPECT_EQ(cache.stats().write_allocs, 4u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // A pure write stream has no hit ratio, rather than a 0% one.
  const std::string written = stats_row(fx.rig, 0);
  ASSERT_FALSE(written.empty());
  EXPECT_NE(written.find(" - "), std::string::npos) << written;

  fx.rig.drop_all_caches();
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request r = f.make(Op::read_data, 1);
    r.len = 4 * kSu;
    (void)co_await f.rig.client().rpc(0, std::move(r));
  }(fx));
  // Reading the dropped pages back misses on each; the writes stay apart.
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().write_allocs, 4u);
  const std::string read = stats_row(fx.rig, 0);
  EXPECT_EQ(read.find(" - "), std::string::npos) << read;
}

// Handle-resolved files: a handle's local files are cached in its state
// after the first resolution, and must follow removals, generation drops,
// compaction and disk wipes exactly as name lookups would.

/// Send `r` to server 0; whether it succeeded.
sim::Task<bool> sent(Fx& f, Request r) {
  const Response resp = co_await f.rig.client().rpc(0, std::move(r));
  co_return resp.ok;
}

/// The first `len` bytes server 0 returns for handle 7 through `op`
/// (redundancy reads: of generation `gen`).
sim::Task<Buffer> fetch(Fx& f, Op op, std::uint64_t len,
                        std::uint32_t gen = 0) {
  Request r = f.make(op, 7);
  r.len = len;
  r.red_gen = gen;
  Response resp = co_await f.rig.client().rpc(0, std::move(r));
  EXPECT_TRUE(resp.ok);
  co_return std::move(resp.data);
}

TEST(IoServer, CachedDataFileFollowsRemoveAndRecreate) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 7);
    w.payload = Buffer::pattern(2 * kSu, 1);
    EXPECT_TRUE(co_await sent(f, std::move(w)));
    EXPECT_TRUE(co_await sent(f, f.make(Op::remove_file, 7)));
    EXPECT_FALSE(f.rig.server(0).fs().exists(IoServer::data_name(7)));

    Request w2 = f.make(Op::write_data, 7);
    w2.payload = Buffer::pattern(100, 2);
    EXPECT_TRUE(co_await sent(f, std::move(w2)));
    const Buffer got = co_await fetch(f, Op::read_data, 2 * kSu);
    Buffer expect = Buffer::real(2 * kSu);
    expect.write_at(0, Buffer::pattern(100, 2));
    EXPECT_EQ(got, expect);
    EXPECT_EQ(f.rig.server(0).fs().size(IoServer::data_name(7)), 100u);
  }(fx));
}

TEST(IoServer, CachedRedundancyFileFollowsGenerationDrop) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    for (std::uint32_t gen : {0u, 1u}) {
      Request w = f.make(Op::write_red, 7);
      w.red_gen = gen;
      w.payload = Buffer::pattern(kSu, 10 + gen);
      EXPECT_TRUE(co_await sent(f, std::move(w)));
    }
    const Buffer gen0 = co_await fetch(f, Op::read_red, kSu, 0);
    const Buffer gen1 = co_await fetch(f, Op::read_red, kSu, 1);
    EXPECT_EQ(gen0, Buffer::pattern(kSu, 10));
    EXPECT_EQ(gen1, Buffer::pattern(kSu, 11));
    Request drop = f.make(Op::drop_red, 7);
    drop.red_gen = 0;
    EXPECT_TRUE(co_await sent(f, std::move(drop)));
    const Buffer gen0_dropped = co_await fetch(f, Op::read_red, kSu, 0);
    const Buffer gen1_kept = co_await fetch(f, Op::read_red, kSu, 1);
    EXPECT_EQ(gen0_dropped, Buffer::real(kSu));
    EXPECT_EQ(gen1_kept, Buffer::pattern(kSu, 11));
  }(fx));
}

TEST(IoServer, CachedOverflowFileFollowsCompactionAndWipe) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    // Two overlapping overflow writes: the first one's space is dead.
    for (std::uint64_t seed : {1u, 2u}) {
      Request w = f.make(Op::write_overflow, 7);
      w.payload = Buffer::pattern(kSu, seed);
      EXPECT_TRUE(co_await sent(f, std::move(w)));
    }
    const Buffer before = co_await fetch(f, Op::read_data, kSu);
    EXPECT_EQ(before, Buffer::pattern(kSu, 2));
    const Response comp =
        co_await f.rig.client().rpc(0, f.make(Op::compact_overflow, 7));
    EXPECT_TRUE(comp.ok);
    EXPECT_EQ(comp.storage.overflow_bytes, kSu);
    const Buffer compacted = co_await fetch(f, Op::read_data, kSu);
    EXPECT_EQ(compacted, Buffer::pattern(kSu, 2));
    f.rig.server(0).wipe();
    const Buffer wiped = co_await fetch(f, Op::read_data, kSu);
    EXPECT_EQ(wiped, Buffer::real(kSu));
  }(fx));
}

// A compaction parked on its overflow reads (or between its rewrites) when
// the handle is removed or the disk wiped must not resolve the overflow
// file again by name: that would recreate it, linked, and fill it with the
// vanished handle's pieces.
enum class Vanish { remove, wipe };

/// Compact handle 7 on server 0 and make it vanish `after` later. Returns
/// whether the vanishing landed before the compaction finished.
bool vanish_during_compaction(Vanish how, sim::Duration after) {
  Fx fx;
  bool raced = false;
  run_sim_void(fx.rig, [](Fx& f, Vanish v, sim::Duration delay,
                          bool* hit) -> sim::Task<void> {
    constexpr int kPieces = 16;
    for (int i = 0; i < kPieces; ++i) {
      Request w = f.make(Op::write_overflow, 7);
      w.off = static_cast<std::uint64_t>(i) * kSu;
      w.payload = Buffer::pattern(kSu, static_cast<std::uint64_t>(i) + 1);
      EXPECT_TRUE(co_await sent(f, std::move(w)));
    }
    bool compacted = false;
    auto comp = f.rig.sim.spawn(
        [](Fx& ff, bool* done) -> sim::Task<void> {
          (void)co_await ff.rig.client().rpc(
              0, ff.make(Op::compact_overflow, 7));
          *done = true;
        }(f, &compacted));
    co_await f.rig.sim.sleep(delay);
    if (v == Vanish::wipe) {
      f.rig.server(0).wipe();
    } else {
      EXPECT_TRUE(co_await sent(f, f.make(Op::remove_file, 7)));
    }
    *hit = !compacted;
    co_await comp.join();
    EXPECT_FALSE(f.rig.server(0).fs().exists(IoServer::ovfl_name(7)))
        << "vanished after " << delay << " ns";
    EXPECT_EQ(f.rig.server(0).fs().total_content_bytes(), 0u);
  }(fx, how, after, &raced));
  return raced;
}

class CompactionRace : public ::testing::TestWithParam<Vanish> {};

TEST_P(CompactionRace, VanishedHandleLeavesNoOverflowFile) {
  int raced = 0;
  for (std::uint64_t t = 0; t <= 400; t += 10) {
    raced += vanish_during_compaction(GetParam(), sim::us(t)) ? 1 : 0;
  }
  EXPECT_GE(raced, 5) << "too few timings landed inside the compaction";
}

INSTANTIATE_TEST_SUITE_P(Vanishes, CompactionRace,
                         ::testing::Values(Vanish::remove, Vanish::wipe),
                         [](const auto& info) {
                           return info.param == Vanish::remove ? "Remove"
                                                               : "Wipe";
                         });

}  // namespace
}  // namespace csar::pvfs
