// Heap-allocation guards for the request path: the allocation analogue of
// hw_test's FrameGuard tests. The counting global operator new of
// bench/alloc_counter.cpp (linked into this binary, not into the libraries)
// pins upper bounds on the heap allocations of warm 16 KiB Hybrid partial
// writes, cache-hit 16 KiB reads and Client::rpc round trips. Each
// count covers everything the simulation does while the operations are in
// flight: client, fabric, I/O servers and page caches.
//
// Counts are taken over kMeasured back-to-back operations after kWarm
// identical ones. The warm-up fills pools, tables and channels; what it
// cannot fully warm is the timer wheel, whose slots allocate on first use
// as simulated time reaches them (about 0.12 per operation here), and the
// files' content and overflow maps, which grow as a write stream appends.
//
// Coroutine frames come from the slab allocator (sim/slab.hpp), which takes
// its chunks from operator new and is warm by the time anything is
// counted. With CSAR_SIM_SLAB=OFF (the sanitizer runs) every frame is a
// heap allocation, so the bounds do not apply and the tests skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "raid/rig.hpp"
#include "sim/slab.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::run_sim_void;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kReq = 16 * kKiB;
constexpr int kWarm = 1000;
constexpr int kMeasured = 100;

/// The openloop_small shape: 8 servers, Hybrid, 64 KiB units, a prefilled
/// 1 MiB phantom file.
RigParams hybrid_rig() {
  RigParams p;
  p.scheme = Scheme::hybrid;
  p.nservers = 8;
  return p;
}

/// Heap allocations made while `op` runs kMeasured times, one after the
/// other, inside the simulation, after kWarm warm-up runs.
template <class Op>
std::uint64_t allocs_of(Rig& rig, Op op) {
  std::uint64_t n = 0;
  run_sim_void(rig, [](Rig& r, Op o, std::uint64_t* out) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("guard", r.layout(64 * kKiB));
    CO_ASSERT_TRUE(f.ok());
    auto fill = co_await r.client_fs().write(*f, 0, Buffer::phantom(1024 * kKiB));
    CO_ASSERT_TRUE(fill.ok());
    for (int i = 0; i < kWarm; ++i) co_await o(r, *f);
    const std::uint64_t before = bench::heap_allocs();
    for (int i = 0; i < kMeasured; ++i) co_await o(r, *f);
    *out = bench::heap_allocs() - before;
  }(rig, op, &n));
  return n;
}

class AllocGuard : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!sim::slab::enabled()) {
      GTEST_SKIP() << "CSAR_SIM_SLAB=OFF: coroutine frames are heap "
                      "allocations, the bounds do not apply";
    }
  }
};

TEST_F(AllocGuard, WarmHybridPartialWrite) {
  Rig rig(hybrid_rig());
  const std::uint64_t n =
      allocs_of(rig, [](Rig& r, pvfs::OpenFile f) -> sim::Task<void> {
        // Inside one unit: a partial stripe, written twice into overflow
        // regions (owner and successor), one RPC each.
        auto w = co_await r.client_fs().write(f, 100 * kKiB,
                                              Buffer::phantom(kReq));
        EXPECT_TRUE(w.ok());
      });
  // Per write: the two-request write vector and the rpc_all response
  // vector; the rest is map growth and the wheel.
  EXPECT_LE(n, 235u) << "over " << kMeasured << " writes";
}

TEST_F(AllocGuard, CacheHitRead) {
  Rig rig(hybrid_rig());
  const std::uint64_t n =
      allocs_of(rig, [](Rig& r, pvfs::OpenFile f) -> sim::Task<void> {
        auto rd = co_await r.client_fs().read(f, 300 * kKiB, kReq);
        EXPECT_TRUE(rd.ok());
        EXPECT_EQ(rd->size(), kReq);
      });
  // Per read: the one-request read vector and the rpc_all response vector.
  EXPECT_LE(n, 215u) << "over " << kMeasured << " reads";
}

TEST_F(AllocGuard, RpcRoundTrip) {
  Rig rig(hybrid_rig());
  const std::uint64_t n =
      allocs_of(rig, [](Rig& r, pvfs::OpenFile f) -> sim::Task<void> {
        pvfs::Request q;
        q.op = pvfs::Op::read_data;
        q.handle = f.handle;
        q.off = 0;
        q.len = kReq;
        q.su = f.layout.stripe_unit;
        auto resp = co_await r.client().rpc(0, std::move(q));
        EXPECT_TRUE(resp.ok);
      });
  // Nothing per round trip: only the timer wheel's first-use slots.
  EXPECT_LE(n, 15u) << "over " << kMeasured << " round trips";
}

// Phantom full-stripe writes build their coding payloads with
// Buffer::deferred_combine; over phantom sources it must give a phantom
// without building a recipe. (No coroutine frames: holds with the slab off.)
TEST(AllocGuardDeferred, PhantomSourcesAllocateNothing) {
  const std::vector<Buffer> srcs(4, Buffer::phantom(kReq));
  const std::vector<std::uint8_t> row{1, 1, 2, 3};
  const Buffer::CombinePart parts[] = {{srcs, row}, {srcs, row}};
  const std::uint64_t before = bench::heap_allocs();
  const Buffer coding = Buffer::deferred_combine(parts);
  EXPECT_EQ(bench::heap_allocs() - before, 0u);
  EXPECT_FALSE(coding.materialized());
  EXPECT_EQ(coding.size(), 2 * kReq);
}

}  // namespace
}  // namespace csar::raid
