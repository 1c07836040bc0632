// The PVFS substrate end-to-end: metadata manager semantics, multi-client
// visibility, flush, storage accounting, and failure error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::pvfs {
namespace {

using csar::test::run_sim_void;
using raid::Rig;
using raid::RigParams;
using raid::Scheme;

constexpr std::uint32_t kSu = 4096;

RigParams raid0_rig(std::uint32_t nclients = 1) {
  RigParams p;
  p.scheme = Scheme::raid0;
  p.nservers = 4;
  p.nclients = nclients;
  return p;
}

TEST(Manager, CreateOpenRemoveLifecycle) {
  Rig rig(raid0_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    auto created = co_await c.create("file-a", r.layout(kSu));
    CO_ASSERT_TRUE(created.ok());
    EXPECT_GT(created->handle, 0u);

    auto dup = co_await c.create("file-a", r.layout(kSu));
    EXPECT_FALSE(dup.ok());
    EXPECT_EQ(dup.error().code, Errc::already_exists);

    auto opened = co_await c.open("file-a");
    CO_ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened->handle, created->handle);
    EXPECT_EQ(opened->layout.stripe_unit, kSu);

    auto missing = co_await c.open("nope");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, Errc::not_found);

    auto removed = co_await c.remove("file-a");
    EXPECT_TRUE(removed.ok());
    auto gone = co_await c.open("file-a");
    EXPECT_FALSE(gone.ok());
  }(rig));
}

TEST(Manager, HandlesAreUnique) {
  Rig rig(raid0_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    auto a = co_await c.create("a", r.layout(kSu));
    auto b = co_await c.create("b", r.layout(kSu));
    CO_ASSERT_TRUE(a.ok());
    CO_ASSERT_TRUE(b.ok());
    EXPECT_NE(a->handle, b->handle);
  }(rig));
}

TEST(System, CrossClientVisibility) {
  Rig rig(raid0_rig(2));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client(0).create("shared", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(10 * kSu, 1);
    auto wr = co_await r.client(0).write_striped(*f, 0, data);
    CO_ASSERT_TRUE(wr.ok());
    // Client 1 opens by name and reads what client 0 wrote.
    auto f2 = co_await r.client(1).open("shared");
    CO_ASSERT_TRUE(f2.ok());
    auto rd = co_await r.client(1).read(*f2, 0, 10 * kSu);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
  }(rig));
}

TEST(System, ConcurrentDisjointWritersCompose) {
  // The key PVFS workload: N clients writing disjoint regions of one file.
  Rig rig(raid0_rig(4));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client(0).create("shared", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    constexpr std::uint64_t kChunk = 8 * kSu;
    sim::WaitGroup wg(r.sim);
    wg.add(4);
    for (std::uint32_t c = 0; c < 4; ++c) {
      r.sim.spawn([](Rig& rr, OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        auto wr = co_await rr.client(client).write_striped(
            file, client * kChunk, Buffer::pattern(kChunk, client));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, &wg));
    }
    co_await wg.wait();
    for (std::uint32_t c = 0; c < 4; ++c) {
      auto rd = co_await r.client(0).read(*f, c * kChunk, kChunk);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, Buffer::pattern(kChunk, c)) << "region " << c;
    }
  }(rig));
}

TEST(System, FlushPushesAllDirtyToDisk) {
  Rig rig(raid0_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await r.client().write_striped(*f, 0,
                                                Buffer::pattern(64 * kSu, 1));
    CO_ASSERT_TRUE(wr.ok());
    auto fl = co_await r.client().flush(*f);
    EXPECT_TRUE(fl.ok());
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      EXPECT_EQ(r.server(s).fs().cache().dirty_pages(), 0u) << "server " << s;
    }
  }(rig));
}

TEST(System, StorageAccountingRaid0) {
  Rig rig(raid0_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await r.client().write_striped(
        *f, 0, Buffer::pattern(16 * kSu + 123, 1));
    CO_ASSERT_TRUE(wr.ok());
    auto info = co_await r.client().storage(*f);
    EXPECT_EQ(info.data_bytes, 16 * kSu + 123);
    EXPECT_EQ(info.red_bytes, 0u);
    EXPECT_EQ(info.overflow_bytes, 0u);
  }(rig));
}

TEST(System, FailedServerReturnsErrors) {
  Rig rig(raid0_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await r.client().write_striped(*f, 0,
                                                Buffer::pattern(8 * kSu, 1));
    CO_ASSERT_TRUE(wr.ok());
    r.server(1).fail();
    auto rd = co_await r.client().read(*f, 0, 8 * kSu);
    EXPECT_FALSE(rd.ok());
    EXPECT_EQ(rd.error().code, Errc::server_failed);
    // Writes touching the failed server fail too.
    auto wr2 = co_await r.client().write_striped(*f, 0,
                                                 Buffer::pattern(8 * kSu, 2));
    EXPECT_FALSE(wr2.ok());
    // Recovery restores service.
    r.server(1).recover();
    auto rd2 = co_await r.client().read(*f, 0, 8 * kSu);
    EXPECT_TRUE(rd2.ok());
  }(rig));
}

TEST(System, PhantomPayloadsFlowThroughTheStack) {
  // Phantom buffers (used by the large benchmarks) must produce the same
  // sizes and server-side accounting as real ones.
  Rig rig(raid0_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await r.client().write_striped(*f, 0,
                                                Buffer::phantom(100 * kSu));
    CO_ASSERT_TRUE(wr.ok());
    auto info = co_await r.client().storage(*f);
    EXPECT_EQ(info.data_bytes, 100 * kSu);
    auto rd = co_await r.client().read(*f, 0, 100 * kSu);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_FALSE(rd->materialized());
    EXPECT_EQ(rd->size(), 100u * kSu);
  }(rig));
}

TEST(System, TimingSameForRealAndPhantomPayloads) {
  // Phantom mode changes memory usage, never simulated timing.
  sim::Duration t_real = 0;
  sim::Duration t_phantom = 0;
  for (bool phantom : {false, true}) {
    Rig rig(raid0_rig());
    run_sim_void(rig, [](Rig& r, bool ph, sim::Duration* out) -> sim::Task<void> {
      auto f = co_await r.client().create("f", r.layout(kSu));
      CO_ASSERT_TRUE(f.ok());
      const sim::Time t0 = r.sim.now();
      Buffer data =
          ph ? Buffer::phantom(64 * kSu) : Buffer::pattern(64 * kSu, 1);
      auto wr = co_await r.client().write_striped(*f, 0, data);
      CO_ASSERT_TRUE(wr.ok());
      auto rd = co_await r.client().read(*f, 0, 64 * kSu);
      CO_ASSERT_TRUE(rd.ok());
      *out = r.sim.now() - t0;
    }(rig, phantom, phantom ? &t_phantom : &t_real));
  }
  EXPECT_EQ(t_real, t_phantom);
}

TEST(System, ReadOfUnwrittenRegionIsZeros) {
  Rig rig(raid0_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto rd = co_await r.client().read(*f, 12345, 777);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, Buffer::real(777));
  }(rig));
}

// gather_for_server (write side) and Client::read's scatter (read side)
// against a reference built from decompose(): per-unit pieces in file order,
// each on server e.server at local offset e.local_off.
TEST(System, GatherAndScatterRoundTripMatchDecompose) {
  Rng rng(2718);
  for (int trial = 0; trial < 24; ++trial) {
    RigParams p = raid0_rig();
    p.nservers = static_cast<std::uint32_t>(1 + rng.below(6));
    const auto su = static_cast<std::uint32_t>(1 + rng.below(6000));
    const std::uint64_t off = rng.below(20000);
    const std::uint64_t len = 1 + rng.below(30000);
    Rig rig(p);
    const StripeLayout layout = rig.layout(su);
    const Buffer data = Buffer::pattern(len, 100 + trial);
    for (std::uint32_t s = 0; s < layout.n(); ++s) {
      std::vector<std::byte> want;
      for (const auto& e : layout.decompose(off, len)) {
        if (e.server != s) continue;
        const auto first = data.bytes().begin() +
                           static_cast<std::ptrdiff_t>(e.global_off - off);
        want.insert(want.end(), first,
                    first + static_cast<std::ptrdiff_t>(e.len));
      }
      const Buffer got = Client::gather_for_server(layout, off, data, s);
      ASSERT_EQ(std::vector<std::byte>(got.bytes().begin(), got.bytes().end()),
                want)
          << "trial " << trial << " server " << s;
      EXPECT_EQ(Client::gather_for_server(layout, off, Buffer::phantom(len), s),
                Buffer::phantom(want.size()));
    }
    run_sim_void(rig, [](Rig& r, StripeLayout lay, std::uint64_t off,
                         Buffer data, Rng* rng, int trial) -> sim::Task<void> {
      auto f = co_await r.client().create("f", lay);
      CO_ASSERT_TRUE(f.ok());
      auto wr = co_await r.client().write_striped(*f, off, data);
      CO_ASSERT_TRUE(wr.ok());
      // Whole range, then random sub-ranges that cross unit boundaries and
      // reach into the unwritten (zero) bytes on either side.
      auto rd = co_await r.client().read(*f, off, data.size());
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, data) << "trial " << trial;
      std::vector<std::byte> ref(off + data.size() + 4096, std::byte{0});
      std::copy(data.bytes().begin(), data.bytes().end(),
                ref.begin() + static_cast<std::ptrdiff_t>(off));
      for (int k = 0; k < 8; ++k) {
        const std::uint64_t a = rng->below(ref.size());
        const std::uint64_t n = rng->below(ref.size() - a + 1);
        auto part = co_await r.client().read(*f, a, n);
        CO_ASSERT_TRUE(part.ok());
        const std::vector<std::byte> got(part->bytes().begin(),
                                         part->bytes().end());
        const auto first = ref.begin() + static_cast<std::ptrdiff_t>(a);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), first,
                               first + static_cast<std::ptrdiff_t>(n)))
            << "trial " << trial << " read [" << a << ", " << a + n << ")";
      }
    }(rig, layout, off, data, &rng, trial));
  }
}

}  // namespace
}  // namespace csar::pvfs
