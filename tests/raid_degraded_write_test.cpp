// Degraded-mode writes: continued operation while an I/O server is down,
// with redundancy maintained well enough that (a) degraded reads see the
// new data and (b) a subsequent rebuild restores full fault tolerance.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 5;
  return p;
}

/// Write, fail a server, keep writing in degraded mode, verify via degraded
/// reads, rebuild, verify normal reads and a second failure.
void degraded_write_lifecycle(Scheme scheme, std::uint32_t victim,
                              std::uint64_t seed) {
  Rig rig(rig_params(scheme));
  run_sim_void(rig, [](Rig& r, std::uint32_t down,
                       std::uint64_t sd) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(sd);
    // Healthy phase.
    for (int i = 0; i < 12; ++i) {
      const std::uint64_t off = rng.below(3 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    // Failure; continue writing in degraded mode.
    r.server(down).fail();
    Recovery rec = r.recovery();
    for (int i = 0; i < 12; ++i) {
      const std::uint64_t off = rng.below(3 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await rec.degraded_write(*f, off, std::move(data), down);
      CO_ASSERT_TRUE(wr.ok());
    }
    // Degraded reads see everything, including degraded-mode writes.
    auto rd = co_await rec.degraded_read(*f, 0, ref.size(), down);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));

    // Disk replacement + rebuild restores normal operation...
    r.server(down).wipe();
    r.server(down).recover();
    auto rb = co_await rec.rebuild_server(*f, down, ref.size());
    CO_ASSERT_TRUE(rb.ok());
    auto normal = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(normal.ok());
    EXPECT_EQ(*normal, ref.expect(0, ref.size()));

    // ...and full fault tolerance: any other server may now fail.
    const std::uint32_t second = (down + 2) % r.p.nservers;
    r.server(second).fail();
    auto rd2 = co_await rec.degraded_read(*f, 0, ref.size(), second);
    CO_ASSERT_TRUE(rd2.ok());
    EXPECT_EQ(*rd2, ref.expect(0, ref.size()));
    r.server(second).recover();
  }(rig, victim, seed));
}

TEST(DegradedWrite, Raid1Lifecycle) {
  degraded_write_lifecycle(Scheme::raid1, 1, 101);
}
TEST(DegradedWrite, Raid5Lifecycle) {
  degraded_write_lifecycle(Scheme::raid5, 2, 102);
}
TEST(DegradedWrite, HybridLifecycle) {
  degraded_write_lifecycle(Scheme::hybrid, 3, 103);
}

// Sweep every victim for the paper's scheme.
class DegradedWriteVictims : public ::testing::TestWithParam<std::uint32_t> {
};
TEST_P(DegradedWriteVictims, HybridAnyVictim) {
  degraded_write_lifecycle(Scheme::hybrid, GetParam(), 200 + GetParam());
}
INSTANTIATE_TEST_SUITE_P(Victims, DegradedWriteVictims,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(DegradedWrite, Raid0RefusesWritesToLostServer) {
  Rig rig(rig_params(Scheme::raid0));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    r.server(0).fail();
    Recovery rec = r.recovery();
    // Unit 0 lives on server 0: unwritable.
    auto bad = co_await rec.degraded_write(*f, 0, Buffer::pattern(100, 1), 0);
    EXPECT_FALSE(bad.ok());
    // A write that avoids server 0 entirely succeeds.
    auto good = co_await rec.degraded_write(*f, kSu, Buffer::pattern(100, 2),
                                            0);
    EXPECT_TRUE(good.ok());
  }(rig));
}

TEST(DegradedWrite, Raid5WriteToLostUnitIsRecordedInParity) {
  // The reconstruct-write: the lost unit's new content exists only via the
  // parity, and a degraded read must materialize it.
  Rig rig(rig_params(Scheme::raid5));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    Buffer base = Buffer::pattern(w, 1);
    auto seed = co_await fs.write(*f, 0, base.slice(0, w));
    CO_ASSERT_TRUE(seed.ok());
    // Unit 0 is on server 0: fail it, then overwrite part of unit 0.
    r.server(0).fail();
    Recovery rec = r.recovery();
    Buffer patch = Buffer::pattern(1000, 2);
    auto wr = co_await rec.degraded_write(*f, 100, patch.slice(0, 1000), 0);
    CO_ASSERT_TRUE(wr.ok());
    Buffer expect = base.slice(0, w);
    expect.write_at(100, patch);
    auto rd = co_await rec.degraded_read(*f, 0, w, 0);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, expect);
  }(rig));
}

TEST(DegradedWrite, Raid5LostParityAndLostUnitIsRejected) {
  // If the down server holds the group's parity, a write to any *surviving*
  // unit works (data only), but a write spanning the lost data unit of a
  // group whose parity is also lost cannot be recorded.
  Rig rig(rig_params(Scheme::raid5));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    // Group 0 (units 0..3) has parity on server 4.
    CO_ASSERT_EQ(f->layout.coding_server(0, 4, 0), 4u);
    r.server(4).fail();
    Recovery rec = r.recovery();
    // Partial write to unit 0 (on surviving server 0): fine.
    auto ok = co_await rec.degraded_write(*f, 100, Buffer::pattern(500, 1),
                                          4);
    EXPECT_TRUE(ok.ok());
  }(rig));
}

TEST(DegradedWrite, HybridFullStripeInvalidatesOverflowWhileDegraded) {
  Rig rig(rig_params(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    // Partial write creates overflow; then a full-stripe degraded write
    // must supersede it.
    auto w1 = co_await fs.write(*f, 100, Buffer::pattern(500, 1));
    CO_ASSERT_TRUE(w1.ok());
    r.server(1).fail();
    Recovery rec = r.recovery();
    Buffer full = Buffer::pattern(w, 2);
    auto w2 = co_await rec.degraded_write(*f, 0, full.slice(0, w), 1);
    CO_ASSERT_TRUE(w2.ok());
    auto rd = co_await rec.degraded_read(*f, 0, w, 1);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, full);
  }(rig));
}

}  // namespace
}  // namespace csar::raid
