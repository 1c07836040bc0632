// RAID4 (fixed parity server): the placement Swift/RAID implemented and
// found inferior (§3). Correctness here, the performance comparison in
// bench_ablate_raid4.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "pvfs/io_server.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;
using pvfs::ParityPlacement;
using pvfs::StripeLayout;

constexpr std::uint32_t kSu = 4096;

RigParams raid4_rig(std::uint32_t nservers = 5) {
  RigParams p;
  p.scheme = Scheme::raid4;
  p.nservers = nservers;
  return p;
}

TEST(Raid4Layout, DataNeverLandsOnParityServer) {
  StripeLayout l{kSu, 5, ParityPlacement::fixed};
  EXPECT_EQ(l.data_servers(), 4u);
  for (std::uint64_t u = 0; u < 100; ++u) {
    EXPECT_LT(l.server_of_unit(u), 4u);
  }
  for (std::uint64_t g = 0; g < 100; ++g) {
    EXPECT_EQ(l.coding_server(g, 4, 0), 4u);
    EXPECT_EQ(l.coding_slot(g, 4, 1, 0), g);  // dense in the parity file
  }
}

TEST(Raid4Layout, StripeWidthMatchesRotating) {
  // Both placements protect N-1 data units per group.
  StripeLayout fixed{kSu, 6, ParityPlacement::fixed};
  StripeLayout rot{kSu, 6, ParityPlacement::rotating};
  EXPECT_EQ(fixed.stripe_width(), rot.stripe_width());
}

TEST(Raid4Layout, GroupIsOneLocalRow) {
  // Under fixed placement a group is exactly one unit per data server, all
  // at the same local row — the classic RAID4 geometry.
  StripeLayout l{kSu, 5, ParityPlacement::fixed};
  for (std::uint64_t g = 0; g < 50; ++g) {
    for (std::uint64_t u = g * 4; u < (g + 1) * 4; ++u) {
      EXPECT_EQ(l.group_of_unit(u, 4), g);
      EXPECT_EQ(l.local_unit(u), g);
    }
  }
}

TEST(Raid4, RoundTripAndParityInvariant) {
  Rig rig(raid4_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->layout.placement, ParityPlacement::fixed);
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(4);
    for (int i = 0; i < 25; ++i) {
      const std::uint64_t off = rng.below(4 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    auto rd = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
    EXPECT_TRUE(co_await csar::test::parity_consistent(r, *f, ref.size()));
    // The scrubber agrees.
    Scrubber scrub(r.client(), r.policy());
    auto report = co_await scrub.verify(*f, ref.size());
    CO_ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean());
  }(rig));
}

TEST(Raid4, AllParityOnDedicatedServer) {
  Rig rig(raid4_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    auto wr = co_await fs.write(*f, 0, Buffer::pattern(8 * w, 1));
    CO_ASSERT_TRUE(wr.ok());
    // Servers 0..3 hold only data, server 4 only parity.
    for (std::uint32_t s = 0; s < 4; ++s) {
      const auto info = r.server(s).total_storage();
      EXPECT_GT(info.data_bytes, 0u) << "server " << s;
      EXPECT_EQ(info.red_bytes, 0u) << "server " << s;
    }
    const auto parity = r.server(4).total_storage();
    EXPECT_EQ(parity.data_bytes, 0u);
    EXPECT_EQ(parity.red_bytes, 8 * kSu);  // one parity unit per group
  }(rig));
}

TEST(Raid4, DegradedReadAndRebuildDataServer) {
  Rig rig(raid4_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(14);
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t off = rng.below(3 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    Recovery rec = r.recovery();
    // Any data server can fail.
    for (std::uint32_t victim = 0; victim < 4; ++victim) {
      r.server(victim).fail();
      auto rd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size())) << "victim " << victim;
      r.server(victim).recover();
    }
    // Full rebuild of a data server.
    r.server(2).fail();
    r.server(2).wipe();
    r.server(2).recover();
    auto rb = co_await rec.rebuild_server(*f, 2, ref.size());
    CO_ASSERT_TRUE(rb.ok());
    auto rd = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
  }(rig));
}

TEST(Raid4, ParityServerFailureLeavesDataReadable) {
  Rig rig(raid4_rig());
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(10 * kSu, 1);
    auto wr = co_await fs.write(*f, 0, data.slice(0, data.size()));
    CO_ASSERT_TRUE(wr.ok());
    r.server(4).fail();  // the dedicated parity server
    Recovery rec = r.recovery();
    auto rd = co_await rec.degraded_read(*f, 0, 10 * kSu, 4);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
    // Rebuild restores the parity file.
    r.server(4).wipe();
    r.server(4).recover();
    auto rb = co_await rec.rebuild_server(*f, 4, 10 * kSu);
    CO_ASSERT_TRUE(rb.ok());
    EXPECT_TRUE(co_await csar::test::parity_consistent(r, *f, 10 * kSu));
  }(rig));
}

TEST(Raid4, ConcurrentWritersAllContendOnOneServer) {
  // The RAID4 pathology: every partial-stripe RMW in the whole file system
  // hits the same parity server.
  RigParams p = raid4_rig(5);
  p.nclients = 4;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    sim::WaitGroup wg(r.sim);
    wg.add(4);
    // Each client does partial writes in its own distinct group.
    for (std::uint32_t c = 0; c < 4; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     std::uint64_t width,
                     sim::WaitGroup* done) -> sim::Task<void> {
        for (int i = 0; i < 5; ++i) {
          auto wr = co_await rr.client_fs(client).write(
              file, client * 4 * width + 100, Buffer::pattern(500, i));
          EXPECT_TRUE(wr.ok());
        }
        done->done();
      }(r, *f, c, w, &wg));
    }
    co_await wg.wait();
    // All parity traffic landed on server 4 (and nothing anywhere else).
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(r.server(s).lock_stats().acquisitions, 0u);
    }
    EXPECT_EQ(r.server(4).lock_stats().acquisitions, 20u);
  }(rig));
}

}  // namespace
}  // namespace csar::raid
