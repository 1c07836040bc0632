// Scrubber: online redundancy verification and repair across schemes.
#include "raid/scrub.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "sim/sync.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme, std::uint32_t nclients = 1) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 5;
  p.nclients = nclients;
  return p;
}

/// Random workload, then verify() must report a clean file.
void clean_after_writes(Scheme scheme) {
  Rig rig(rig_params(scheme));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(42);
    for (int i = 0; i < 25; ++i) {
      const std::uint64_t off = rng.below(4 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    Scrubber scrub(r.client(), r.p.scheme);
    auto report = co_await scrub.verify(*f, ref.size());
    CO_ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean());
    if (uses_group_coding(r.p.scheme)) {
      EXPECT_GT(report->groups_checked, 0u);
    }
    if (r.p.scheme == Scheme::raid1) {
      EXPECT_GT(report->mirror_units_checked, 0u);
    }
  }(rig));
}

TEST(Scrub, CleanAfterWritesRaid1) { clean_after_writes(Scheme::raid1); }
TEST(Scrub, CleanAfterWritesRaid5) { clean_after_writes(Scheme::raid5); }
TEST(Scrub, CleanAfterWritesHybrid) { clean_after_writes(Scheme::hybrid); }

TEST(Scrub, Raid0HasNothingToAudit) {
  Rig rig(rig_params(Scheme::raid0));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await r.client_fs().write(*f, 0, Buffer::pattern(8 * kSu, 1));
    CO_ASSERT_TRUE(wr.ok());
    Scrubber scrub(r.client(), Scheme::raid0);
    auto report = co_await scrub.verify(*f, 8 * kSu);
    CO_ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean());
    EXPECT_EQ(report->groups_checked, 0u);
  }(rig));
}

TEST(Scrub, DetectsNoLockCorruption) {
  // The exact scenario from §5.1: concurrent same-stripe writers without
  // locking corrupt the parity; the scrubber must find it.
  RigParams p = rig_params(Scheme::raid5_nolock, /*nclients=*/4);
  p.nservers = 5;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    sim::WaitGroup wg(r.sim);
    wg.add(4);
    for (std::uint32_t c = 0; c < 4; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        auto wr = co_await rr.client_fs(client).write(
            file, static_cast<std::uint64_t>(client) * kSu,
            Buffer::pattern(kSu, client));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, &wg));
    }
    co_await wg.wait();
    Scrubber scrub(r.client(0), Scheme::raid5_nolock);
    auto report = co_await scrub.verify(*f, 4 * kSu);
    CO_ASSERT_TRUE(report.ok());
    EXPECT_GT(report->parity_mismatches, 0u);
    EXPECT_EQ(report->repaired, 0u);  // verify never writes
  }(rig));
}

TEST(Scrub, RepairsNoLockCorruption) {
  RigParams p = rig_params(Scheme::raid5_nolock, /*nclients=*/4);
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    sim::WaitGroup wg(r.sim);
    wg.add(4);
    RefFile ref;
    for (std::uint32_t c = 0; c < 4; ++c) {
      ref.write(static_cast<std::uint64_t>(c) * kSu,
                Buffer::pattern(kSu, 50 + c));
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        auto wr = co_await rr.client_fs(client).write(
            file, static_cast<std::uint64_t>(client) * kSu,
            Buffer::pattern(kSu, 50 + client));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, &wg));
    }
    co_await wg.wait();
    Scrubber scrub(r.client(0), Scheme::raid5_nolock);
    auto repair = co_await scrub.repair(*f, ref.size());
    CO_ASSERT_TRUE(repair.ok());
    EXPECT_GT(repair->repaired, 0u);
    // Now the file is failure-tolerant again: reconstruct each server.
    Recovery rec(r.client(0), Scheme::raid5);
    for (std::uint32_t victim = 0; victim < r.p.nservers; ++victim) {
      r.server(victim).fail();
      auto rd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size())) << "victim " << victim;
      r.server(victim).recover();
    }
    // And a re-verify is clean.
    auto verify = co_await scrub.verify(*f, ref.size());
    CO_ASSERT_TRUE(verify.ok());
    EXPECT_TRUE(verify->clean());
  }(rig));
}

TEST(Scrub, DetectsManuallyCorruptedMirror) {
  Rig rig(rig_params(Scheme::raid1));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await r.client_fs().write(*f, 0, Buffer::pattern(5 * kSu, 1));
    CO_ASSERT_TRUE(wr.ok());
    // Corrupt one mirror block directly in the successor's red file
    // (simulating a torn write).
    co_await r.server(1).fs().write(pvfs::IoServer::red_name(f->handle), 0,
                                    Buffer::pattern(kSu, 999));
    Scrubber scrub(r.client(), Scheme::raid1);
    auto report = co_await scrub.verify(*f, 5 * kSu);
    CO_ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->mirror_mismatches, 1u);
    // Repair fixes it.
    auto rep = co_await scrub.repair(*f, 5 * kSu);
    CO_ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep->repaired, 1u);
    auto clean = co_await scrub.verify(*f, 5 * kSu);
    CO_ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(clean->clean());
  }(rig));
}

TEST(Scrub, HybridOverflowPairsAudited) {
  Rig rig(rig_params(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    // Several partial writes create primary+mirror overflow pairs.
    for (int i = 0; i < 5; ++i) {
      auto wr = co_await r.client_fs().write(
          *f, static_cast<std::uint64_t>(i) * kSu + 100,
          Buffer::pattern(500, i));
      CO_ASSERT_TRUE(wr.ok());
    }
    Scrubber scrub(r.client(), Scheme::hybrid);
    auto report = co_await scrub.verify(*f, 6 * kSu);
    CO_ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean());
    EXPECT_GE(report->overflow_pairs_checked, 5u);
  }(rig));
}

}  // namespace
}  // namespace csar::raid
