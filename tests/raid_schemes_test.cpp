// End-to-end correctness of every redundancy scheme: write/read round trips
// through the full simulated stack (client -> fabric -> I/O servers ->
// local FS -> page cache -> disk), parity invariants, mirroring placement
// and overflow bookkeeping.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::parity_consistent;
using csar::test::run_sim;
using csar::test::run_sim_void;
using pvfs::IoServer;
using pvfs::OpenFile;

RigParams small_rig(Scheme scheme, std::uint32_t nservers = 6) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = nservers;
  return p;
}

constexpr std::uint32_t kSu = 4096;  // small stripe unit for fast tests

// ---------- round-trip across all schemes ----------

class SchemeRoundTrip : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeRoundTrip, AlignedFullStripeWrite) {
  Rig rig(small_rig(GetParam()));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    Buffer data = Buffer::pattern(3 * w, 1);
    auto wr = co_await fs.write(*f, 0, data.slice(0, 3 * w));
    CO_ASSERT_TRUE(wr.ok());
    auto rd = co_await fs.read(*f, 0, 3 * w);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
  }(rig));
}

TEST_P(SchemeRoundTrip, UnalignedWrite) {
  Rig rig(small_rig(GetParam()));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    Buffer data = Buffer::pattern(2 * w + 777, 2);
    auto wr = co_await fs.write(*f, 1234, data.slice(0, data.size()));
    CO_ASSERT_TRUE(wr.ok());
    auto rd = co_await fs.read(*f, 1234, data.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
  }(rig));
}

TEST_P(SchemeRoundTrip, SmallWriteInsideOneUnit) {
  Rig rig(small_rig(GetParam()));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(100, 3);
    auto wr = co_await fs.write(*f, 50, data.slice(0, 100));
    CO_ASSERT_TRUE(wr.ok());
    auto rd = co_await fs.read(*f, 50, 100);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, data);
  }(rig));
}

TEST_P(SchemeRoundTrip, OverlappingRewritesLatestWins) {
  Rig rig(small_rig(GetParam()));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(99);
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
  }(rig));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeRoundTrip,
                         ::testing::Values(Scheme::raid0, Scheme::raid1,
                                           Scheme::raid5,
                                           Scheme::raid5_nolock,
                                           Scheme::raid5_npc, Scheme::hybrid),
                         [](const auto& info) {
                           std::string name = scheme_name(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// ---------- RAID1 specifics ----------

TEST(Raid1, MirrorLandsOnSuccessorAtSameLocalOffset) {
  Rig rig(small_rig(Scheme::raid1, 4));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(6 * kSu, 5);  // units 0..5
    auto wr = co_await fs.write(*f, 0, data.slice(0, data.size()));
    CO_ASSERT_TRUE(wr.ok());
    // Unit u lives on server u%4; its mirror on (u%4+1)%4 in the red file.
    for (std::uint64_t u = 0; u < 6; ++u) {
      const std::uint32_t s = f->layout.server_of_unit(u);
      const std::uint64_t lo = f->layout.local_unit(u) * kSu;
      Buffer primary = co_await r.server(s).fs().peek(
          IoServer::data_name(f->handle), lo, kSu);
      Buffer mirror = co_await r.server((s + 1) % 4).fs().peek(
          IoServer::red_name(f->handle), lo, kSu);
      EXPECT_EQ(primary, mirror) << "unit " << u;
      EXPECT_EQ(primary, data.slice(u * kSu, kSu)) << "unit " << u;
    }
  }(rig));
}

TEST(Raid1, StorageIsExactlyDouble) {
  Rig rig(small_rig(Scheme::raid1));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Rng rng(1);
    std::uint64_t end = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t off = rng.below(100 * kSu);
      const std::uint64_t len = 1 + rng.below(20 * kSu);
      end = std::max(end, off + len);
      auto wr = co_await fs.write(*f, off, Buffer::pattern(len, rng.next()));
      CO_ASSERT_TRUE(wr.ok());
    }
    auto info = co_await fs.storage(*f);
    EXPECT_EQ(info.red_bytes, info.data_bytes);
    EXPECT_EQ(info.overflow_bytes, 0u);
  }(rig));
}

// ---------- RAID5 specifics ----------

class Raid5Parity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Raid5Parity, InvariantHoldsAfterRandomWrites) {
  // After any single-client write sequence, every group's parity unit must
  // equal the XOR of its data units.
  Rig rig(small_rig(Scheme::raid5, GetParam()));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    Rng rng(7 + r.p.nservers);
    std::uint64_t size = 0;
    for (int i = 0; i < 30; ++i) {
      const std::uint64_t off = rng.below(5 * w);
      const std::uint64_t len = 1 + rng.below(3 * w);
      size = std::max(size, off + len);
      auto wr = co_await fs.write(*f, off, Buffer::pattern(len, rng.next()));
      CO_ASSERT_TRUE(wr.ok());
    }
    EXPECT_TRUE(co_await parity_consistent(r, *f, size));
  }(rig));
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, Raid5Parity,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Raid5, StorageOverheadIsOneOverNMinus1) {
  Rig rig(small_rig(Scheme::raid5, 6));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    auto wr = co_await fs.write(*f, 0, Buffer::pattern(20 * w, 1));
    CO_ASSERT_TRUE(wr.ok());
    auto info = co_await fs.storage(*f);
    EXPECT_EQ(info.data_bytes, 20 * w);
    // 20 groups of 5 data units -> 20 parity units: exactly 1/5 overhead
    // (the paper's Table 2 ratio with 6 servers).
    EXPECT_EQ(info.red_bytes, 20 * kSu);
    EXPECT_EQ(info.overflow_bytes, 0u);
  }(rig));
}

TEST(Raid5, PartialWriteLocksAreAcquiredAndReleased) {
  Rig rig(small_rig(Scheme::raid5, 4));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    // Partial write: one group, columns inside one unit.
    auto wr = co_await fs.write(*f, 100, Buffer::pattern(500, 1));
    CO_ASSERT_TRUE(wr.ok());
    std::uint64_t acquisitions = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
      acquisitions += r.server(s).lock_stats().acquisitions;
    }
    EXPECT_EQ(acquisitions, 1u);  // exactly one parity lock round trip
  }(rig));
}

TEST(Raid5, NoLockVariantNeverLocks) {
  Rig rig(small_rig(Scheme::raid5_nolock, 4));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await fs.write(*f, 100, Buffer::pattern(500, 1));
    CO_ASSERT_TRUE(wr.ok());
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(r.server(s).lock_stats().acquisitions, 0u);
    }
  }(rig));
}

TEST(Raid5, TwoServerDegeneratesToRotatedMirror) {
  // With N=2 the parity of a one-unit group is a copy of that unit.
  Rig rig(small_rig(Scheme::raid5, 2));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(kSu, 9);
    auto wr = co_await fs.write(*f, 0, data.slice(0, kSu));
    CO_ASSERT_TRUE(wr.ok());
    Buffer parity = co_await r.server(1).fs().peek(
        IoServer::red_name(f->handle), 0, kSu);
    EXPECT_EQ(parity, data);
  }(rig));
}

// ---------- Hybrid specifics ----------

TEST(Hybrid, FullStripeWritesProduceNoOverflow) {
  Rig rig(small_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    auto wr = co_await fs.write(*f, 0, Buffer::pattern(10 * w, 1));
    CO_ASSERT_TRUE(wr.ok());
    auto info = co_await fs.storage(*f);
    EXPECT_EQ(info.overflow_bytes, 0u);
    EXPECT_EQ(info.red_bytes, 10 * kSu);  // one parity unit per group
    EXPECT_EQ(info.data_bytes, 10 * w);
  }(rig));
}

TEST(Hybrid, PartialWritesGoToOverflowMirrored) {
  Rig rig(small_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    // A small write inside one unit: two overflow allocations (primary +
    // mirror), each a whole stripe unit.
    auto wr = co_await fs.write(*f, 100, Buffer::pattern(500, 1));
    CO_ASSERT_TRUE(wr.ok());
    auto info = co_await fs.storage(*f);
    EXPECT_EQ(info.overflow_bytes, 2u * kSu);
    EXPECT_EQ(info.data_bytes, 0u);  // data file untouched by partials
  }(rig));
}

TEST(Hybrid, FullStripeInvalidatesOverflow) {
  Rig rig(small_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    // Partial write into group 0, then a full-stripe write over it.
    auto w1 = co_await fs.write(*f, 100, Buffer::pattern(500, 1));
    CO_ASSERT_TRUE(w1.ok());
    Buffer full = Buffer::pattern(w, 2);
    auto w2 = co_await fs.write(*f, 0, full.slice(0, w));
    CO_ASSERT_TRUE(w2.ok());
    // The full stripe wins; its content must come from the data file.
    auto rd = co_await fs.read(*f, 0, w);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, full);
    // And the parity invariant holds (data file + parity are the base).
    EXPECT_TRUE(co_await parity_consistent(r, *f, w));
  }(rig));
}

TEST(Hybrid, PartialThenReadMergesNewestCopy) {
  Rig rig(small_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    Buffer base = Buffer::pattern(w, 1);
    auto w1 = co_await fs.write(*f, 0, base.slice(0, w));  // full stripe
    CO_ASSERT_TRUE(w1.ok());
    Buffer patch = Buffer::pattern(600, 2);
    auto w2 = co_await fs.write(*f, 300, patch.slice(0, 600));  // partial
    CO_ASSERT_TRUE(w2.ok());
    auto rd = co_await fs.read(*f, 0, w);
    CO_ASSERT_TRUE(rd.ok());
    Buffer expect = base.slice(0, w);
    expect.write_at(300, patch);
    EXPECT_EQ(*rd, expect);
    // The data file still holds the *old* base content — partial writes
    // must not update in place (§4).
    Buffer unit0 = co_await r.server(0).fs().peek(
        IoServer::data_name(f->handle), 0, kSu);
    EXPECT_EQ(unit0, base.slice(0, kSu));
    // Parity is consistent with the base, not the overlay.
    EXPECT_TRUE(co_await parity_consistent(r, *f, w));
  }(rig));
}

TEST(Hybrid, BaseParityInvariantSurvivesRandomWorkload) {
  Rig rig(small_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(4242);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t off = rng.below(6 * w);
      const std::uint64_t len = 1 + rng.below(3 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    // Reads see the merged newest content...
    auto rd = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
    // ...while parity remains consistent with the base data files.
    EXPECT_TRUE(co_await parity_consistent(r, *f, ref.size()));
  }(rig));
}

TEST(Hybrid, StorageBetweenRaid5AndAboveForSmallWrites) {
  // Small-write-dominated workloads at a large stripe unit can exceed RAID1
  // storage (the paper's FLASH @64K row in Table 2).
  Rig rig(small_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    // 100 tiny writes, each to a fresh unit-sized slot: every write
    // allocates 2 whole units of overflow.
    for (int i = 0; i < 100; ++i) {
      auto wr = co_await fs.write(*f, static_cast<std::uint64_t>(i) * kSu,
                                  Buffer::pattern(128, i));
      CO_ASSERT_TRUE(wr.ok());
    }
    auto info = co_await fs.storage(*f);
    EXPECT_EQ(info.overflow_bytes, 200u * kSu);  // 2 units per tiny write
    const std::uint64_t logical = 99 * kSu + 128;
    // Worse than RAID1's 2x of the logical size: the Table 2 FLASH@64K case.
    EXPECT_GT(info.overflow_bytes, 2 * logical);
  }(rig));
}

TEST(Hybrid, RepeatedPartialWritesFragmentOverflow) {
  // Overflow space is never updated in place: rewriting the same block
  // keeps allocating (§6.7's cleaner discussion).
  Rig rig(small_rig(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    for (int i = 0; i < 10; ++i) {
      auto wr = co_await fs.write(*f, 0, Buffer::pattern(100, i));
      CO_ASSERT_TRUE(wr.ok());
    }
    auto info = co_await fs.storage(*f);
    EXPECT_EQ(info.overflow_bytes, 20u * kSu);
    // But reads still return only the newest copy.
    auto rd = co_await fs.read(*f, 0, 100);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, Buffer::pattern(100, 9));
  }(rig));
}


// Property: splitting one logical write into arbitrary chunks must produce
// identical file content AND identical redundancy state invariants —
// write decomposition cannot depend on request framing.
class ChunkingEquivalence : public ::testing::TestWithParam<Scheme> {};

TEST_P(ChunkingEquivalence, ChunkedWritesMatchOneBigWrite) {
  const std::uint64_t total = 3 * 5 * kSu + 777;  // ~3 stripes + remainder
  Buffer data = Buffer::pattern(total, 99);

  auto run = [&](const std::vector<std::uint64_t>& cuts) {
    Rig rig(small_rig(GetParam()));
    return csar::test::run_sim(
        rig, [](Rig& r, const Buffer* d,
                const std::vector<std::uint64_t>* cs) -> sim::Task<Buffer> {
          auto f = co_await r.client_fs().create("f", r.layout(kSu));
          EXPECT_TRUE(f.ok());
          std::uint64_t pos = 0;
          for (std::uint64_t cut : *cs) {
            auto wr = co_await r.client_fs().write(
                *f, pos, d->slice(pos, cut - pos));
            EXPECT_TRUE(wr.ok());
            pos = cut;
          }
          auto wr = co_await r.client_fs().write(
              *f, pos, d->slice(pos, d->size() - pos));
          EXPECT_TRUE(wr.ok());
          auto rd = co_await r.client_fs().read(*f, 0, d->size());
          EXPECT_TRUE(rd.ok());
          if (csar::raid::uses_group_coding(r.p.scheme)) {
            EXPECT_TRUE(
                co_await csar::test::parity_consistent(r, *f, d->size()));
          }
          co_return rd.ok() ? std::move(rd.value()) : Buffer{};
        }(rig, &data, &cuts));
  };

  const Buffer whole = run({});
  EXPECT_EQ(whole, data);
  // A few adversarial splits: stripe-aligned, unit-aligned, odd primes.
  for (const auto& cuts :
       std::vector<std::vector<std::uint64_t>>{
           {5 * kSu, 10 * kSu},
           {kSu, 2 * kSu, 3 * kSu, 11 * kSu},
           {101, 4099, 50021},
           {total / 2}}) {
    EXPECT_EQ(run(cuts), data);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ChunkingEquivalence,
                         ::testing::Values(Scheme::raid0, Scheme::raid1,
                                           Scheme::raid4, Scheme::raid5,
                                           Scheme::hybrid),
                         [](const auto& info) {
                           std::string name = scheme_name(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// ---------- cross-scheme comparisons ----------

TEST(Schemes, ReadBandwidthIsSchemeIndependent) {
  // §4: "the expected performance of reads is the same as in PVFS because
  // redundancy is not read during normal operation."
  std::map<Scheme, sim::Duration> read_time;
  for (Scheme s : {Scheme::raid0, Scheme::raid1, Scheme::raid5,
                   Scheme::hybrid}) {
    Rig rig(small_rig(s));
    run_sim_void(rig, [](Rig& r, std::map<Scheme, sim::Duration>& out,
                         Scheme scheme) -> sim::Task<void> {
      auto& fs = r.client_fs();
      auto f = co_await fs.create("f", r.layout(kSu));
      CO_ASSERT_TRUE(f.ok());
      const std::uint64_t w = f->layout.stripe_width();
      auto wr = co_await fs.write(*f, 0, Buffer::pattern(8 * w, 1));
      CO_ASSERT_TRUE(wr.ok());
      const sim::Time t0 = r.sim.now();
      auto rd = co_await fs.read(*f, 0, 8 * w);
      CO_ASSERT_TRUE(rd.ok());
      out[scheme] = r.sim.now() - t0;
    }(rig, read_time, s));
  }
  // All schemes read within 2% of RAID0.
  for (auto& [s, t] : read_time) {
    EXPECT_NEAR(static_cast<double>(t),
                static_cast<double>(read_time[Scheme::raid0]),
                0.02 * static_cast<double>(read_time[Scheme::raid0]))
        << scheme_name(s);
  }
}

TEST(Schemes, FullStripeWriteTimeOrdering) {
  // For large aligned writes: RAID0 fastest, RAID5/Hybrid close behind
  // (parity fraction), RAID1 slowest (2x bytes through the client link).
  std::map<Scheme, sim::Duration> wt;
  for (Scheme s : {Scheme::raid0, Scheme::raid1, Scheme::raid5,
                   Scheme::hybrid}) {
    Rig rig(small_rig(s));
    run_sim_void(rig, [](Rig& r, std::map<Scheme, sim::Duration>& out,
                         Scheme scheme) -> sim::Task<void> {
      auto& fs = r.client_fs();
      auto f = co_await fs.create("f", r.layout(64 * 1024));
      CO_ASSERT_TRUE(f.ok());
      const std::uint64_t w = f->layout.stripe_width();
      const sim::Time t0 = r.sim.now();
      for (int i = 0; i < 8; ++i) {
        auto wr = co_await fs.write(*f, static_cast<std::uint64_t>(i) * w,
                                    Buffer::phantom(w));
        CO_ASSERT_TRUE(wr.ok());
      }
      out[scheme] = r.sim.now() - t0;
    }(rig, wt, s));
  }
  EXPECT_LT(wt[Scheme::raid0], wt[Scheme::raid5]);
  EXPECT_LT(wt[Scheme::raid5], wt[Scheme::raid1]);
  EXPECT_LT(wt[Scheme::hybrid], wt[Scheme::raid1]);
  // Hybrid == RAID5 for aligned full-stripe workloads (§6.2).
  EXPECT_NEAR(static_cast<double>(wt[Scheme::hybrid]),
              static_cast<double>(wt[Scheme::raid5]),
              0.05 * static_cast<double>(wt[Scheme::raid5]));
}

TEST(Schemes, SmallWriteTimeOrdering) {
  // For one-block writes into an existing cached file: RAID1 == Hybrid,
  // RAID5 slower (reads old data + parity first) — Figure 4(b).
  std::map<Scheme, sim::Duration> wt;
  for (Scheme s : {Scheme::raid1, Scheme::raid5, Scheme::hybrid}) {
    Rig rig(small_rig(s));
    run_sim_void(rig, [](Rig& r, std::map<Scheme, sim::Duration>& out,
                         Scheme scheme) -> sim::Task<void> {
      auto& fs = r.client_fs();
      auto f = co_await fs.create("f", r.layout(64 * 1024));
      CO_ASSERT_TRUE(f.ok());
      const std::uint64_t w = f->layout.stripe_width();
      auto seed = co_await fs.write(*f, 0, Buffer::phantom(4 * w));
      CO_ASSERT_TRUE(seed.ok());
      const sim::Time t0 = r.sim.now();
      for (int i = 0; i < 16; ++i) {
        auto wr = co_await fs.write(
            *f, static_cast<std::uint64_t>(i) * 64 * 1024,
            Buffer::phantom(64 * 1024));
        CO_ASSERT_TRUE(wr.ok());
      }
      out[scheme] = r.sim.now() - t0;
    }(rig, wt, s));
  }
  EXPECT_NEAR(static_cast<double>(wt[Scheme::hybrid]),
              static_cast<double>(wt[Scheme::raid1]),
              0.10 * static_cast<double>(wt[Scheme::raid1]));
  EXPECT_GT(wt[Scheme::raid5], wt[Scheme::raid1]);
}

}  // namespace
}  // namespace csar::raid
