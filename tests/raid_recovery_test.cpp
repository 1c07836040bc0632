// Failure tolerance: degraded reads and full server rebuild for every
// redundancy scheme, including the Hybrid overflow-overlay reconstruction
// that motivates the scheme's no-in-place-update rule (§4).
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

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme, std::uint32_t nservers = 5) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = nservers;
  return p;
}

/// Write a randomized workload, fail each server in turn, and verify
/// degraded reads return exactly the reference content.
void degraded_read_roundtrip(Scheme scheme, std::uint64_t seed) {
  Rig rig(rig_params(scheme));
  run_sim_void(rig, [](Rig& r, std::uint64_t sd) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(sd);
    for (int i = 0; i < 30; ++i) {
      const std::uint64_t off = rng.below(4 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    Recovery rec = r.recovery();
    for (std::uint32_t victim = 0; victim < r.p.nservers; ++victim) {
      r.server(victim).fail();
      auto rd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size()))
          << "degraded read with server " << victim << " down";
      r.server(victim).recover();
    }
  }(rig, seed));
}

TEST(DegradedRead, Raid1) { degraded_read_roundtrip(Scheme::raid1, 11); }
TEST(DegradedRead, Raid5) { degraded_read_roundtrip(Scheme::raid5, 12); }
TEST(DegradedRead, Hybrid) { degraded_read_roundtrip(Scheme::hybrid, 13); }

TEST(DegradedRead, Raid0CannotReconstruct) {
  Rig rig(rig_params(Scheme::raid0));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await fs.write(*f, 0, Buffer::pattern(10 * kSu, 1));
    CO_ASSERT_TRUE(wr.ok());
    r.server(0).fail();
    Recovery rec = r.recovery();
    auto rd = co_await rec.degraded_read(*f, 0, 10 * kSu, 0);
    EXPECT_FALSE(rd.ok());
    EXPECT_EQ(rd.error().code, Errc::server_failed);
  }(rig));
}

TEST(DegradedRead, NormalReadFailsWhileServerDown) {
  Rig rig(rig_params(Scheme::raid5));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto wr = co_await fs.write(*f, 0, Buffer::pattern(10 * kSu, 1));
    CO_ASSERT_TRUE(wr.ok());
    r.server(2).fail();
    auto rd = co_await fs.read(*f, 0, 10 * kSu);
    EXPECT_FALSE(rd.ok());
  }(rig));
}

TEST(DegradedRead, HybridServesNewestOverflowFromMirror) {
  // The crucial CSAR property: after a partial-stripe write, the *newest*
  // data for a failed server exists only in its successor's mirror overflow;
  // parity alone reconstructs the stale base.
  Rig rig(rig_params(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    Buffer base = Buffer::pattern(w, 1);
    auto w1 = co_await fs.write(*f, 0, base.slice(0, w));  // full stripe
    CO_ASSERT_TRUE(w1.ok());
    Buffer patch = Buffer::pattern(1000, 2);
    auto w2 = co_await fs.write(*f, 100, patch.slice(0, 1000));  // partial
    CO_ASSERT_TRUE(w2.ok());
    // Unit 0 lives on server 0: fail it; the patch covers [100, 1100).
    r.server(0).fail();
    Recovery rec = r.recovery();
    auto rd = co_await rec.degraded_read(*f, 0, w, 0);
    CO_ASSERT_TRUE(rd.ok());
    Buffer expect = base.slice(0, w);
    expect.write_at(100, patch);
    EXPECT_EQ(*rd, expect);
  }(rig));
}


TEST(DegradedRead, NonzeroBaseStillRecovers) {
  // PVFS's `base` attribute shifts every placement; redundancy and
  // reconstruction must be base-agnostic.
  for (Scheme scheme : {Scheme::raid1, Scheme::raid5, Scheme::hybrid}) {
    Rig rig(rig_params(scheme));
    run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
      pvfs::StripeLayout layout = r.layout(kSu);
      layout.base = 3;
      auto f = co_await r.client_fs().create("based", layout);
      CO_ASSERT_TRUE(f.ok());
      const std::uint64_t w = f->layout.stripe_width();
      RefFile ref;
      Rng rng(61);
      for (int i = 0; i < 15; ++i) {
        const std::uint64_t off = rng.below(3 * w);
        const std::uint64_t len = 1 + rng.below(2 * w);
        Buffer data = Buffer::pattern(len, rng.next());
        ref.write(off, data);
        auto wr = co_await r.client_fs().write(*f, off, std::move(data));
        CO_ASSERT_TRUE(wr.ok());
      }
      auto rd = co_await r.client_fs().read(*f, 0, ref.size());
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size()));
      Recovery rec = r.recovery();
      for (std::uint32_t victim = 0; victim < r.p.nservers; ++victim) {
        r.server(victim).fail();
        auto drd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
        CO_ASSERT_TRUE(drd.ok());
        EXPECT_EQ(*drd, ref.expect(0, ref.size()))
            << scheme_name(r.p.scheme) << " victim " << victim;
        r.server(victim).recover();
      }
    }(rig));
  }
}

/// Full rebuild, for every victim and for file bases 0 and 3: write, fail
/// + wipe the victim, rebuild it, then verify normal reads, a clean scrub
/// of the rebuilt redundancy, a *second* failure of a different server and
/// a failure of the rebuilt server itself (exercising the rebuilt
/// redundancy).
void rebuild_roundtrip(Scheme scheme, std::uint64_t seed) {
  for (const std::uint32_t base : {0u, 3u}) {
    for (std::uint32_t victim = 0; victim < 5; ++victim) {
      SCOPED_TRACE(scheme_name(scheme) + " base " + std::to_string(base) +
                   " victim " + std::to_string(victim));
      Rig rig(rig_params(scheme));
      run_sim_void(rig, [](Rig& r, std::uint64_t sd, std::uint32_t bs,
                           std::uint32_t vic) -> sim::Task<void> {
        auto& fs = r.client_fs();
        pvfs::StripeLayout layout = r.layout(kSu);
        layout.base = bs;
        auto f = co_await fs.create("f", layout);
        CO_ASSERT_TRUE(f.ok());
        const std::uint64_t w = f->layout.stripe_width();
        RefFile ref;
        Rng rng(sd);
        for (int i = 0; i < 25; ++i) {
          const std::uint64_t off = rng.below(4 * w);
          const std::uint64_t len = 1 + rng.below(2 * w);
          Buffer data = Buffer::pattern(len, rng.next());
          ref.write(off, data);
          auto wr = co_await fs.write(*f, off, std::move(data));
          CO_ASSERT_TRUE(wr.ok());
        }
        r.server(vic).fail();
        r.server(vic).wipe();  // disk replaced with a blank one
        r.server(vic).recover();
        Recovery rec = r.recovery();
        auto rb = co_await rec.rebuild_server(*f, vic, ref.size());
        CO_ASSERT_TRUE(rb.ok());

        // Normal reads are correct again, and the redundancy is consistent.
        auto rd = co_await fs.read(*f, 0, ref.size());
        CO_ASSERT_TRUE(rd.ok());
        EXPECT_EQ(*rd, ref.expect(0, ref.size()));
        Scrubber scrub(r.client(), &r.policy());
        auto rep = co_await scrub.verify(*f, ref.size());
        CO_ASSERT_TRUE(rep.ok());
        EXPECT_TRUE(rep->clean());

        // The rebuilt redundancy tolerates a *different* failure.
        const std::uint32_t second = (vic + 2) % r.p.nservers;
        r.server(second).fail();
        auto rd2 = co_await rec.degraded_read(*f, 0, ref.size(), second);
        CO_ASSERT_TRUE(rd2.ok());
        EXPECT_EQ(*rd2, ref.expect(0, ref.size()));
        r.server(second).recover();

        // And a failure of the rebuilt server itself.
        r.server(vic).fail();
        auto rd3 = co_await rec.degraded_read(*f, 0, ref.size(), vic);
        CO_ASSERT_TRUE(rd3.ok());
        EXPECT_EQ(*rd3, ref.expect(0, ref.size()));
      }(rig, seed, base, victim));
    }
  }
}

TEST(Rebuild, Raid1) { rebuild_roundtrip(Scheme::raid1, 21); }
TEST(Rebuild, Raid4) { rebuild_roundtrip(Scheme::raid4, 24); }
TEST(Rebuild, Raid5) { rebuild_roundtrip(Scheme::raid5, 22); }
TEST(Rebuild, Hybrid) { rebuild_roundtrip(Scheme::hybrid, 23); }
TEST(Rebuild, Rs32) { rebuild_roundtrip(Scheme::rs(3, 2), 25); }

// Property sweep: random write traces with failure injected at a random
// point; degraded reads must match the reference at every failure point.
class RecoveryProperty
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint32_t>> {};

TEST_P(RecoveryProperty, DegradedReadsMatchReferenceMidTrace) {
  const auto [scheme, nservers] = GetParam();
  Rig rig(rig_params(scheme, nservers));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    RefFile ref;
    Rng rng(1000 + r.p.nservers);
    Recovery rec = r.recovery();
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t off = rng.below(3 * w);
      const std::uint64_t len = 1 + rng.below(2 * w);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto wr = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
      // Inject a failure after every fourth write.
      if (i % 4 == 3) {
        const auto victim =
            static_cast<std::uint32_t>(rng.below(r.p.nservers));
        r.server(victim).fail();
        auto rd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
        CO_ASSERT_TRUE(rd.ok());
        EXPECT_EQ(*rd, ref.expect(0, ref.size()))
            << "failure after write " << i << ", victim " << victim;
        r.server(victim).recover();
      }
    }
  }(rig));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSizes, RecoveryProperty,
    ::testing::Combine(::testing::Values(Scheme::raid1, Scheme::raid5,
                                         Scheme::hybrid),
                       ::testing::Values(2u, 3u, 5u, 7u)),
    [](const auto& info) {
      std::string name = scheme_name(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_n" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace csar::raid
