// Lifecycle chaos test: a long randomized schedule of writes from several
// clients interleaved with failures, degraded I/O, disk replacements,
// rebuilds, compaction and scrub passes — the whole repertoire against one
// reference model. Content must be byte-exact after every step.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;

void lifecycle(Scheme scheme, std::uint64_t seed) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 5;
  p.nclients = 3;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r, std::uint64_t sd) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("chaos", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    const std::uint64_t span = 6 * w;
    RefFile ref;
    Rng rng(sd);
    Recovery rec = r.recovery();
    std::optional<std::uint32_t> down;  // currently failed server

    auto verify = [&](const char* what) -> sim::Task<void> {
      if (ref.size() == 0) co_return;
      Result<Buffer> rd = Buffer::real(0);
      if (down.has_value()) {
        rd = co_await rec.degraded_read(*f, 0, ref.size(), *down);
      } else {
        rd = co_await r.client_fs(0).read(*f, 0, ref.size());
      }
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size())) << what;
    };

    for (int step = 0; step < 80; ++step) {
      const double dice = rng.uniform();
      if (dice < 0.55) {
        // Write from a random client (degraded if a server is down).
        const auto client = static_cast<std::uint32_t>(rng.below(3));
        const std::uint64_t off = rng.below(span - 1);
        const std::uint64_t len =
            1 + rng.below(std::min<std::uint64_t>(span - off - 1, 2 * w));
        Buffer data = Buffer::pattern(len, rng.next());
        ref.write(off, data);
        if (down.has_value()) {
          Recovery crec(r.client(client), r.policy());
          auto wr =
              co_await crec.write(*f, off, std::move(data),
                  std::vector<std::uint32_t>(1, *down));
          CO_ASSERT_TRUE(wr.ok());
        } else {
          auto wr = co_await r.client_fs(client).write(*f, off,
                                                       std::move(data));
          CO_ASSERT_TRUE(wr.ok());
        }
      } else if (dice < 0.75) {
        co_await verify("read-verify step");
      } else if (dice < 0.85) {
        if (!down.has_value()) {
          // Fail a random server.
          down = static_cast<std::uint32_t>(rng.below(r.p.nservers));
          r.server(*down).fail();
          co_await verify("right after failure");
        } else {
          // Replace the disk and rebuild.
          r.server(*down).wipe();
          r.server(*down).recover();
          auto rb = co_await rec.rebuild_server(*f, *down, ref.size());
          CO_ASSERT_TRUE(rb.ok());
          down.reset();
          co_await verify("right after rebuild");
        }
      } else if (dice < 0.93) {
        if (!down.has_value() && r.p.scheme == Scheme::hybrid) {
          auto rc = co_await r.client_fs(0).compact(*f, ref.size());
          CO_ASSERT_TRUE(rc.ok());
          co_await verify("after compaction");
          auto usage = co_await r.client_fs(0).storage(*f);
          EXPECT_EQ(usage.overflow_bytes, 0u);
        }
      } else {
        if (!down.has_value()) {
          Scrubber scrub(r.client(0), r.policy());
          auto report = co_await scrub.verify(*f, ref.size());
          CO_ASSERT_TRUE(report.ok());
          EXPECT_TRUE(report->clean()) << "scrub at step " << step;
        }
      }
    }
    // Settle: recover anything still down, rebuild, final full audit.
    if (down.has_value()) {
      r.server(*down).wipe();
      r.server(*down).recover();
      auto rb = co_await rec.rebuild_server(*f, *down, ref.size());
      CO_ASSERT_TRUE(rb.ok());
      down.reset();
    }
    co_await verify("final");
    Scrubber scrub(r.client(0), r.policy());
    auto report = co_await scrub.verify(*f, ref.size());
    CO_ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean());
    // And the file still tolerates the loss of every server in turn.
    for (std::uint32_t victim = 0; victim < r.p.nservers; ++victim) {
      if (r.p.scheme == Scheme::raid0) break;
      r.server(victim).fail();
      auto rd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size())) << "victim " << victim;
      r.server(victim).recover();
    }
  }(rig, seed));
}

class Lifecycle
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(Lifecycle, ChaosScheduleStaysConsistent) {
  const auto [scheme, seed] = GetParam();
  lifecycle(scheme, seed);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, Lifecycle,
    ::testing::Combine(::testing::Values(Scheme::raid1, Scheme::raid5,
                                         Scheme::raid4, Scheme::hybrid),
                       ::testing::Values(1001u, 1002u, 1003u)),
    [](const auto& info) {
      std::string name = scheme_name(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

// Removing a file while another client streams writes into it. Server
// handlers parked on the page cache must survive the removal of the
// handle's local files and overflow state: each finishes on the unlinked
// file, which then disappears. Under ASan with CSAR_SIM_SLAB=OFF a handler
// touching a freed file or handle state is a heap-use-after-free.
void remove_racing_writes(Scheme scheme, std::uint64_t write_len,
                          sim::Duration remove_after) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 4;
  p.nclients = 2;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r, std::uint64_t len,
                       sim::Duration delay) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("victim", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    constexpr int kWrites = 16;
    int finished = 0;
    auto writer = r.sim.spawn(
        [](Rig& rr, pvfs::OpenFile file, std::uint64_t n,
           int* done) -> sim::Task<void> {
          for (int i = 0; i < kWrites; ++i) {
            // Writes after the removal recreate server files under the
            // stale handle; only their completion matters here.
            (void)co_await rr.client_fs(0).write(
                file, static_cast<std::uint64_t>(i) * n,
                Buffer::pattern(n, static_cast<std::uint64_t>(i) + 1));
            ++*done;
          }
        }(r, *f, len, &finished));
    co_await r.sim.sleep(delay);
    auto rm = co_await r.client(1).remove("victim");
    EXPECT_TRUE(rm.ok());
    co_await writer.join();
    EXPECT_EQ(finished, kWrites);
  }(rig, write_len, remove_after));
}

struct RaceCase {
  Scheme scheme;
  std::uint64_t write_len;
  std::uint64_t remove_after_us;
};

class LifecycleRace : public ::testing::TestWithParam<RaceCase> {};

TEST_P(LifecycleRace, RemoveRacingWritesFinishesOnUnlinkedFiles) {
  const RaceCase c = GetParam();
  remove_racing_writes(c.scheme, c.write_len, sim::us(c.remove_after_us));
}

// Full-stripe raid5 writes (192 KiB = 3 x 64 KiB units on 4 servers) and
// partial-stripe Hybrid writes, whose overflow copies also hold their
// handle state; each removal time lands while a local write is parked.
INSTANTIATE_TEST_SUITE_P(
    Timings, LifecycleRace,
    ::testing::Values(RaceCase{Scheme::raid5, 192 * 1024, 2000},
                      RaceCase{Scheme::raid5, 192 * 1024, 5000},
                      RaceCase{Scheme::raid5, 192 * 1024, 8000},
                      RaceCase{Scheme::raid5, 192 * 1024, 20000},
                      RaceCase{Scheme::hybrid, 16 * 1024, 1000},
                      RaceCase{Scheme::hybrid, 40 * 1024, 3000}),
    [](const auto& info) {
      const RaceCase& c = info.param;
      std::string name = scheme_name(c.scheme);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + std::to_string(c.write_len / 1024) + "KiB_" +
             std::to_string(c.remove_after_us) + "us";
    });

}  // namespace
}  // namespace csar::raid
