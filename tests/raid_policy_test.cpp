// Per-file redundancy policy layer: path rules route each file to its own
// scheme (with matching parity placement), the scheme tag is metadata that
// survives server crash/restart, adaptive decisions are deterministic for a
// fixed seed, and a mid-storm online migration is byte-exact under
// concurrent writes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/storm.hpp"
#include "raid/diagnostics.hpp"
#include "raid/migrate.hpp"
#include "raid/policy.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;

TEST(RaidPolicyTest, RulesAndDefaultAssign) {
  PolicyParams pp;
  pp.default_scheme = Scheme::hybrid;
  pp.rules.push_back({"mirror/", Scheme::raid1});
  pp.rules.push_back({"parity/", Scheme::raid5});
  pp.rules.push_back({"scratch/", Scheme::raid0});
  RedundancyPolicy pol(pp);
  EXPECT_EQ(pol.assign("mirror/log"), Scheme::raid1);
  EXPECT_EQ(pol.assign("parity/ckpt"), Scheme::raid5);
  EXPECT_EQ(pol.assign("scratch/tmp0"), Scheme::raid0);
  EXPECT_EQ(pol.assign("data/other"), Scheme::hybrid);
}

// One deployment, four files, four schemes: each file's tag and placement
// come from its path rule, every file reads back byte-exact (degraded reads
// included, per the file's own redundancy), and the tags survive a server
// crash/restart plus fresh opens.
TEST(RaidPolicyTest, PerFileSchemesAcrossCrashRestart) {
  RigParams p;
  p.scheme = Scheme::hybrid;
  p.nservers = 5;
  p.policy.rules.push_back({"mirror/", Scheme::raid1});
  p.policy.rules.push_back({"parity/", Scheme::raid5});
  p.policy.rules.push_back({"fixed/", Scheme::raid4});
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    struct Spec {
      const char* name;
      Scheme scheme;
    };
    const std::vector<Spec> specs = {{"mirror/a", Scheme::raid1},
                                     {"parity/b", Scheme::raid5},
                                     {"fixed/c", Scheme::raid4},
                                     {"plain/d", Scheme::hybrid}};
    std::vector<pvfs::OpenFile> files;
    std::vector<RefFile> refs(specs.size());
    Rng rng(4242);
    for (const auto& s : specs) {
      auto f = co_await r.client_fs().create(s.name, r.layout(kSu));
      CO_ASSERT_TRUE(f.ok());
      EXPECT_EQ(scheme_from_tag(f->scheme), s.scheme) << s.name;
      EXPECT_EQ(f->layout.placement, placement_for(s.scheme)) << s.name;
      EXPECT_EQ(r.policy().scheme_of(*f), s.scheme) << s.name;
      files.push_back(*f);
    }
    const std::uint64_t span = 3 * files[0].layout.stripe_width();
    for (std::size_t i = 0; i < files.size(); ++i) {
      for (int w = 0; w < 6; ++w) {
        const std::uint64_t off = rng.below(span - 1);
        const std::uint64_t len =
            1 + rng.below(std::min<std::uint64_t>(span - off - 1, 2 * kSu));
        Buffer data = Buffer::pattern(len, rng.next());
        refs[i].write(off, data);
        auto wr = co_await r.client_fs().write(files[i], off,
                                               std::move(data));
        CO_ASSERT_TRUE(wr.ok());
      }
    }

    // Healthy reads: every file byte-exact through its own scheme.
    for (std::size_t i = 0; i < files.size(); ++i) {
      auto rd = co_await r.client_fs().read(files[i], 0, refs[i].size());
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, refs[i].expect(0, refs[i].size())) << specs[i].name;
    }

    // Degraded reads resolve the victim's coverage per file: the same lost
    // server is fine for the mirrored, rotating-parity and fixed-parity
    // files alike in one pass.
    Recovery rec = r.recovery();
    r.server(0).fail();
    for (std::size_t i = 0; i < files.size(); ++i) {
      auto rd = co_await rec.degraded_read(files[i], 0, refs[i].size(), 0);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, refs[i].expect(0, refs[i].size()))
          << specs[i].name << " degraded";
    }
    r.server(0).recover();

    // Crash/restart a server (disk survives): fresh opens must come back
    // with the per-file scheme tags and the content must still verify.
    r.server(1).fail();
    r.server(1).recover();
    for (std::size_t i = 0; i < files.size(); ++i) {
      auto f2 = co_await r.client().open(specs[i].name);
      CO_ASSERT_TRUE(f2.ok());
      EXPECT_EQ(scheme_from_tag(f2->scheme), specs[i].scheme);
      EXPECT_EQ(f2->red_gen, 0u);
      auto rd = co_await r.client_fs().read(*f2, 0, refs[i].size());
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, refs[i].expect(0, refs[i].size()))
          << specs[i].name << " after restart";
    }
  }(rig));
}

// Online migration Hybrid -> RAID1 with a writer running the whole time:
// the flip must be invisible (every byte matches the reference), the new
// mirror redundancy must carry degraded reads for every possible victim,
// the manager must persist the new tag + generation, and the scrubber must
// find the migrated file clean.
TEST(RaidPolicyTest, OnlineMigrationByteExactUnderConcurrentWrites) {
  RigParams p;
  p.scheme = Scheme::hybrid;
  p.nservers = 5;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("hot", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t span = 4 * f->layout.stripe_width();
    RefFile ref;
    Rng rng(77001);
    // Preload.
    {
      Buffer data = Buffer::pattern(span, rng.next());
      ref.write(0, data);
      auto wr = co_await r.client_fs().write(*f, 0, std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }

    SchemeMigrator mig(r);
    mig.track("hot", *f, span);
    mig.start();

    // Concurrent writer: small partial-stripe writes before, during and
    // after the migration window.
    bool writer_done = false;
    r.sim.spawn([](Rig& r, pvfs::OpenFile f, std::uint64_t span, RefFile* ref,
                   Rng* rng, bool* done) -> sim::Task<void> {
      for (int i = 0; i < 60; ++i) {
        const std::uint64_t off = rng->below(span - 1);
        const std::uint64_t len =
            1 + rng->below(std::min<std::uint64_t>(span - off - 1, 2 * kSu));
        Buffer data = Buffer::pattern(len, rng->next());
        ref->write(off, data);
        auto wr = co_await r.client_fs().write(f, off, std::move(data));
        EXPECT_TRUE(wr.ok());
        co_await r.sim.sleep(sim::ms(1));
      }
      *done = true;
    }(r, *f, span, &ref, &rng, &writer_done));

    co_await r.sim.sleep(sim::ms(10));
    mig.request(f->handle, Scheme::raid1);
    while (!writer_done || !mig.idle() ||
           mig.stats().migrations_started == 0) {
      co_await r.sim.sleep(sim::ms(1));
    }
    EXPECT_EQ(mig.stats().migrations_completed, 1u);
    EXPECT_TRUE(mig.stats().ok);
    EXPECT_EQ(r.policy().scheme_of(*f), Scheme::raid1);
    EXPECT_EQ(r.policy().red_gen_of(*f), 1u);

    // Byte-exact through the flip.
    auto rd = co_await r.client_fs().read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));

    // The manager persisted the transition: fresh opens see RAID1 @ gen 1.
    auto f2 = co_await r.client().open("hot");
    CO_ASSERT_TRUE(f2.ok());
    EXPECT_EQ(scheme_from_tag(f2->scheme), Scheme::raid1);
    EXPECT_EQ(f2->red_gen, 1u);

    // The new base redundancy + retained overflow overlay carry the loss of
    // every server in turn.
    Recovery rec = r.recovery();
    for (std::uint32_t victim = 0; victim < r.p.nservers; ++victim) {
      r.server(victim).fail();
      auto drd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
      CO_ASSERT_TRUE(drd.ok());
      EXPECT_EQ(*drd, ref.expect(0, ref.size())) << "victim " << victim;
      r.server(victim).recover();
    }

    // And the migrated file audits clean under its new scheme.
    Scrubber scrub(r.client(), r.policy());
    auto rep = co_await scrub.verify(*f, ref.size());
    CO_ASSERT_TRUE(rep.ok());
    EXPECT_TRUE(rep->clean());

    mig.stop();
  }(rig));
}

// Adaptive engine under a fault storm: decisions (and everything downstream
// of them) must be a pure function of the seeds — two identical runs agree
// on every counter and on the fingerprint.
TEST(RaidPolicyTest, AdaptiveDecisionsDeterministicForFixedSeed) {
  auto make = [] {
    fault::StormParams p;
    p.rig.scheme = Scheme::hybrid;
    p.rig.nservers = 5;
    p.rig.rpc.timeout = sim::ms(150);
    p.rig.rpc.max_attempts = 4;
    p.rig.rpc.backoff = sim::ms(5);
    p.health.interval = sim::ms(100);
    p.file_size = 1 * 1024 * 1024;
    p.stripe_unit = 32 * 1024;
    p.io_size = 4 * 1024;
    p.ops = 150;
    p.op_gap = sim::ms(4);
    p.adaptive = true;
    auto& a = p.rig.policy.adaptive;
    a.enabled = true;
    a.rpc_pressure_threshold = 4;
    a.partial_ratio_threshold = 0.05;
    a.min_observed_bytes = 512 * 1024;
    p.plan.seed = 555;
    raid::Rig probe(p.rig);
    fault::LinkFault lf;
    lf.a = probe.client().node_id();
    lf.b = probe.server(0).node_id();
    lf.start = sim::ms(100);
    lf.end = sim::ms(500);
    lf.drop_p = 0.3;
    p.plan.links.push_back(lf);
    return p;
  };
  const fault::StormMetrics a = fault::run_storm(make());
  const fault::StormMetrics b = fault::run_storm(make());
  EXPECT_GE(a.migrate.migrations_completed, 1u);
  EXPECT_EQ(a.verify_mismatches, 0u);
  EXPECT_EQ(a.migrate.migrations_started, b.migrate.migrations_started);
  EXPECT_EQ(a.migrate.migrations_completed, b.migrate.migrations_completed);
  EXPECT_EQ(a.migrate.migrations_failed, b.migrate.migrations_failed);
  EXPECT_EQ(a.migrate.dirty_bytes, b.migrate.dirty_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

// Manual mid-storm migration with the op mix running concurrently and a
// scheme mix on disk: the storm's shadow verification is the byte-exactness
// oracle (every acknowledged read and the full final sweep must match).
TEST(RaidPolicyTest, MidStormMigrationByteExact) {
  fault::StormParams p;
  p.rig.scheme = Scheme::hybrid;
  p.rig.nservers = 5;
  p.file_size = 1 * 1024 * 1024;
  p.stripe_unit = 32 * 1024;
  p.io_size = 16 * 1024;
  p.ops = 200;
  p.op_gap = sim::ms(2);
  p.nfiles = 2;
  // File 0 Hybrid (the migration source), file 1 RAID5 (mixed-scheme storm).
  p.file_schemes = {Scheme::hybrid, Scheme::raid5};
  p.migrate_file = 0;
  p.migrate_to = Scheme::raid1;
  p.migrate_at = sim::ms(100);
  const fault::StormMetrics m = fault::run_storm(p);
  EXPECT_EQ(m.migrate.migrations_completed, 1u);
  EXPECT_EQ(m.migrate.migrations_failed, 0u);
  EXPECT_EQ(m.verify_mismatches, 0u);
  EXPECT_EQ(m.ops_failed, 0u);  // no faults in the plan
  EXPECT_EQ(m.tainted_bytes, 0u);
}

// Write telemetry splits by the file's own group width: an rs(4,2) file on
// six servers written in group-aligned four-unit chunks is full-group
// heavy, so fault pressure sends it nowhere, while a file of the same code
// written in two-unit chunks is small-write heavy and goes to RAID1.
TEST(RaidPolicyTest, TelemetryCountsTheFileOwnGroups) {
  RigParams p;
  p.scheme = Scheme::rs(4, 2);
  p.nservers = 6;
  p.policy.adaptive.enabled = true;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto aligned = co_await fs.create("aligned", r.layout(kSu));
    CO_ASSERT_TRUE(aligned.ok());
    const std::uint64_t w = aligned->layout.group_width(4);
    for (std::uint64_t g = 0; g < 80; ++g) {
      auto wr = co_await fs.write(*aligned, g * w, Buffer::phantom(w));
      CO_ASSERT_TRUE(wr.ok());
    }
    r.policy().note_media_errors(1);
    EXPECT_FALSE(r.policy().recommend().has_value());

    auto small = co_await fs.create("small", r.layout(kSu));
    CO_ASSERT_TRUE(small.ok());
    for (std::uint64_t g = 0; g < 80; ++g) {
      auto wr = co_await fs.write(*small, g * w, Buffer::phantom(w / 2));
      CO_ASSERT_TRUE(wr.ok());
    }
    const auto t = r.policy().recommend();
    CO_ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->handle, small->handle);
    EXPECT_EQ(t->to, Scheme::raid1);
  }(rig));
}

// Fragments per decode counts rebuild decodes too: a rebuild-only run
// fetched k fragments per decode, not zero.
TEST(RaidPolicyTest, EcTableCountsFragmentsPerDecode) {
  RedundancyPolicy pol;
  pol.note_ec_rebuild_decode(Scheme::rs(4, 2), 4, 4 * kSu);
  pol.note_ec_rebuild_decode(Scheme::rs(4, 2), 4, 4 * kSu);
  EXPECT_EQ(ec_stats_table(pol).to_csv(),
            "degraded reads,fragments,frags/decode,decode bytes,"
            "encode bytes,rebuild decodes\n"
            "0,8,4.00," + format_bytes(8 * kSu) + "," + format_bytes(0) +
                ",2\n");
}

}  // namespace
}  // namespace csar::raid
