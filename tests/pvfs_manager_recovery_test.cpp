// Manager crash tolerance: journal replay rebuilds the file table, a torn
// journal tail truncates cleanly, incarnation fencing rejects cross-crash
// mutations, and migrator reconciliation resolves a crash that landed
// between a scheme flip and its durable persist.
#include <gtest/gtest.h>

#include "localfs/local_fs.hpp"
#include "pvfs/meta_journal.hpp"
#include "raid/migrate.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::pvfs {
namespace {

using csar::test::run_sim_void;

TEST(ManagerRecovery, JournalReplayRestoresFileTable) {
  raid::Rig rig(raid::RigParams{});
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    const auto layout = r.layout(64 * 1024);
    auto a = co_await c.create("a", layout);
    CO_ASSERT_TRUE(a.ok());
    auto b = co_await c.create("b", layout);
    CO_ASSERT_TRUE(b.ok());
    auto bs = co_await c.set_redundancy(
        "b", raid::scheme_tag(raid::Scheme::raid1), 1, kRgroupUnset);
    CO_ASSERT_TRUE(bs.ok());
    // A created-then-removed file exercises replay of both record kinds.
    auto tmp = co_await c.create("tmp", layout);
    CO_ASSERT_TRUE(tmp.ok());
    auto rm = co_await c.remove("tmp");
    CO_ASSERT_TRUE(rm.ok());

    r.manager->crash(/*wipe_unsynced=*/false);
    EXPECT_EQ(r.manager->file_count(), 0u);
    co_await r.manager->restart();

    // The replayed table equals the pre-crash one, byte for byte.
    EXPECT_EQ(r.manager->file_count(), 2u);
    auto a2 = co_await c.open("a");
    CO_ASSERT_TRUE(a2.ok());
    EXPECT_EQ(a2->handle, a->handle);
    EXPECT_EQ(a2->scheme, kSchemeUnset);
    EXPECT_EQ(a2->red_gen, 0u);
    auto b2 = co_await c.open("b");
    CO_ASSERT_TRUE(b2.ok());
    EXPECT_EQ(b2->handle, b->handle);
    EXPECT_EQ(b2->scheme, raid::scheme_tag(raid::Scheme::raid1));
    EXPECT_EQ(b2->red_gen, 1u);
    auto gone = co_await c.open("tmp");
    EXPECT_FALSE(gone.ok());
    EXPECT_EQ(gone.error().code, Errc::not_found);

    // Handle allocation resumes past every replayed handle.
    auto fresh = co_await c.create("c", r.layout(64 * 1024));
    CO_ASSERT_TRUE(fresh.ok());
    EXPECT_GT(fresh->handle, a->handle);
    EXPECT_GT(fresh->handle, b->handle);
    EXPECT_GT(fresh->handle, tmp->handle);

    EXPECT_EQ(r.manager->stats().replays, 1u);
    EXPECT_GE(r.manager->stats().replayed_records, 5u);
    EXPECT_EQ(r.manager->incarnation(), 2u);
  }(rig));
}

TEST(ManagerRecovery, RsSchemeTagSurvivesCrashAndReplay) {
  // rs(k,m) persists through the same one-byte tag as the classic schemes
  // (0x80 | (k-1)<<3 | (m-1)); a crash and journal replay must hand back
  // the exact code parameters, not just "some rs".
  raid::Rig rig(raid::RigParams{});
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    const auto layout = r.layout(64 * 1024);
    auto f = co_await c.create("ec", layout);
    CO_ASSERT_TRUE(f.ok());
    auto s1 = co_await c.set_redundancy(
        "ec", raid::scheme_tag(raid::Scheme::rs(4, 2)), 1, kRgroupUnset);
    CO_ASSERT_TRUE(s1.ok());
    // A second flip to different parameters: the replay must restore the
    // *latest* tag, and the tag bounds (k=16, m=7) must survive intact.
    auto g = co_await c.create("wide", layout);
    CO_ASSERT_TRUE(g.ok());
    auto s2 = co_await c.set_redundancy(
        "wide", raid::scheme_tag(raid::Scheme::rs(16, 7)), 3, kRgroupUnset);
    CO_ASSERT_TRUE(s2.ok());

    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.manager->restart();

    auto f2 = co_await c.open("ec");
    CO_ASSERT_TRUE(f2.ok());
    EXPECT_EQ(f2->scheme, raid::scheme_tag(raid::Scheme::rs(4, 2)));
    EXPECT_EQ(raid::scheme_from_tag(f2->scheme), raid::Scheme::rs(4, 2));
    EXPECT_EQ(f2->red_gen, 1u);
    auto g2 = co_await c.open("wide");
    CO_ASSERT_TRUE(g2.ok());
    EXPECT_EQ(raid::scheme_from_tag(g2->scheme), raid::Scheme::rs(16, 7));
    EXPECT_EQ(g2->red_gen, 3u);

    // A second crash replays the same state idempotently.
    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.manager->restart();
    auto f3 = co_await c.open("ec");
    CO_ASSERT_TRUE(f3.ok());
    EXPECT_EQ(raid::scheme_from_tag(f3->scheme), raid::Scheme::rs(4, 2));
  }(rig));
}

TEST(ManagerRecovery, TornJournalTailTruncatedSafely) {
  raid::Rig rig(raid::RigParams{});
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    for (int i = 0; i < 3; ++i) {
      auto f = co_await c.create("f" + std::to_string(i), r.layout(64 * 1024));
      CO_ASSERT_TRUE(f.ok());
    }

    // Corrupt the last bytes of the journal — the torn tail a real crash
    // can leave mid-sector. Replay must keep every record before the tear
    // and drop the rest instead of reviving garbage.
    localfs::LocalFs* mfs = r.manager->meta_fs();
    CO_ASSERT_TRUE(mfs != nullptr);
    const std::uint64_t jsize = mfs->size(MetaJournal::kJournalFile);
    CO_ASSERT_TRUE(jsize > 8);
    co_await mfs->write(MetaJournal::kJournalFile, jsize - 8,
                        Buffer::pattern(8, 0xDEADBEEFu));
    co_await mfs->flush();

    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.manager->restart();

    auto f0 = co_await c.open("f0");
    EXPECT_TRUE(f0.ok());
    auto f1 = co_await c.open("f1");
    EXPECT_TRUE(f1.ok());
    auto f2 = co_await c.open("f2");
    EXPECT_FALSE(f2.ok());  // its record sat under the tear
    EXPECT_GE(r.manager->journal_stats().truncated_records, 1u);

    // The manager keeps serving (and journaling) past the repair.
    auto f3 = co_await c.create("f3", r.layout(64 * 1024));
    EXPECT_TRUE(f3.ok());
  }(rig));
}

TEST(ManagerRecovery, EpochFencingRejectsStaleSetScheme) {
  raid::Rig rig(raid::RigParams{});
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    auto f = co_await c.create("x", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    EXPECT_EQ(c.manager_epoch(), 1u);

    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.manager->restart();
    EXPECT_EQ(r.manager->incarnation(), 2u);

    // A mutation fenced to the pre-crash incarnation must not execute.
    auto stale = co_await c.set_redundancy(
        "x", raid::scheme_tag(raid::Scheme::raid1), 1, kRgroupUnset,
        /*fence_epoch=*/1);
    EXPECT_FALSE(stale.ok());
    EXPECT_EQ(stale.error().code, Errc::stale_epoch);
    EXPECT_EQ(r.manager->stats().stale_epoch_rejects, 1u);
    auto check = co_await c.open("x");
    CO_ASSERT_TRUE(check.ok());
    EXPECT_EQ(check->red_gen, 0u);  // untouched
    EXPECT_EQ(c.manager_epoch(), 2u);  // the reply taught us the new epoch

    // Re-fenced to the live incarnation, the same mutation goes through.
    auto ok = co_await c.set_redundancy(
        "x", raid::scheme_tag(raid::Scheme::raid1), 1, kRgroupUnset,
        c.manager_epoch());
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok->red_gen, 1u);
  }(rig));
}

TEST(ManagerRecovery, SetSchemeRejectsNonMonotonicGeneration) {
  raid::Rig rig(raid::RigParams{});
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    auto f = co_await c.create("y", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    auto up = co_await c.set_redundancy(
        "y", raid::scheme_tag(raid::Scheme::raid5), 2, kRgroupUnset);
    CO_ASSERT_TRUE(up.ok());

    // Rolling the generation backwards would resurrect dropped redundancy.
    auto back = co_await c.set_redundancy(
        "y", raid::scheme_tag(raid::Scheme::raid1), 1, kRgroupUnset);
    EXPECT_FALSE(back.ok());
    EXPECT_EQ(back.error().code, Errc::stale_generation);
    EXPECT_EQ(r.manager->stats().stale_gen_rejects, 1u);

    // Same generation + same scheme is an idempotent re-persist, not an
    // error (reconciliation relies on this).
    auto same = co_await c.set_redundancy(
        "y", raid::scheme_tag(raid::Scheme::raid5), 2, kRgroupUnset);
    EXPECT_TRUE(same.ok());
    EXPECT_EQ(same->red_gen, 2u);
  }(rig));
}

// A file's redundancy descriptor (scheme tag, generation and rgroup) is set
// by one meta op and persisted as one journal record: an unset field keeps
// its value, the generation and epoch fences hold, an unchanged descriptor
// journals nothing, and both fields survive a manager crash, replayed from
// the journal and then from the checkpoint the restart wrote.
TEST(ManagerRecovery, SetRedundancyUpdatesOneDescriptor) {
  raid::Rig rig(raid::RigParams{});
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    auto& c = r.client();
    const std::uint8_t rs42 = raid::scheme_tag(raid::Scheme::rs(4, 2));
    const std::uint8_t raid5 = raid::scheme_tag(raid::Scheme::raid5);
    auto f = co_await c.create("d", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->rgroup, kRgroupUnset);
    auto s = co_await c.set_redundancy("d", rs42, 2, kRgroupUnset);
    CO_ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->scheme, rs42);
    EXPECT_EQ(s->red_gen, 2u);
    EXPECT_EQ(s->rgroup, kRgroupUnset);

    // An rgroup-only update keeps the scheme and generation.
    auto g = co_await c.set_redundancy("d", kSchemeUnset, 0, 3);
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->scheme, rs42);
    EXPECT_EQ(g->red_gen, 2u);
    EXPECT_EQ(g->rgroup, 3u);

    // A scheme update keeps the rgroup.
    auto m = co_await c.set_redundancy("d", raid5, 3, kRgroupUnset);
    CO_ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->scheme, raid5);
    EXPECT_EQ(m->red_gen, 3u);
    EXPECT_EQ(m->rgroup, 3u);

    // A lower generation and a stale fence are refused, and change nothing.
    auto back = co_await c.set_redundancy("d", rs42, 2, 5);
    EXPECT_FALSE(back.ok());
    EXPECT_EQ(back.error().code, Errc::stale_generation);
    EXPECT_EQ(r.manager->stats().stale_gen_rejects, 1u);
    auto fenced = co_await c.set_redundancy("d", kSchemeUnset, 0, 5,
                                            r.manager->incarnation() + 1);
    EXPECT_FALSE(fenced.ok());
    EXPECT_EQ(fenced.error().code, Errc::stale_epoch);
    EXPECT_EQ(r.manager->stats().stale_epoch_rejects, 1u);

    // An unchanged descriptor, whole or one field of it, journals nothing.
    const std::uint64_t records = r.manager->journal_stats().records_appended;
    auto same = co_await c.set_redundancy("d", raid5, 3, 3);
    CO_ASSERT_TRUE(same.ok());
    auto same_rgroup = co_await c.set_redundancy("d", kSchemeUnset, 0, 3);
    CO_ASSERT_TRUE(same_rgroup.ok());
    EXPECT_EQ(same_rgroup->scheme, raid5);
    EXPECT_EQ(r.manager->journal_stats().records_appended, records);

    // Replayed from the journal...
    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.manager->restart();
    EXPECT_EQ(r.manager->stats().replayed_records, 4u);
    auto j = co_await c.open("d");
    CO_ASSERT_TRUE(j.ok());
    EXPECT_EQ(j->scheme, raid5);
    EXPECT_EQ(j->red_gen, 3u);
    EXPECT_EQ(j->rgroup, 3u);
    // ...and from the checkpoint that restart folded them into.
    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.manager->restart();
    EXPECT_EQ(r.manager->stats().replayed_records, 4u);  // journal empty
    auto k = co_await c.open("d");
    CO_ASSERT_TRUE(k.ok());
    EXPECT_EQ(k->scheme, raid5);
    EXPECT_EQ(k->red_gen, 3u);
    EXPECT_EQ(k->rgroup, 3u);
  }(rig));
}

TEST(ManagerRecovery, CrashBetweenFlipAndPersistResolvedByReconciliation) {
  raid::RigParams rp;
  rp.nservers = 4;
  rp.scheme = raid::Scheme::raid0;
  raid::Rig rig(rp);
  raid::MigrateParams mp;
  mp.rpc = pvfs::RpcPolicy{sim::ms(100), 2, sim::ms(10), 0.0};
  // Pace the copy so the manager crash lands mid-migration, after the
  // migrator sampled its fence but before the flip persists.
  mp.rate_cap = 50e6;
  raid::SchemeMigrator mig(rig, mp);
  run_sim_void(rig, [](raid::Rig& r,
                       raid::SchemeMigrator& mig) -> sim::Task<void> {
    auto& fs = r.client_fs();
    const std::uint64_t size = 4 * 1024 * 1024;
    auto f = co_await fs.create("m", r.layout(64 * 1024));
    CO_ASSERT_TRUE(f.ok());
    Buffer data = Buffer::pattern(size, 0xC0FFEE);
    auto wr = co_await fs.write(*f, 0, data);
    CO_ASSERT_TRUE(wr.ok());
    mig.track("m", *f, size);
    mig.start();
    mig.request(f->handle, raid::Scheme::raid1);

    // Crash + replay the manager while the copy is still running: the
    // migrator's fence (incarnation 1) is now stale, so its eventual
    // persist is rejected — the flip lands in memory but never durably.
    co_await r.sim.sleep(sim::ms(1));
    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.sim.sleep(sim::ms(5));
    co_await r.manager->restart();
    EXPECT_EQ(r.manager->incarnation(), 2u);

    while (!mig.idle()) co_await r.sim.sleep(sim::ms(5));
    EXPECT_EQ(mig.stats().stale_persists, 1u);
    EXPECT_EQ(mig.stats().migrations_failed, 1u);
    // The flip itself stands: generation 1 is complete and live.
    EXPECT_EQ(r.policy().scheme_of(*f), raid::Scheme::raid1);
    EXPECT_EQ(r.policy().red_gen_of(*f), 1u);
    auto before = co_await r.client().open("m");
    CO_ASSERT_TRUE(before.ok());
    EXPECT_EQ(before->red_gen, 0u);  // durable tag still pre-flip

    // Reconciliation re-persists the flip under the new incarnation.
    co_await mig.reconcile();
    EXPECT_EQ(mig.stats().reconcile_resumed, 1u);
    auto after = co_await r.client().open("m");
    CO_ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->scheme, raid::scheme_tag(raid::Scheme::raid1));
    EXPECT_EQ(after->red_gen, 1u);

    // Generation-1 mirrors exist, and the data survived byte-exact.
    bool any_red = false;
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      if (r.server(s).fs().exists(IoServer::red_name(f->handle, 1))) {
        any_red = true;
      }
    }
    EXPECT_TRUE(any_red);
    auto rd = co_await fs.read(*f, 0, size);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_TRUE(*rd == Buffer::pattern(size, 0xC0FFEE));
    mig.stop();  // let the supervisor exit so sim.run() can drain
  }(rig, mig));
}

}  // namespace
}  // namespace csar::pvfs
