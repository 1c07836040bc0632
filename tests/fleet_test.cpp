// Fleet layer: bathtub aging groups, AFR-derived fault plans, and the
// disk-adaptive redundancy controller — class targets, urgency ordering,
// the shared transition budget, and rgroup persistence through a metadata
// manager crash/replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "pvfs/io_server.hpp"
#include "raid/migrate.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::fleet {
namespace {

using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;

raid::RigParams fleet_rig_params() {
  raid::RigParams p;
  p.scheme = raid::Scheme::rs(4, 2);
  p.nservers = 9;  // three groups of three; wide enough for rs(6,3)
  return p;
}

/// Ages chosen so the jittered bathtub boundaries cannot straddle a class:
/// group 0 is deep in wearout, group 1 safely mid-life, group 2 in infancy.
FleetParams three_class_params() {
  FleetParams fp;
  fp.group_size = 3;
  fp.group0_age_years = 6.0;
  fp.group_age_step_years = 3.0;
  fp.years_per_sim_sec = 0.01;  // negligible aging over a sub-second run
  fp.lead_years = 0.05;
  fp.decision_interval = sim::ms(10);
  return fp;
}

TEST(FleetLoss, ClosedFormRateAndOrdering) {
  const double afr = 0.05;
  const double repair = 2e-3;
  // rs(4,2) over g=6 disks: 6λ · (5λR)(4λR) = 120 λ³R².
  EXPECT_DOUBLE_EQ(loss_event_rate(raid::Scheme::rs(4, 2), 9, afr, repair),
                   120.0 * afr * afr * afr * repair * repair);
  // rs(6,3) over g=9: 9λ · (8λR)(7λR)(6λR) = 3024 λ⁴R³.
  EXPECT_DOUBLE_EQ(loss_event_rate(raid::Scheme::rs(6, 3), 9, afr, repair),
                   3024.0 * afr * afr * afr * afr * repair * repair * repair);
  // raid0 loses data on any failure: g·λ with no repair term.
  EXPECT_DOUBLE_EQ(loss_event_rate(raid::Scheme::raid0, 9, afr, repair),
                   9.0 * afr);
  // One more tolerated failure buys orders of magnitude when λR << 1.
  const double r0 = loss_event_rate(raid::Scheme::raid0, 9, afr, repair);
  const double r1 = loss_event_rate(raid::Scheme::raid5, 9, afr, repair);
  const double r2 = loss_event_rate(raid::Scheme::rs(4, 2), 9, afr, repair);
  const double r3 = loss_event_rate(raid::Scheme::rs(6, 3), 9, afr, repair);
  EXPECT_GT(r0, r1);
  EXPECT_GT(r1, r2);
  EXPECT_GT(r2, r3);
  EXPECT_GT(r3, 0.0);
}

TEST(FleetModelTest, GroupsAgingAndClassQueries) {
  raid::Rig rig(fleet_rig_params());
  const FleetParams fp = three_class_params();
  FleetModel model(rig, fp);

  ASSERT_EQ(model.nservers(), 9u);
  ASSERT_EQ(model.ngroups(), 3u);
  EXPECT_EQ(model.group_of_server(0), 0u);
  EXPECT_EQ(model.group_of_server(5), 1u);
  EXPECT_EQ(model.group_of_server(8), 2u);
  // Placement bases wrap modulo the server count.
  EXPECT_EQ(model.group_of_base(0), 0u);
  EXPECT_EQ(model.group_of_base(4), 1u);
  EXPECT_EQ(model.group_of_base(9), 0u);
  EXPECT_EQ(model.group_of_base(16), 2u);
  EXPECT_EQ(model.servers_of_group(1),
            (std::vector<std::uint32_t>{3, 4, 5}));

  // Timeline compression: seconds * years_per_sim_sec.
  EXPECT_DOUBLE_EQ(model.added_years(sim::ms(2000)), 0.02);

  // The model pushed each seeded profile onto the rig's server disks.
  for (std::uint32_t s = 0; s < model.nservers(); ++s) {
    const hw::Disk* d = rig.cluster.node(rig.server(s).node_id()).disk();
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->aging().age_years, model.disk(s).age_years) << s;
  }

  // Age cohorts land in their designed classes despite per-disk jitter.
  EXPECT_EQ(model.class_of_group(0, 0.0), hw::AfrClass::wearout);
  EXPECT_EQ(model.class_of_group(1, 0.0), hw::AfrClass::useful_life);
  EXPECT_EQ(model.class_of_group(2, 0.0), hw::AfrClass::infancy);
  // ... and every group ends up in wearout far enough out.
  for (std::uint32_t g = 0; g < model.ngroups(); ++g) {
    EXPECT_EQ(model.class_of_group(g, 10.0), hw::AfrClass::wearout) << g;
  }

  // class_of_group is the worst member's class, afr_of_group the mean, and
  // years_to_class_change the min — all recomputable from disk() directly.
  for (std::uint32_t g = 0; g < model.ngroups(); ++g) {
    double worst = -1.0;
    hw::AfrClass worst_cls = hw::AfrClass::useful_life;
    double sum = 0.0;
    double next = 1e18;
    for (std::uint32_t s : model.servers_of_group(g)) {
      const hw::AgingParams& a = model.disk(s);
      sum += a.afr(0.5);
      if (a.afr(0.5) > worst) {
        worst = a.afr(0.5);
        worst_cls = a.afr_class(0.5);
      }
      next = std::min(next, a.years_to_next_class(0.5));
    }
    EXPECT_EQ(model.class_of_group(g, 0.5), worst_cls) << g;
    EXPECT_DOUBLE_EQ(model.afr_of_group(g, 0.5), sum / 3.0) << g;
    EXPECT_DOUBLE_EQ(model.years_to_class_change(g, 0.5), next) << g;
  }

  // The groups table renders one row per group with the class names.
  const std::string table = fleet_groups_table(model, 0.0).to_string();
  EXPECT_NE(table.find("g0"), std::string::npos);
  EXPECT_NE(table.find("wearout"), std::string::npos);
  EXPECT_NE(table.find("useful"), std::string::npos);
  EXPECT_NE(table.find("infancy"), std::string::npos);
}

TEST(FleetModelTest, FaultPlanDeterministicAndAfrDriven) {
  raid::Rig rig(fleet_rig_params());
  FleetParams fp = three_class_params();
  fp.years_per_sim_sec = 0.5;
  fp.fault_boost = 50.0;
  fp.group_outage_per_year = 5.0;
  FleetModel model(rig, fp);

  const sim::Duration horizon = sim::ms(10000);
  const sim::Duration step = sim::ms(10);
  const fault::FaultPlan a = model.derive_fault_plan(horizon, step, 4);
  const fault::FaultPlan b = model.derive_fault_plan(horizon, step, 4);

  // Bit-deterministic: two derivations agree event-for-event.
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].at, b.crashes[i].at);
    EXPECT_EQ(a.crashes[i].server, b.crashes[i].server);
    EXPECT_EQ(a.crashes[i].restart_at, b.crashes[i].restart_at);
    EXPECT_EQ(a.crashes[i].wipe, b.crashes[i].wipe);
  }
  ASSERT_EQ(a.media.size(), b.media.size());
  for (std::size_t i = 0; i < a.media.size(); ++i) {
    EXPECT_EQ(a.media[i].at, b.media[i].at);
    EXPECT_EQ(a.media[i].server, b.media[i].server);
    EXPECT_EQ(a.media[i].file, b.media[i].file);
    EXPECT_EQ(a.media[i].off, b.media[i].off);
  }
  ASSERT_EQ(a.group_crashes.size(), b.group_crashes.size());
  for (std::size_t i = 0; i < a.group_crashes.size(); ++i) {
    EXPECT_EQ(a.group_crashes[i].at, b.group_crashes[i].at);
    EXPECT_EQ(a.group_crashes[i].servers, b.group_crashes[i].servers);
  }

  // Events are well-formed: inside the horizon, on real servers, media
  // faults target tenant handles 1..n, group outages hit whole domains.
  EXPECT_GT(a.crashes.size() + a.media.size(), 0u);
  EXPECT_GT(a.group_crashes.size(), 0u);
  std::vector<std::uint64_t> per_group(3, 0);
  for (const auto& c : a.crashes) {
    EXPECT_GT(c.at, 0u);
    EXPECT_LE(c.at, horizon);
    ASSERT_LT(c.server, 9u);
    EXPECT_EQ(*c.restart_at, c.at + fp.crash_outage);
    EXPECT_FALSE(c.wipe);
    ++per_group[model.group_of_server(c.server)];
  }
  bool media_names_ok = true;
  for (const auto& m : a.media) {
    ASSERT_LT(m.server, 9u);
    EXPECT_EQ(m.len, 4096u);
    ++per_group[model.group_of_server(m.server)];
    bool hit = false;
    for (std::uint32_t h = 1; h <= 4; ++h) {
      if (m.file == pvfs::IoServer::data_name(h)) hit = true;
    }
    media_names_ok = media_names_ok && hit;
  }
  EXPECT_TRUE(media_names_ok);
  for (const auto& g : a.group_crashes) {
    ASSERT_EQ(g.servers.size(), 3u);
    EXPECT_EQ(model.group_of_server(g.servers.front()),
              model.group_of_server(g.servers.back()));
  }
  // AFR-driven: the wearout cohort (group 0, ~0.08/y) draws more events
  // than the mid-life cohort (group 1, ~0.012/y) over a long horizon.
  EXPECT_GT(per_group[0], per_group[1]);

  // No boost, no background outages -> an empty plan.
  FleetParams quiet = fp;
  quiet.fault_boost = 0.0;
  quiet.group_outage_per_year = 0.0;
  FleetModel quiet_model(rig, quiet);
  const fault::FaultPlan none =
      quiet_model.derive_fault_plan(horizon, step, 4);
  EXPECT_TRUE(none.crashes.empty());
  EXPECT_TRUE(none.media.empty());
  EXPECT_TRUE(none.group_crashes.empty());
}

// End-to-end: three files on three age cohorts under rs(4,2). The
// controller upgrades the wearout and infancy cohorts to rs(6,3) through
// the budgeted migrator (urgent, durability up), leaves the mid-life
// cohort alone, persists every file's rgroup at the manager, and the tag
// survives a manager crash + journal replay.
TEST(FleetControllerTest, AdaptiveTransitionsAndRgroupPersistence) {
  raid::Rig rig(fleet_rig_params());
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    FleetParams fp = three_class_params();
    FleetModel model(r, fp);
    raid::SchemeMigrator mig(r);
    mig.start();
    FleetController ctl(r, mig, model, fp);

    // One file per cohort: base picks the primary group.
    std::vector<pvfs::OpenFile> files;
    for (std::uint32_t i = 0; i < 3; ++i) {
      pvfs::StripeLayout layout = r.layout(kSu);
      layout.base = i * 3;  // groups 0, 1, 2
      const std::string name = "fleet/f" + std::to_string(i);
      auto f = co_await r.client_fs().create(name, layout);
      CO_ASSERT_TRUE(f.ok());
      const std::uint64_t span = 2 * f->layout.stripe_width();
      auto wr = co_await r.client_fs().write(
          *f, 0, Buffer::pattern(span, 0xF1EE7 + i));
      CO_ASSERT_TRUE(wr.ok());
      ctl.register_file(i, name, *f, span);
      files.push_back(*f);
    }

    ctl.start();
    while (mig.stats().migrations_completed < 2 || !mig.idle()) {
      co_await r.sim.sleep(sim::ms(1));
    }
    // Let a few more decision ticks confirm the fleet is converged.
    co_await r.sim.sleep(sim::ms(50));
    ctl.stop();

    // Wearout (g0) and infancy (g2) upgraded, mid-life (g1) untouched.
    EXPECT_EQ(r.policy().scheme_of(files[0]), raid::Scheme::rs(6, 3));
    EXPECT_EQ(r.policy().scheme_of(files[1]), raid::Scheme::rs(4, 2));
    EXPECT_EQ(r.policy().scheme_of(files[2]), raid::Scheme::rs(6, 3));
    const FleetStats& st = ctl.stats();
    EXPECT_EQ(st.transitions_requested, 2u);
    EXPECT_EQ(st.urgent_requested, 2u);
    EXPECT_EQ(st.elective_requested, 0u);
    EXPECT_EQ(st.rgroup_persists, 3u);
    EXPECT_GE(st.backlog_peak, 2u);
    EXPECT_EQ(ctl.backlog(), 0u);  // converged
    EXPECT_GT(st.decision_ticks, 0u);
    // The initial copy passes drew from the shared transition budget.
    EXPECT_GT(ctl.budget_bytes_taken(), 0u);
    EXPECT_EQ(mig.stats().migrations_completed, 2u);
    EXPECT_TRUE(mig.stats().ok);

    // Content survives the upgrades byte-exact.
    for (std::uint32_t i = 0; i < 3; ++i) {
      const std::uint64_t span = 2 * files[i].layout.stripe_width();
      auto rd = co_await r.client_fs().read(files[i], 0, span);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, Buffer::pattern(span, 0xF1EE7 + i)) << i;
    }

    // rgroups persisted: fresh opens carry the class id...
    for (std::uint32_t i = 0; i < 3; ++i) {
      auto f2 = co_await r.client().open("fleet/f" + std::to_string(i));
      CO_ASSERT_TRUE(f2.ok());
      EXPECT_EQ(f2->rgroup, i) << i;
    }
    // ... and survive a manager hard crash + journal replay.
    r.manager->crash(/*wipe_unsynced=*/false);
    co_await r.manager->restart();
    for (std::uint32_t i = 0; i < 3; ++i) {
      auto f3 = co_await r.client().open("fleet/f" + std::to_string(i));
      CO_ASSERT_TRUE(f3.ok());
      EXPECT_EQ(f3->rgroup, i) << i << " after replay";
      if (i != 1) {
        EXPECT_EQ(raid::scheme_from_tag(f3->scheme), raid::Scheme::rs(6, 3));
        EXPECT_EQ(f3->red_gen, 1u);
      }
    }

    // The transition log reconstructs each group's scheme schedule, and the
    // adaptive schedule never loses more data than static rs(4,2).
    const double total_years = model.added_years(r.sim.now());
    const auto g0 = ctl.scheme_periods(0, total_years);
    CO_ASSERT_EQ(g0.size(), 2u);
    EXPECT_EQ(g0.front().scheme, raid::Scheme::rs(4, 2));
    EXPECT_EQ(g0.back().scheme, raid::Scheme::rs(6, 3));
    EXPECT_DOUBLE_EQ(g0.front().begin_years, 0.0);
    EXPECT_DOUBLE_EQ(g0.back().end_years, total_years);
    const auto g1 = ctl.scheme_periods(1, total_years);
    CO_ASSERT_EQ(g1.size(), 1u);
    EXPECT_EQ(g1.front().scheme, raid::Scheme::rs(4, 2));
    const std::vector<SchemePeriod> static42 = {
        {0.0, total_years, raid::Scheme::rs(4, 2)}};
    EXPECT_LE(expected_loss_events(model, 0, g0, fp.repair_window_years),
              expected_loss_events(model, 0, static42,
                                   fp.repair_window_years));

    // Fleet gauges and counters export through the registry.
    obs::Registry reg;
    ctl.export_metrics(reg);
    EXPECT_EQ(reg.counter("fleet.transitions").value(), 2u);
    EXPECT_EQ(reg.counter("fleet.transitions_urgent").value(), 2u);
    EXPECT_EQ(reg.counter("fleet.rgroup_persists").value(), 3u);
    EXPECT_EQ(reg.gauge("fleet.disks_wearout").value(), 3.0);
    EXPECT_EQ(reg.gauge("fleet.disks_useful").value(), 3.0);
    EXPECT_EQ(reg.gauge("fleet.disks_infancy").value(), 3.0);
    EXPECT_EQ(reg.gauge("fleet.backlog").value(), 0.0);
    EXPECT_GT(reg.gauge("fleet.budget_bytes").value(), 0.0);
    // Every FleetStats field exports as fleet.<field>.
    ctl.stats().for_each([&reg](const char* field, std::uint64_t v) {
      EXPECT_EQ(reg.counter(std::string("fleet.") + field).value(), v)
          << field;
    });
    EXPECT_GT(reg.counter("fleet.decision_ticks").value(), 0u);

    const std::string table = fleet_stats_table(ctl).to_string();
    EXPECT_NE(table.find("transitions"), std::string::npos);

    mig.stop();
  }(rig));
}

// Unbudgeted mode (transition_budget_bps = 0): the controller installs no
// shared bucket and the migrator falls back to its per-migration pacing —
// the reactive-storm baseline A15 measures against.
TEST(FleetControllerTest, UnbudgetedModeInstallsNoBucket) {
  raid::Rig rig(fleet_rig_params());
  run_sim_void(rig, [](raid::Rig& r) -> sim::Task<void> {
    FleetParams fp = three_class_params();
    fp.transition_budget_bps = 0.0;
    FleetModel model(r, fp);
    raid::SchemeMigrator mig(r);
    mig.start();
    FleetController ctl(r, mig, model, fp);

    pvfs::StripeLayout layout = r.layout(kSu);
    layout.base = 0;  // wearout cohort: upgrade expected
    auto f = co_await r.client_fs().create("fleet/u0", layout);
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t span = 2 * f->layout.stripe_width();
    auto wr = co_await r.client_fs().write(*f, 0,
                                           Buffer::pattern(span, 0xBEEF));
    CO_ASSERT_TRUE(wr.ok());
    ctl.register_file(0, "fleet/u0", *f, span);

    ctl.start();
    EXPECT_EQ(mig.shared_bucket(), nullptr);
    while (mig.stats().migrations_completed < 1 || !mig.idle()) {
      co_await r.sim.sleep(sim::ms(1));
    }
    ctl.stop();

    EXPECT_EQ(r.policy().scheme_of(*f), raid::Scheme::rs(6, 3));
    EXPECT_EQ(ctl.budget_bytes_taken(), 0u);
    mig.stop();
  }(rig));
}

}  // namespace
}  // namespace csar::fleet
