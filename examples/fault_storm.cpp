// fault_storm: the robustness capstone — a deployment survives a scripted
// storm of faults with no test-side choreography at all.
//
// A FaultPlan crashes a server mid-workload (it rejoins on a blank disk),
// drops a third of the messages on one client link, makes another disk
// fail-slow and plants latent sector errors under a fourth server's data —
// while a seeded read/write mix keeps running. The client stack is on its
// own: RPC deadlines + retry with jittered backoff, the HealthMonitor's
// probe deadlines, transparent failover through the degraded paths, a
// rebuild when the crashed server rejoins, and a scrub pass that rewrites
// the unreadable sectors from redundancy. Every acknowledged read is
// verified against a shadow copy; the run is bit-deterministic, so the
// numbers below are stable across machines and runs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "fault/storm.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pvfs/io_server.hpp"
#include "raid/migrate.hpp"
#include "raid/rig.hpp"
#include "report/report.hpp"
#include "workloads/harness.hpp"
#include "workloads/open_loop.hpp"

using namespace csar;

namespace {

fault::StormParams storm_params(raid::Scheme scheme) {
  fault::StormParams p;
  p.rig.scheme = scheme;
  p.rig.nservers = 4;
  p.rig.rpc.timeout = sim::ms(150);
  p.rig.rpc.max_attempts = 4;
  p.rig.rpc.backoff = sim::ms(5);
  p.health.interval = sim::ms(100);
  p.file_size = 2 * MiB;
  p.stripe_unit = 32 * KiB;
  p.io_size = 32 * KiB;
  p.ops = 300;
  p.op_gap = sim::ms(8);

  p.plan.seed = 77;
  p.plan.crashes.push_back({sim::ms(400), 1, sim::ms(1200), /*wipe=*/true});
  fault::SlowDisk sd;
  sd.start = sim::ms(500);
  sd.end = sim::ms(800);
  sd.server = 0;
  sd.factor = 3.0;
  p.plan.slow_disks.push_back(sd);
  fault::MediaFault mf;
  mf.at = sim::ms(2500);
  mf.server = 3;
  mf.file = pvfs::IoServer::data_name(1);
  mf.off = 0;
  mf.len = 1 * MiB;
  p.plan.media.push_back(mf);
  return p;
}

/// The lossy link needs real node ids, which depend on the rig build order;
/// resolve them against a throwaway rig of the same shape.
void add_lossy_link(fault::StormParams& p) {
  raid::Rig probe(p.rig);
  fault::LinkFault lf;
  lf.a = probe.client().node_id();
  lf.b = probe.server(2).node_id();
  lf.start = sim::ms(300);
  lf.end = sim::ms(900);
  lf.drop_p = 0.3;
  p.plan.links.push_back(lf);
}

/// One more hybrid storm with the observability layer attached: every RPC,
/// fabric transfer, server stage, lock wait and disk access lands as a span;
/// faults and rebuild phases as instants. Sim-time only, so the dump is
/// byte-identical across reruns.
void traced_run(const std::string& trace_path,
                const std::string& metrics_path) {
  obs::Tracer tracer;
  obs::Registry metrics;
  fault::StormParams p = storm_params(raid::Scheme::hybrid);
  add_lossy_link(p);
  p.tracer = trace_path.empty() ? nullptr : &tracer;
  p.metrics = metrics_path.empty() ? nullptr : &metrics;
  p.sample_window = sim::ms(50);
  fault::StormMetrics m = fault::run_storm(p);
  if (!trace_path.empty()) {
    report::check("trace written (open in Perfetto / chrome://tracing)",
                  tracer.write_file(trace_path));
    std::printf("  %s: %zu spans, %zu instants, finished at t=%.0fms\n",
                trace_path.c_str(), tracer.span_count(),
                tracer.instant_count(), sim::to_seconds(m.finished_at) * 1e3);
  }
  if (!metrics_path.empty()) {
    const bool json =
        metrics_path.size() > 5 &&
        metrics_path.compare(metrics_path.size() - 5, 5, ".json") == 0;
    report::check("metrics written", metrics.write_file(metrics_path, json));
    std::printf("  %s (+%zu utilization sample rows)\n", metrics_path.c_str(),
                static_cast<std::size_t>(
                    m.samples_csv.empty()
                        ? 0
                        : std::count(m.samples_csv.begin(),
                                     m.samples_csv.end(), '\n') -
                              1));
  }
}

// --- opt-in fleet storm (--fleet) ------------------------------------
// The PACEMAKER controller under the fault classes the A15 ablation
// deliberately keeps out of its latency contrast: transient server crashes
// and whole-domain (rack) outages, all derived from the fleet's own bathtub
// AFR curves. Budgeted rs(4,2)<->rs(6,3) transitions run concurrently with
// the outages; the run is bit-deterministic and executed twice to prove it.

fleet::FleetParams fleet_storm_params() {
  fleet::FleetParams fp;
  fp.group_size = 3;
  // Cohort ages at t=0: g0 = 3.0y (hits wearout mid-run), g1 = 1.0y
  // (useful life), g2 = 0y (infancy). 4 s at 0.5 y/s = two fleet-years.
  fp.group0_age_years = 3.0;
  fp.group_age_step_years = 2.0;
  fp.years_per_sim_sec = 0.5;
  fp.lead_years = 0.1;
  fp.decision_interval = sim::ms(50);
  fp.transition_budget_bps = 8e6;
  fp.max_concurrent = 2;
  fp.fault_boost = 25.0;          // compressed timeline needs visible events
  fp.media_fraction = 0.4;        // latent sector errors AND server crashes
  fp.group_outage_per_year = 1.0; // plus shared rack/power outages
  return fp;
}

struct FleetOutcome {
  wl::OpenLoopStats ol;
  fleet::FleetStats fs;
  std::uint64_t migs_completed = 0;
  std::uint64_t budget_bytes = 0;
  fault::FaultStats faults;
  std::uint64_t events = 0;
  double sim_seconds = 0;
};

FleetOutcome run_fleet_storm() {
  constexpr std::uint32_t kTenants = 16;
  const sim::Duration kRun = sim::ms(4000);

  raid::RigParams rp;
  rp.scheme = raid::Scheme::rs(4, 2);
  rp.nservers = 9;
  rp.nclients = 4;
  rp.rpc.timeout = sim::ms(150);
  rp.rpc.max_attempts = 4;
  rp.rpc.backoff = sim::ms(5);
  raid::Rig rig(rp);

  fleet::FleetParams fp = fleet_storm_params();
  fleet::FleetModel model(rig, fp);

  fault::FaultPlan plan = model.derive_fault_plan(kRun, sim::ms(20), kTenants);
  std::vector<pvfs::IoServer*> server_ptrs;
  for (auto& s : rig.servers) server_ptrs.push_back(s.get());
  fault::FaultInjector inj(rig.cluster, rig.fabric, std::move(server_ptrs),
                           std::move(plan));
  inj.start();

  raid::SchemeMigrator mig(rig);
  fleet::FleetController ctl(rig, mig, model, fp);

  wl::OpenLoopParams olp;
  olp.ntenants = kTenants;
  olp.total_rate = 25.0 * kTenants;
  olp.duration = kRun;
  olp.max_outstanding = 8;
  olp.request_bytes = 16 * KiB;
  olp.stripe_unit = 64 * KiB;
  olp.file_extent = 2 * MiB;
  olp.seed = 0x57042F1EE7ULL;
  olp.rotate_base = true;
  olp.on_file_created = [&ctl](std::uint32_t tenant, const std::string& name,
                               const pvfs::OpenFile& f, std::uint64_t extent) {
    ctl.register_file(tenant, name, f, extent);
  };
  mig.start();
  ctl.start();

  FleetOutcome o;
  o.ol = wl::run_on(
      rig,
      [](raid::Rig& r, const wl::OpenLoopParams& p, raid::SchemeMigrator& m,
         fleet::FleetController& c) -> sim::Task<wl::OpenLoopStats> {
        wl::OpenLoopStats stats = co_await wl::run_open_loop(r, p);
        while (!m.idle()) co_await r.sim.sleep(sim::ms(5));
        c.stop();
        m.stop();
        co_return stats;
      }(rig, olp, mig, ctl));
  o.fs = ctl.stats();
  o.migs_completed = mig.stats().migrations_completed;
  o.budget_bytes = ctl.budget_bytes_taken();
  o.faults = inj.stats();
  o.events = rig.sim.events_executed();
  o.sim_seconds = sim::to_seconds(rig.sim.now());
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  // Mixed-scheme storm file set. Parsed with parse_scheme_list, which
  // splits on depth-0 commas only — "rs(4,2)" is one element, not two.
  std::string scheme_list = "rs(4,2),raid1,rs(4,2)";
  bool perf = false;
  bool fleet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--schemes=", 10) == 0) {
      scheme_list = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--perf") == 0) {
      perf = true;
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      fleet = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace=out.json] [--metrics=out.csv] "
                   "[--schemes=rs(4,2),raid1,...] [--fleet] [--perf]\n",
                   argv[0]);
      return 2;
    }
  }
  const auto mixed_schemes = raid::parse_scheme_list(scheme_list);
  if (!mixed_schemes) {
    std::fprintf(stderr, "unparsable --schemes list: %s\n",
                 scheme_list.c_str());
    return 2;
  }

  // --perf instruments the whole run from here; it only *appends* output, so
  // the determinism diff on the default invocation is untouched.
  const auto perf_t0 = std::chrono::steady_clock::now();
  std::uint64_t perf_events = 0;
  double perf_sim_seconds = 0;

  report::banner("fault-storm", "Deterministic fault storm, survived end to end",
                 "4 I/O servers, 1 client, 150 ms RPC deadline x4 attempts, "
                 "100 ms health probes");
  std::printf(
      "  plan: crash+wipe server 1 @400ms (back @1200ms), 30%% loss on the\n"
      "  server-2 link [300,900)ms, server-0 disk 3x slow [500,800)ms,\n"
      "  1 MiB of latent sector errors under server 3 @2500ms\n\n");

  TextTable t({"scheme", "avail", "retries", "timeouts", "degraded",
               "reactive", "detect ms", "MTTR ms", "scrub fix", "mismatch"});
  bool all_ok = true;
  std::uint64_t mismatches = 0;
  for (raid::Scheme scheme :
       {raid::Scheme::raid1, raid::Scheme::raid5, raid::Scheme::hybrid}) {
    fault::StormParams p = storm_params(scheme);
    add_lossy_link(p);
    fault::StormMetrics m = fault::run_storm(p);
    perf_events += m.events_executed;
    perf_sim_seconds += sim::to_seconds(m.finished_at);
    char avail[16];
    std::snprintf(avail, sizeof(avail), "%.1f%%", 100.0 * m.availability);
    t.add_row({scheme_name(scheme), avail, std::to_string(m.rpc.retries),
           std::to_string(m.rpc.timeouts),
           std::to_string(m.failover.degraded_reads +
                          m.failover.degraded_writes),
           std::to_string(m.failover.reactive),
           std::to_string(m.detection_latency / sim::ms(1)),
           std::to_string(m.mttr / sim::ms(1)),
           std::to_string(m.scrub_repaired),
           std::to_string(m.verify_mismatches)});
    all_ok = all_ok && m.rebuild_ok;
    mismatches += m.verify_mismatches;
  }
  report::table("one identical storm per scheme", t);
  report::check("every acknowledged read matched the shadow copy",
                mismatches == 0);
  report::check("every scheduled rebuild completed", all_ok);

  // Unquiesced verification sweep: the same storm shape on the hybrid
  // scheme across independent seeds (workload and fault-plan RNG both
  // vary). The writer never pauses for the rebuild — the coordinator's
  // dirty-interval re-copy is the only thing standing between a moving
  // write stream and a stale replacement disk, so a single missed region
  // shows up as a shadow mismatch here.
  std::printf("\n");
  report::banner("storm-sweep", "Unquiesced rebuild, multi-seed verification",
                 "hybrid scheme, 3 independent seeds, writer never paused");
  TextTable sweep({"seed", "dirty KiB", "recopy", "MTTR ms", "mismatch"});
  bool sweep_ok = true;
  for (std::uint64_t seed : {42ULL, 1337ULL, 2718ULL}) {
    fault::StormParams p = storm_params(raid::Scheme::hybrid);
    p.workload_seed = seed;
    p.plan.seed = seed ^ 0xF00D;
    add_lossy_link(p);
    fault::StormMetrics m = fault::run_storm(p);
    perf_events += m.events_executed;
    perf_sim_seconds += sim::to_seconds(m.finished_at);
    sweep.add_row({std::to_string(seed),
                   std::to_string(m.rebuild.dirty_bytes / KiB),
                   std::to_string(m.rebuild.recopy_passes),
                   std::to_string(m.mttr / sim::ms(1)),
                   std::to_string(m.verify_mismatches)});
    sweep_ok = sweep_ok && m.rebuild_ok && m.verify_mismatches == 0 &&
               m.rebuild.rebuilds_completed >= 1;
  }
  report::table("same storm, three seeds", sweep);
  report::check("all seeds: online rebuild completed, zero mismatches",
                sweep_ok);

  // Manager-crash storm: now the metadata manager itself is the fault
  // target. It crashes twice mid-storm — once while a scheme migration is
  // copying, so the migrator's fenced persist is rejected and post-replay
  // reconciliation must resume the flip; the second crash loses the
  // unsynced journal tail. The workload never pauses (data ops bypass the
  // manager), the final metadata audit must find zero divergence between
  // the replayed manager and the live cluster, and two identical runs must
  // produce the same fingerprint byte for byte.
  std::printf("\n");
  report::banner("mgr-storm", "Manager crashes + journal replay mid-storm",
                 "raid0 file migrating to raid1; crash #1 mid-migration, "
                 "crash #2 wipes the unsynced journal tail");
  auto mgr_params = [] {
    fault::StormParams p = storm_params(raid::Scheme::raid0);
    p.plan.crashes.clear();  // the manager, not a data server, is the victim
    p.plan.media.clear();
    p.migrate_file = 0;
    p.migrate_to = raid::Scheme::raid1;
    p.migrate_at = sim::ms(600);
    // Pace the copy (~260 ms for 2 MiB) so crash #1 lands inside it, and
    // give migration RPCs real deadlines so the lossy link cannot stall a
    // copy pass for the full legacy 30 s timeout.
    p.migrate.rate_cap = 8e6;
    p.migrate.rpc = pvfs::RpcPolicy{sim::ms(150), 4, sim::ms(5), 0.5};
    p.plan.mgr_crashes.push_back({sim::ms(700), sim::ms(760), false});
    p.plan.mgr_crashes.push_back({sim::ms(1800), sim::ms(1900), true});
    add_lossy_link(p);
    return p;
  };
  const fault::StormMetrics g1 = fault::run_storm(mgr_params());
  const fault::StormMetrics g2 = fault::run_storm(mgr_params());
  perf_events += g1.events_executed + g2.events_executed;
  perf_sim_seconds +=
      sim::to_seconds(g1.finished_at) + sim::to_seconds(g2.finished_at);
  TextTable mt({"run", "avail", "mgr crashes", "replays", "replayed recs",
                "migr started", "meta mismatch", "data mismatch"});
  for (const auto* m : {&g1, &g2}) {
    char avail[16];
    std::snprintf(avail, sizeof(avail), "%.1f%%", 100.0 * m->availability);
    mt.add_row({m == &g1 ? "A" : "B", avail,
                std::to_string(m->manager.crashes),
                std::to_string(m->manager.replays),
                std::to_string(m->manager.replayed_records),
                std::to_string(m->migrate.migrations_started),
                std::to_string(m->meta_mismatches),
                std::to_string(m->verify_mismatches)});
  }
  report::table("same manager-crash storm, run twice", mt);
  report::check("both manager crashes replayed (journal + checkpoint)",
                g1.manager.crashes == 2 && g1.manager.replays == 2);
  report::check("metadata audit clean after replay + reconciliation",
                g1.meta_mismatches == 0);
  report::check("zero data mismatches through the manager outages",
                g1.verify_mismatches == 0);
  report::check("the migration was attempted mid-crash-window",
                g1.migrate.migrations_started >= 1);
  report::check("manager-crash storm is bit-deterministic",
                g1.fingerprint == g2.fingerprint &&
                    g1.finished_at == g2.finished_at &&
                    g1.events_executed == g2.events_executed);

  // Erasure-coded storm: a mixed-scheme file set where two servers are
  // crashed AND wiped with overlapping outage windows. rs(4,2) tolerates
  // both at once (any 4 of its 6 fragments decode every group); the raid1
  // file's ops fail while two servers are out — failed writes taint their
  // bytes and are excluded — but nothing acknowledged may ever come back
  // wrong. Both wiped disks are rebuilt online, each decode routing around
  // the *other* victim while it is still down.
  std::printf("\n");
  report::banner("ec-storm", "Mixed rs(4,2) storm, two concurrent wipes",
                 ("files: " + scheme_list +
                  "; crash+wipe servers 1 @400ms and 3 @600ms, "
                  "overlapping until 1600/1800ms")
                     .c_str());
  // rs(k,m) places k+m fragments on distinct servers, so the rig must be at
  // least as wide as the widest scheme in the mix (6 covers the classics).
  std::uint32_t ec_nservers = 6;
  for (const raid::Scheme& s : *mixed_schemes) {
    if (s.kind == raid::SchemeKind::rs) {
      ec_nservers = std::max<std::uint32_t>(ec_nservers, s.k + s.m);
    }
  }
  auto ec_params = [&] {
    fault::StormParams p = storm_params(raid::Scheme::hybrid);
    p.rig.nservers = ec_nservers;
    p.file_schemes = *mixed_schemes;
    p.nfiles = static_cast<std::uint32_t>(mixed_schemes->size());
    p.plan.crashes.clear();
    p.plan.media.clear();
    p.plan.crashes.push_back({sim::ms(400), 1, sim::ms(1600), /*wipe=*/true});
    p.plan.crashes.push_back({sim::ms(600), 3, sim::ms(1800), /*wipe=*/true});
    add_lossy_link(p);
    return p;
  };
  const fault::StormMetrics e1 = fault::run_storm(ec_params());
  const fault::StormMetrics e2 = fault::run_storm(ec_params());
  perf_events += e1.events_executed + e2.events_executed;
  perf_sim_seconds +=
      sim::to_seconds(e1.finished_at) + sim::to_seconds(e2.finished_at);
  TextTable et({"run", "avail", "degraded", "rebuilds", "rebuild MiB",
                "tainted KiB", "mismatch"});
  for (const auto* m : {&e1, &e2}) {
    char avail[16];
    std::snprintf(avail, sizeof(avail), "%.1f%%", 100.0 * m->availability);
    et.add_row({m == &e1 ? "A" : "B", avail,
                std::to_string(m->failover.degraded_reads +
                               m->failover.degraded_writes),
                std::to_string(m->rebuild.rebuilds_completed),
                std::to_string(m->rebuild.bytes_rebuilt / MiB),
                std::to_string(m->tainted_bytes / KiB),
                std::to_string(m->verify_mismatches)});
  }
  report::table("same double-wipe storm, run twice", et);
  report::check("zero mismatches across two concurrent server wipes",
                e1.verify_mismatches == 0);
  report::check("both wiped servers rebuilt and re-admitted online",
                e1.rebuild_ok && e1.rebuild.rebuilds_completed >= 2);
  report::check("the storm kept running degraded through the double outage",
                e1.failover.degraded_reads + e1.failover.degraded_writes > 0);
  report::check("rs storm is bit-deterministic",
                e1.fingerprint == e2.fingerprint &&
                    e1.finished_at == e2.finished_at &&
                    e1.events_executed == e2.events_executed);

  if (fleet) {
    std::printf("\n");
    report::banner("fleet-storm",
                   "PACEMAKER controller under crashes + rack outages",
                   "9 servers in 3 age cohorts; AFR-derived crashes, latent "
                   "sector errors and whole-domain outages; budgeted "
                   "rs(4,2)<->rs(6,3) transitions");
    {
      raid::RigParams rp;
      rp.scheme = raid::Scheme::rs(4, 2);
      rp.nservers = 9;
      raid::Rig probe(rp);
      fleet::FleetModel model(probe, fleet_storm_params());
      report::table("disk groups at t=0 (2 fleet-years simulated)",
                    fleet::fleet_groups_table(model, 0.0));
      std::printf("\n");
    }
    const FleetOutcome f1 = run_fleet_storm();
    const FleetOutcome f2 = run_fleet_storm();
    perf_events += f1.events + f2.events;
    perf_sim_seconds += f1.sim_seconds + f2.sim_seconds;
    TextTable ft({"run", "completed", "failed", "shed", "transitions",
                  "urgent", "migs done", "budget MiB", "crashes", "rack out",
                  "media"});
    for (const auto* o : {&f1, &f2}) {
      ft.add_row({o == &f1 ? "A" : "B", std::to_string(o->ol.completed),
                  std::to_string(o->ol.failed), std::to_string(o->ol.shed),
                  std::to_string(o->fs.transitions_requested),
                  std::to_string(o->fs.urgent_requested),
                  std::to_string(o->migs_completed),
                  TextTable::num(static_cast<double>(o->budget_bytes) /
                                     static_cast<double>(MiB),
                                 1),
                  std::to_string(o->faults.crashes),
                  std::to_string(o->faults.group_crashes),
                  std::to_string(o->faults.media_planted)});
    }
    report::table("same AFR-derived storm, run twice", ft);
    report::check("the derived plan exercised every fault class "
                  "(crash, rack outage, latent sector error)",
                  f1.faults.crashes > 0 && f1.faults.group_crashes > 0 &&
                      f1.faults.media_planted > 0);
    report::check("the controller transitioned schemes through the outages",
                  f1.fs.urgent_requested > 0 && f1.migs_completed > 0);
    report::check("every tenant file's rgroup persisted at the manager",
                  f1.fs.rgroup_persists >= 16);
    report::check("transition copies drew from the shared budget",
                  f1.budget_bytes > 0);
    report::check("fleet storm is bit-deterministic",
                  f1.ol.fingerprint == f2.ol.fingerprint &&
                      f1.events == f2.events &&
                      f1.fs.transitions_requested ==
                          f2.fs.transitions_requested);
  }

  if (!trace_path.empty() || !metrics_path.empty()) {
    std::printf("\n");
    report::banner("storm-trace", "Same hybrid storm, observability attached",
                   "spans: rpc/net/server/lock/disk; instants: faults, "
                   "rebuild phases");
    traced_run(trace_path, metrics_path);
  }

  if (perf) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - perf_t0)
                            .count();
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("\n");
    report::banner("storm-perf", "Simulator throughput over all storm runs",
                   "wall clock, host-dependent: not part of the "
                   "determinism contract");
    std::printf("  events executed      : %llu\n",
                static_cast<unsigned long long>(perf_events));
    std::printf("  wall seconds         : %.3f\n", wall);
    std::printf("  events/sec           : %.3e\n",
                wall > 0 ? perf_events / wall : 0.0);
    std::printf("  wall per simulated s : %.4f\n",
                perf_sim_seconds > 0 ? wall / perf_sim_seconds : 0.0);
    std::printf("  peak RSS             : %.1f MiB\n",
                ru.ru_maxrss / 1024.0);
  }
  return report::exit_code();
}
