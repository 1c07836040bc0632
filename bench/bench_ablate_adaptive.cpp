// Ablation A10: adaptive per-file scheme selection vs static Hybrid.
//
// One deterministic fault ramp — a lossy client↔server link racking up RPC
// timeouts, then a wipe-crash with online rebuild, plus latent sector
// errors cleared by the closing scrub — is replayed against an identical
// small-write-heavy workload in two configurations:
//
//   static    the file stays Hybrid for the whole storm (the paper's
//             deployment-wide scheme choice)
//   adaptive  the policy engine watches the storm's own telemetry (RPC
//             pressure, health transitions, the file's partial-stripe write
//             ratio) and migrates the small-write-heavy file to RAID1
//             online, before the crash lands
//
// The claim: for a small-write-heavy file under fault pressure, migrating
// to RAID1 shrinks the post-crash repair — a mirror rebuild moves ~2·len
// per lost unit where parity reconstruction moves ~n·len — so the adaptive
// run must beat the static run on rebuild traffic or repair time (MTTR)
// while acknowledging the same workload with zero verify mismatches.
// Both configurations are bit-deterministic; the storm fingerprint of two
// identical adaptive runs must match exactly.
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "fault/storm.hpp"
#include "pvfs/io_server.hpp"

using namespace csar;

namespace {

constexpr std::uint32_t kServers = 6;
constexpr std::uint32_t kSu = 32 * KiB;

fault::StormParams storm_params(bool adaptive) {
  fault::StormParams p;
  p.rig.scheme = raid::Scheme::hybrid;
  p.rig.nservers = kServers;
  p.rig.rpc.timeout = sim::ms(150);
  p.rig.rpc.max_attempts = 4;
  p.rig.rpc.backoff = sim::ms(5);
  p.health.interval = sim::ms(100);
  p.file_size = 2 * MiB;
  p.stripe_unit = kSu;
  p.io_size = 4 * KiB;  // always partial-stripe: the Hybrid worst case
  p.ops = 300;
  p.op_gap = sim::ms(8);

  p.adaptive = adaptive;
  if (adaptive) {
    auto& a = p.rig.policy.adaptive;
    a.enabled = true;
    // The lossy link is the early warning; a couple of timed-out attempts
    // are enough to consider the cluster under pressure.
    a.rpc_pressure_threshold = 6;
    a.down_transition_threshold = 1;
    // The preload writes the whole file full-stripe, so the partial share
    // of total traffic stays modest even for a 100%-partial op mix; the
    // threshold is low enough to trip within the first ~50 partial ops,
    // leaving the migration time to finish before the crash lands.
    a.partial_ratio_threshold = 0.05;
    a.min_observed_bytes = 1 * MiB;
  }

  p.plan.seed = 910;
  // Fault ramp: a lossy link between the workload client and server 0
  // (timeouts -> RPC-pressure feed), then a wipe-crash of server 1 with an
  // online rebuild, then latent sector errors for the closing scrub.
  p.plan.crashes.push_back({sim::ms(2000), 1, sim::ms(2600), /*wipe=*/true});
  fault::MediaFault mf;
  mf.at = sim::ms(3000);
  mf.server = 3;
  mf.file = pvfs::IoServer::data_name(1);
  mf.off = 0;
  mf.len = 256 * KiB;
  p.plan.media.push_back(mf);

  raid::Rig probe(p.rig);  // resolve node ids for the lossy link
  fault::LinkFault lf;
  lf.a = probe.client().node_id();
  lf.b = probe.server(0).node_id();
  lf.start = sim::ms(200);
  lf.end = sim::ms(900);
  lf.drop_p = 0.3;
  p.plan.links.push_back(lf);
  return p;
}

void add_row(TextTable& t, const char* name, const fault::StormMetrics& m) {
  char a[16];
  std::snprintf(a, sizeof(a), "%.1f%%", 100.0 * m.availability);
  t.add_row({name, a, TextTable::num(m.migrate.migrations_completed),
             format_bytes(m.rebuild.bytes_rebuilt),
             TextTable::num(sim::to_seconds(m.mttr) * 1e3, 1),
             TextTable::num(m.verify_mismatches),
             TextTable::num(m.scrub_repaired)});
}

}  // namespace

int main() {
  report::banner(
      "A10", "Adaptive per-file scheme selection vs static Hybrid",
      "6 I/O servers, 1 client, 4 KiB partial writes on a Hybrid file, "
      "lossy link then wipe-crash + online rebuild");
  report::expectations({
      "the adaptive run migrates the small-write-heavy file to RAID1 before",
      "the crash (early warning = RPC pressure from the lossy link)",
      "post-crash repair shrinks: mirror rebuild moves ~2*len per lost unit",
      "vs ~n*len for parity reconstruction -> less rebuild traffic or lower",
      "MTTR, at zero verify mismatches in both configurations",
      "identical runs produce identical storm fingerprints (bit-determinism)",
  });

  const fault::StormMetrics stat = fault::run_storm(storm_params(false));
  const fault::StormMetrics adap = fault::run_storm(storm_params(true));
  const fault::StormMetrics adap2 = fault::run_storm(storm_params(true));

  TextTable t({"config", "avail", "migrations", "rebuild bytes", "mttr (ms)",
               "mismatch", "scrub fixed"});
  add_row(t, "static hybrid", stat);
  add_row(t, "adaptive", adap);
  report::table("one storm, static vs adaptive scheme selection", t);

  std::printf(
      "JSON {\"bench\":\"ablate_adaptive\",\"static\":{\"rebuild_bytes\":%"
      PRIu64 ",\"mttr_ms\":%.3f,\"mismatches\":%" PRIu64
      "},\"adaptive\":{\"rebuild_bytes\":%" PRIu64
      ",\"mttr_ms\":%.3f,\"mismatches\":%" PRIu64 ",\"migrations\":%" PRIu64
      "},\"fingerprint\":%" PRIu64 "}\n",
      stat.rebuild.bytes_rebuilt, sim::to_seconds(stat.mttr) * 1e3,
      stat.verify_mismatches, adap.rebuild.bytes_rebuilt,
      sim::to_seconds(adap.mttr) * 1e3, adap.verify_mismatches,
      adap.migrate.migrations_completed, adap.fingerprint);

  bool ok = true;
  auto check = [&ok](const char* what, bool cond) {
    report::check(what, cond);
    ok = ok && cond;
  };
  check("adaptive run migrated the file before the crash",
        adap.migrate.migrations_completed >= 1 &&
            adap.migrate.migrations_failed == 0);
  check("static run never migrates", stat.migrate.migrations_started == 0);
  check("zero verify mismatches in both configurations",
        stat.verify_mismatches == 0 && adap.verify_mismatches == 0);
  check("both rebuilds completed",
        stat.rebuild_ok && adap.rebuild_ok &&
            stat.rebuild.rebuilds_completed >= 1 &&
            adap.rebuild.rebuilds_completed >= 1);
  check("adaptive beats static on rebuild traffic or MTTR",
        adap.rebuild.bytes_rebuilt < stat.rebuild.bytes_rebuilt ||
            adap.mttr < stat.mttr);
  check("adaptive storm is bit-deterministic (fingerprints match)",
        adap.fingerprint == adap2.fingerprint &&
            adap.finished_at == adap2.finished_at);
  return report::exit_code();
}
