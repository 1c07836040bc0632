// Ablation A8: what each layer of the robustness stack buys under an
// identical fault storm.
//
// One deterministic FaultPlan (crash + blank-disk rejoin, a lossy link, a
// fail-slow disk, latent sector errors) is replayed against the same
// workload with the client machinery progressively enabled:
//   retry=1   deadlines only — a timed-out op fails unless failover saves it
//   retry=4   full stack: jittered exponential backoff absorbs the lossy
//             link, failover absorbs the crash window
// The claim worth pinning: the retry budget moves *availability* (fewer
// acknowledged-op failures during the storm) but never *integrity* — a read
// either fails loudly or returns bytes that match the shadow copy. Those
// are the two separate guarantees the scheme design cares about (§1's
// single-failure tolerance, audited end to end here).
#include "bench_common.hpp"
#include "fault/storm.hpp"
#include "pvfs/io_server.hpp"

using namespace csar;

namespace {

fault::StormParams storm_params(raid::Scheme scheme,
                                std::uint32_t max_attempts) {
  fault::StormParams p;
  p.rig.scheme = scheme;
  p.rig.nservers = 4;
  p.rig.rpc.timeout = sim::ms(150);
  p.rig.rpc.max_attempts = max_attempts;
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

  raid::Rig probe(p.rig);  // resolve node ids for the lossy link
  fault::LinkFault lf;
  lf.a = probe.client().node_id();
  lf.b = probe.server(2).node_id();
  lf.start = sim::ms(300);
  lf.end = sim::ms(900);
  lf.drop_p = 0.3;
  p.plan.links.push_back(lf);
  return p;
}

}  // namespace

int main() {
  report::banner("ablate-fault-storm",
                 "Retry budget vs availability under one identical storm",
                 "4 I/O servers, 1 client, 150 ms RPC deadline, "
                 "100 ms health probes");
  report::expectations({
      "more attempts -> fewer failed ops (higher availability)",
      "verify mismatches stay 0 in every configuration: retries change",
      "whether an op completes, never whether completed data is right",
  });

  TextTable t({"scheme", "attempts", "avail", "ops failed", "retries",
               "degraded", "mismatch"});
  bool integrity = true;
  double avail[2] = {0.0, 0.0};
  for (raid::Scheme scheme :
       {raid::Scheme::raid1, raid::Scheme::raid5, raid::Scheme::hybrid}) {
    int col = 0;
    for (std::uint32_t attempts : {1u, 4u}) {
      fault::StormMetrics m =
          fault::run_storm(storm_params(scheme, attempts));
      char a[16];
      std::snprintf(a, sizeof(a), "%.1f%%", 100.0 * m.availability);
      t.add_row({scheme_name(scheme), std::to_string(attempts), a,
                 std::to_string(m.ops_failed), std::to_string(m.rpc.retries),
                 std::to_string(m.failover.degraded_reads +
                                m.failover.degraded_writes),
                 std::to_string(m.verify_mismatches)});
      integrity = integrity && m.verify_mismatches == 0;
      avail[col++] += m.availability;
    }
  }
  report::table("one storm, sweeping the retry budget", t);
  report::check("retry budget improves mean availability",
                avail[1] >= avail[0]);
  report::check("zero verify mismatches in every configuration", integrity);
  return report::exit_code();
}
