// Ablation A12: metadata-manager journaling — durability cost and crash MTTR.
//
// Plain PVFS keeps its manager's file table in memory only: a manager crash
// loses every file's metadata. The journaled manager (MetaJournal) writes
// each committed mutation through the manager node's disk before replying,
// checkpoints periodically, and replays checkpoint + journal on restart.
// Durability is not free — the journal flush sits on the create/remove/
// set_redundancy critical path — so this ablation prices it:
//
//   overhead   identical create-heavy metadata workload with journaling off
//              (the legacy baseline, crash = total loss) vs on; the delta in
//              simulated completion time is the durability tax.
//   MTTR       with journaling on, crash the manager mid-workload (losing
//              the unsynced page-cache tail), restart it, and measure crash
//              -> first successfully served meta op, replay included.
//
// Everything is simulated and seeded, so both halves are bit-deterministic:
// a second identical MTTR run must reproduce the same replay count, the
// same MTTR and the same completion time exactly.
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "workloads/harness.hpp"

using namespace csar;

namespace {

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kSu = 64 * KiB;
constexpr std::uint32_t kFiles = 240;

raid::RigParams rig_params(bool journaling) {
  raid::RigParams p;
  p.scheme = raid::Scheme::raid0;  // metadata-only workload; data path idle
  p.nservers = kServers;
  p.manager.journaling = journaling;
  return p;
}

struct MetaRunResult {
  double secs = 0.0;          ///< workload completion (simulated)
  std::uint64_t records = 0;  ///< journal records appended
  std::uint64_t bytes = 0;    ///< journal bytes appended
  std::uint64_t checkpoints = 0;
};

/// Create kFiles files, tag every fourth with a scheme, remove every eighth
/// — the create-heavy mix a checkpoint/restore workload throws at the
/// manager (data writes excluded so the journal cost is not diluted).
MetaRunResult run_meta_workload(bool journaling) {
  bench::Rig rig(rig_params(journaling));
  MetaRunResult out;
  out.secs = wl::run_on(rig, [](raid::Rig& r) -> sim::Task<double> {
    const sim::Time t0 = r.sim.now();
    for (std::uint32_t i = 0; i < kFiles; ++i) {
      const std::string name = "ckpt" + std::to_string(i);
      auto f = co_await r.client().create(name, r.layout(kSu));
      assert(f.ok());
      (void)f;
      if (i % 4 == 0) {
        auto s = co_await r.client().set_redundancy(
            name, raid::scheme_tag(raid::Scheme::raid1), 1,
            pvfs::kRgroupUnset);
        assert(s.ok());
        (void)s;
      }
      if (i % 8 == 0) {
        auto rm = co_await r.client().remove(name);
        assert(rm.ok());
        (void)rm;
      }
    }
    co_return sim::to_seconds(r.sim.now() - t0);
  }(rig));
  const pvfs::JournalStats js = rig.manager->journal_stats();
  out.records = js.records_appended;
  out.bytes = js.bytes_appended;
  out.checkpoints = js.checkpoints;
  return out;
}

struct MttrResult {
  double mttr_ms = 0.0;  ///< crash -> first successfully served meta op
  double secs = 0.0;     ///< full run completion
  std::uint64_t replayed = 0;
  std::uint64_t files_after = 0;
  bool recovered_all = true;
};

/// Crash the journaled manager (wiping the unsynced tail) halfway through
/// the create stream, restart it after a fixed outage, and time how long a
/// retrying client is locked out of metadata service.
MttrResult run_mttr() {
  bench::Rig rig(rig_params(/*journaling=*/true));
  MttrResult out;
  out.mttr_ms = wl::run_on(rig, [](raid::Rig& r,
                                   MttrResult* res) -> sim::Task<double> {
    pvfs::RpcPolicy retry;
    retry.timeout = sim::ms(20);
    retry.max_attempts = 3;
    retry.jitter = 0.0;
    r.client().set_rpc_policy(retry);
    for (std::uint32_t i = 0; i < kFiles / 2; ++i) {
      auto f = co_await r.client().create("ckpt" + std::to_string(i),
                                          r.layout(kSu));
      assert(f.ok());
      (void)f;
    }
    const sim::Time crash_at = r.sim.now();
    r.manager->crash(/*wipe_unsynced=*/true);
    // Operator-restart outage: replay starts 50 simulated ms after the
    // crash; the client keeps retrying throughout.
    r.sim.spawn([](raid::Rig& rr) -> sim::Task<void> {
      co_await rr.sim.sleep(sim::ms(50));
      co_await rr.manager->restart();
    }(r), "manager_restart");
    sim::Time served_at = 0;
    while (true) {
      auto f = co_await r.client().open("ckpt0");
      if (f.ok()) {
        served_at = r.sim.now();
        break;
      }
      co_await r.sim.sleep(sim::ms(5));
    }
    // The back half of the stream lands on the replayed manager.
    for (std::uint32_t i = kFiles / 2; i < kFiles; ++i) {
      auto f = co_await r.client().create("ckpt" + std::to_string(i),
                                          r.layout(kSu));
      assert(f.ok());
      (void)f;
    }
    res->secs = sim::to_seconds(r.sim.now());
    co_return sim::to_seconds(served_at - crash_at) * 1e3;
  }(rig, &out));
  out.replayed = rig.manager->stats().replayed_records;
  out.files_after = rig.manager->file_count();
  out.recovered_all = out.files_after == kFiles;
  return out;
}

}  // namespace

int main() {
  report::banner(
      "A12", "Manager metadata journaling: durability cost and crash MTTR",
      "4 I/O servers, 1 client, 240-file create/tag/remove metadata stream "
      "on the manager; mid-stream manager wipe-crash + journal replay");
  report::expectations({
      "journaling costs real time on the create path: every mutation buys",
      "one synchronous flush through the manager disk before the reply, so",
      "the per-mutation tax is about one disk service time (~10 ms) against",
      "a near-free in-memory baseline",
      "a wipe-crash halfway through the stream loses nothing: replay",
      "restores every committed file and the stream completes on the",
      "replayed manager",
      "manager MTTR (crash -> first served meta op) is dominated by the",
      "scheduled 50 ms outage, not by replay",
      "identical runs reproduce identical MTTR, replay counts and times",
  });

  const MetaRunResult off = run_meta_workload(false);
  const MetaRunResult on = run_meta_workload(true);
  const MttrResult mttr = run_mttr();
  const MttrResult mttr2 = run_mttr();

  const double overhead_pct = off.secs > 0.0
                                  ? 100.0 * (on.secs - off.secs) / off.secs
                                  : 0.0;
  TextTable t({"config", "meta stream (ms)", "journal recs", "journal bytes",
               "checkpoints"});
  t.add_row({"in-memory (legacy)", TextTable::num(off.secs * 1e3, 2),
             TextTable::num(off.records), format_bytes(off.bytes),
             TextTable::num(off.checkpoints)});
  t.add_row({"journaled", TextTable::num(on.secs * 1e3, 2),
             TextTable::num(on.records), format_bytes(on.bytes),
             TextTable::num(on.checkpoints)});
  report::table("create-heavy metadata stream, journaling off vs on", t);
  std::printf("journal overhead on the metadata stream: %.1f%%\n",
              overhead_pct);
  std::printf(
      "wipe-crash at file %u: MTTR %.3f ms, %" PRIu64
      " records replayed, %" PRIu64 "/%u files after the full stream\n",
      kFiles / 2, mttr.mttr_ms, mttr.replayed, mttr.files_after, kFiles);

  std::printf(
      "JSON {\"bench\":\"ablate_manager_journal\",\"stream_ms_off\":%.3f,"
      "\"stream_ms_on\":%.3f,\"overhead_pct\":%.2f,\"journal_records\":%"
      PRIu64 ",\"journal_bytes\":%" PRIu64 ",\"mttr_ms\":%.3f,"
      "\"replayed_records\":%" PRIu64 "}\n",
      off.secs * 1e3, on.secs * 1e3, overhead_pct, on.records, on.bytes,
      mttr.mttr_ms, mttr.replayed);

  report::check("journaling appended a record per committed mutation",
                on.records >= kFiles && off.records == 0);
  report::check("periodic checkpoints bounded the journal",
                on.checkpoints >= 1);
  const double per_record_ms =
      on.records > 0
          ? (on.secs - off.secs) * 1e3 / static_cast<double>(on.records)
          : 0.0;
  std::printf("per-mutation journal cost: %.2f ms (one sync disk flush)\n",
              per_record_ms);
  report::check("per-mutation journal cost ~ one disk service time (<15 ms)",
                on.secs > off.secs && per_record_ms > 0.5 &&
                    per_record_ms < 15.0);
  report::check("replay restored every committed file (wipe lost nothing)",
                mttr.recovered_all);
  report::check("MTTR covers the outage and stays under 100 ms",
                mttr.mttr_ms >= 50.0 && mttr.mttr_ms < 100.0);
  report::check("MTTR run is bit-deterministic",
                mttr.mttr_ms == mttr2.mttr_ms &&
                    mttr.replayed == mttr2.replayed &&
                    mttr.secs == mttr2.secs);
  return report::exit_code();
}
