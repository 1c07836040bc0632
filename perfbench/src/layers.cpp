// Per-layer counts for a traced measured phase, taken from outside the
// layers: stats accessors snapshotted before and after, a pass-through
// fabric hook counting wire messages, and the program's own span tracer for
// the split of simulated time. Nothing here changes what the simulation
// does: the hook's verdict is always "deliver unchanged" and the tracer never
// schedules an event.
#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/units.hpp"
#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "sim/slab.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the set at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  return v[rank == 0 ? 0 : std::min(rank, v.size()) - 1];
}

void fold(std::uint64_t& h, std::uint64_t v) {
  if (h == 0) h = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

namespace {

namespace raid = csar::raid;
namespace sim = csar::sim;

/// Counts every fabric transfer and lets it through untouched.
class WireCounter final : public csar::net::FabricHook {
 public:
  Verdict on_transfer(csar::hw::NodeId, csar::hw::NodeId,
                      std::uint64_t payload_bytes) override {
    ++msgs;
    bytes += payload_bytes + csar::net::Fabric::kHeaderBytes;
    return {};
  }
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

struct Snapshot {
  sim::Time now = 0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t slab_fallback = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t prereads = 0;
  std::uint64_t dirty_evictions = 0;
  std::uint64_t disk_ios = 0;
  std::vector<sim::Duration> disk_busy;  ///< per server
  std::uint64_t rpcs = 0;
  std::uint64_t retries = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_subs = 0;
  std::uint64_t lock_waits = 0;
  sim::Duration lock_wait = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t ec_encode = 0;
  std::uint64_t ec_decode = 0;
  std::uint64_t ec_fragments = 0;
  std::uint64_t ec_decodes = 0;
  std::uint64_t degraded_reads = 0;
};

Snapshot snapshot(raid::Rig& rig) {
  Snapshot s;
  s.now = rig.sim.now();
  s.events = rig.sim.events_executed();
  s.frames = sim::slab::stats().allocs;
  s.slab_fallback = sim::slab::stats().fallback;
  for (auto& srv : rig.servers) {
    csar::hw::Node& n = rig.cluster.node(srv->node_id());
    if (n.cache() != nullptr) {
      const auto& cs = n.cache()->stats();
      s.cache_hits += cs.hits;
      s.cache_misses += cs.misses;
      s.prereads += cs.prereads;
      s.dirty_evictions += cs.dirty_evictions;
    }
    if (n.disk() != nullptr) {
      const auto ds = n.disk()->stats();
      s.disk_ios += ds.reads + ds.writes;
      s.disk_busy.push_back(ds.busy_time);
    }
    s.batches += srv->batch_stats().batches;
    s.batch_subs += srv->batch_stats().subs;
    s.lock_waits += srv->lock_stats().waits;
    s.lock_wait += srv->lock_stats().wait_time;
  }
  for (std::uint32_t c = 0; c < rig.clients.size(); ++c) {
    s.rpcs += rig.client(c).rpc_stats().sent;
    s.retries += rig.client(c).rpc_stats().retries;
    s.degraded_reads += rig.client_fs(c).failover_stats().degraded_reads;
  }
  s.journal_records = rig.manager->journal_stats().records_appended;
  const raid::EcStats& ec = rig.policy().ec_stats();
  s.ec_encode = ec.encode_bytes;
  s.ec_decode = ec.decode_bytes;
  s.ec_fragments = ec.fragments_fetched;
  s.ec_decodes = ec.degraded_reads + ec.rebuild_decodes;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Simulated-time split of the traced phase, in total milliseconds per
/// layer. A span's self time is its duration minus the union of its child
/// spans' intervals.
struct Split {
  double client = 0, wire = 0, queue = 0, lock_wait = 0, cache = 0;
};

Split split_spans(const csar::obs::Tracer& tracer) {
  const auto& ev = tracer.events();
  std::unordered_map<csar::obs::SpanId, std::size_t> by_id;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].ph == 'X' && !ev[i].open) by_id.emplace(ev[i].id, i);
  }
  std::vector<std::vector<std::pair<sim::Time, sim::Time>>> kids(ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].ph != 'X' || ev[i].open || ev[i].parent == 0) continue;
    auto it = by_id.find(ev[i].parent);
    if (it != by_id.end()) kids[it->second].emplace_back(ev[i].start, ev[i].start + ev[i].dur);
  }
  const auto self_ms = [&](std::size_t i) {
    const sim::Time lo = ev[i].start;
    const sim::Time hi = ev[i].start + ev[i].dur;
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    sim::Duration covered = 0;
    sim::Time cur = lo;
    for (auto [a, b] : k) {
      a = std::max(a, cur);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cur = b;
      }
    }
    return static_cast<double>(ev[i].dur - covered) / 1e6;
  };
  Split s;
  double rpc_self = 0, reply_wire = 0;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].ph != 'X' || ev[i].open) continue;
    const char* cat = ev[i].cat;
    if (std::strcmp(cat, "fs") == 0) {
      s.client += self_ms(i);
    } else if (std::strcmp(cat, "rpc") == 0) {
      rpc_self += self_ms(i);
    } else if (std::strcmp(cat, "net") == 0) {
      const double ms = static_cast<double>(ev[i].dur) / 1e6;
      s.wire += ms;
      // Replies travel as root transfers; an rpc span waits through them.
      if (ev[i].parent == 0) reply_wire += ms;
    } else if (std::strcmp(cat, "server") == 0) {
      s.queue += self_ms(i);
    } else if (std::strcmp(cat, "lock") == 0) {
      s.lock_wait += self_ms(i);
    } else if (std::strcmp(cat, "disk") == 0) {
      s.cache += self_ms(i);
    }
  }
  s.client += std::max(0.0, rpc_self - reply_wire);
  return s;
}

}  // namespace

struct LayerObserver::State {
  csar::obs::Tracer tracer;
  WireCounter wire;
  Snapshot before;
};

LayerObserver::LayerObserver(bool enabled) : enabled_(enabled) {
  if (enabled_) st_ = std::make_unique<State>();
}

LayerObserver::~LayerObserver() = default;

void LayerObserver::begin(raid::Rig& rig) {
  if (!enabled_) return;
  st_->before = snapshot(rig);
  rig.fabric.set_fault_hook(&st_->wire);
  // Rig::set_obs maps only the nodes of the manager, servers and workload
  // clients; a repair client that already exists (every workload builds its
  // RebuildCoordinator, which creates one, before this) needs its own trace
  // process or its spans land on unmapped pid 0.
  st_->tracer.map_node(rig.repair_client().node_id(), st_->tracer.process("repair"));
  rig.set_obs(&st_->tracer, nullptr);
}

void LayerObserver::end(raid::Rig& rig, std::uint64_t ops,
                        std::uint64_t user_bytes, IterResult& out) {
  if (!enabled_) return;
  rig.set_obs(nullptr, nullptr);
  rig.fabric.set_fault_hook(nullptr);
  const Snapshot& a = st_->before;
  const Snapshot b = snapshot(rig);
  const double n = static_cast<double>(ops);
  const double sim_s = sim::to_seconds(b.now - a.now);
  LayerMetrics& m = out.layer;

  m["sim.events_per_op"] = ratio(static_cast<double>(b.events - a.events), n);
  m["sim.frames_per_op"] = ratio(static_cast<double>(b.frames - a.frames), n);
  m["sim.slab_fallback"] = static_cast<double>(b.slab_fallback - a.slab_fallback);

  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  m["hw.cache_hit_ratio"] = ratio(hits, hits + misses);
  m["hw.dirty_evictions"] = static_cast<double>(b.dirty_evictions - a.dirty_evictions);
  m["hw.prereads_per_op"] = ratio(static_cast<double>(b.prereads - a.prereads), n);
  m["hw.disk_ios_per_op"] = ratio(static_cast<double>(b.disk_ios - a.disk_ios), n);
  double busy_max = 0, busy_total = 0;
  for (std::size_t i = 0; i < b.disk_busy.size() && i < a.disk_busy.size(); ++i) {
    const double busy = sim::to_seconds(b.disk_busy[i] - a.disk_busy[i]);
    busy_max = std::max(busy_max, busy);
    busy_total += busy;
  }
  m["hw.disk_busy_frac"] = ratio(busy_max, sim_s);

  m["net.msgs_per_op"] = ratio(static_cast<double>(st_->wire.msgs), n);
  m["net.wire_bytes_per_user_byte"] =
      ratio(static_cast<double>(st_->wire.bytes), static_cast<double>(user_bytes));

  m["pvfs.rpcs_per_op"] = ratio(static_cast<double>(b.rpcs - a.rpcs), n);
  m["pvfs.retries_per_op"] = ratio(static_cast<double>(b.retries - a.retries), n);
  m["pvfs.batch_subs_per_batch"] = ratio(static_cast<double>(b.batch_subs - a.batch_subs),
                                         static_cast<double>(b.batches - a.batches));
  m["pvfs.lock_waits_per_op"] = ratio(static_cast<double>(b.lock_waits - a.lock_waits), n);
  m["pvfs.lock_wait_ms_per_op"] =
      ratio(static_cast<double>(b.lock_wait - a.lock_wait) / 1e6, n);
  m["pvfs.journal_records"] = static_cast<double>(b.journal_records - a.journal_records);

  const double mib = static_cast<double>(csar::MiB);
  m["raid.ec_encode_mib"] = static_cast<double>(b.ec_encode - a.ec_encode) / mib;
  m["raid.ec_decode_mib"] = static_cast<double>(b.ec_decode - a.ec_decode) / mib;
  m["raid.fragments_per_decode"] = ratio(static_cast<double>(b.ec_fragments - a.ec_fragments),
                                         static_cast<double>(b.ec_decodes - a.ec_decodes));
  m["raid.degraded_reads"] = static_cast<double>(b.degraded_reads - a.degraded_reads);

  const Split sp = split_spans(st_->tracer);
  m["span.client_ms_per_op"] = ratio(sp.client, n);
  m["span.wire_ms_per_op"] = ratio(sp.wire, n);
  m["span.queue_ms_per_op"] = ratio(sp.queue, n);
  m["span.lock_wait_ms_per_op"] = ratio(sp.lock_wait, n);
  m["span.cache_ms_per_op"] = ratio(sp.cache, n);
  m["span.disk_ms_per_op"] = ratio(busy_total * 1e3, n);
}

}  // namespace perfbench
