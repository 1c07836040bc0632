// The benchmark's three workloads. Each drives the simulator only through
// its public API (raid::Rig, CsarFs, IoServer crash/restart, HealthMonitor,
// RebuildCoordinator and the stats accessors) and checks its own outputs.
//
//  openloop_small  open loop, Poisson arrivals, 64 tenants over 4 clients,
//                  Hybrid files, 16 KiB phantom requests (30% reads) on a
//                  working set that fits the servers' page caches.
//  stream_parity   closed loop, 4 clients streaming 1.875 MiB full-stripe
//                  chunks of real bytes into a raid5 and an rs(4,2) file,
//                  flush, read everything back byte for byte; the server
//                  page cache is shrunk so the data set is ~10x the cache.
//  degraded_rmw    closed loop, 4 clients issuing unaligned sub-stripe
//                  overwrites (and some reads) of real bytes on raid5 and
//                  rs(4,2) files with cold caches; a server crashes mid-run,
//                  restarts blank and is rebuilt online while the clients
//                  keep issuing ops.
//
// Every workload ends with one server down: degraded_rmw crashes it under
// load; the other two crash it after their foreground phase, serve a batch
// of degraded reads, then restart it blank and let the coordinator rebuild
// it. That gives every workload a rebuild time and a degraded-op latency.
#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "perfbench.hpp"
#include "raid/health.hpp"
#include "raid/rebuild.hpp"
#include "raid/rig.hpp"
#include "sim/sync.hpp"
#include "workloads/harness.hpp"

namespace perfbench {
namespace {

using csar::Buffer;
using csar::KiB;
using csar::MiB;
using csar::Rng;
namespace pvfs = csar::pvfs;
namespace raid = csar::raid;
namespace sim = csar::sim;

sim::Task<void> flag_when_done(sim::Task<void> body, bool* done) {
  co_await std::move(body);
  *done = true;
}

/// Every op of an iteration reports here, in completion order.
struct Log {
  /// `seg_ops`: the measured phase's host time is split every that many ops
  /// (see IterResult::host_segments_s).
  Log(IterResult* res, sim::Simulation* s, std::uint64_t seg_ops)
      : r(res), sim(s), segment_ops(seg_ops) {}
  IterResult* r;
  sim::Simulation* sim;
  std::uint64_t segment_ops;
  /// Ops issued from here on are degraded-window ops (outage tails).
  bool tail = false;
  struct Op {
    sim::Time due;
    double ms;
  };
  std::vector<Op> ops;  ///< completed foreground ops (degraded_rmw window)
  bool measuring = false;  ///< set by run_phases around the measured phase
  std::vector<Clock::time_point> marks;  ///< host time every segment_ops ops

  void done(std::uint32_t who, bool is_read, sim::Time due,
            std::uint64_t bytes, bool ok) {
    mark();
    ++r->attempted;
    const double ms = static_cast<double>(sim->now() - due) / 1e6;
    if (ok) {
      ++r->completed;
      if (tail) {
        r->degraded_ms.push_back(ms);
      } else {
        r->user_bytes += bytes;
        (is_read ? r->read_ms : r->write_ms).push_back(ms);
        ops.push_back({due, ms});
      }
    } else {
      ++r->failed;
    }
    fold(r->fingerprint, who);
    fold(r->fingerprint, sim->now());
    fold(r->fingerprint, ok ? bytes : 0);
  }
  void shed(std::uint32_t who) {
    mark();
    ++r->attempted;
    ++r->shed;
    fold(r->fingerprint, who);
    fold(r->fingerprint, sim->now());
    fold(r->fingerprint, ~0ULL);
  }

 private:
  /// The simulation is deterministic, so the k-th mark falls at the same
  /// point of the work in every iteration of a seed.
  void mark() {
    if (measuring && r->attempted % segment_ops == 0 && r->attempted != 0) {
      marks.push_back(Clock::now());
    }
  }
};

// --- failure handling shared by every workload ---------------------------

pvfs::RpcPolicy bounded_rpc() {
  pvfs::RpcPolicy p;
  p.timeout = sim::ms(500);
  p.max_attempts = 2;
  p.backoff = sim::ms(5);
  return p;
}

raid::HealthParams health_params() {
  raid::HealthParams hp;
  hp.interval = sim::ms(50);
  return hp;
}

/// Failure detection and online rebuild for one rig. Declare after the rig.
struct Repair {
  raid::HealthMonitor mon;
  raid::RebuildCoordinator coord;
  explicit Repair(raid::Rig& rig)
      : mon(rig.client(), health_params()), coord(rig, mon) {}

  /// Monitor-driven failover on every client, then start probing and
  /// supervising. A crash under load also needs bounded RPC deadlines, so
  /// requests already in flight to the victim time out and fail over.
  void arm(raid::Rig& rig, bool bounded_rpcs) {
    for (std::uint32_t c = 0; c < rig.clients.size(); ++c) {
      if (bounded_rpcs) rig.client(c).set_rpc_policy(bounded_rpc());
      rig.client_fs(c).enable_failover(&mon);
    }
    mon.start();
    coord.start();
  }
};

/// Wait until `victim` has restarted and the coordinator has rebuilt and
/// admitted it, then stop the monitor and the coordinator so the simulation
/// can drain.
sim::Task<void> await_admit(raid::Rig& rig, Repair& rep, std::uint32_t victim) {
  const sim::Time give_up = rig.sim.now() + sim::sec(600);
  while ((!rep.coord.idle() || rig.server(victim).crashed() ||
          rig.server(victim).fenced()) &&
         rig.sim.now() < give_up) {
    co_await rig.sim.sleep(sim::ms(5));
  }
  rep.mon.stop();
  rep.coord.stop();
}

/// Gate: the victim must be back in service. Records the rebuild time
/// (blank restart -> admit) and the coordinator's work.
void check_admitted(raid::Rig& rig, Repair& rep, std::uint32_t victim,
                    sim::Time t_restart, IterResult& r) {
  const raid::RebuildStats& st = rep.coord.stats();
  if (rig.server(victim).fenced() || rig.server(victim).crashed() ||
      st.first_admit_at == 0) {
    r.errors.push_back("victim server was not rebuilt and admitted");
    return;
  }
  r.rebuild_s = sim::to_seconds(st.first_admit_at - t_restart);
  r.rebuild_bytes = st.bytes_rebuilt;
  r.rebuild_passes = st.passes;
  r.recopy_passes = st.recopy_passes;
}

/// Crash `victim` after the foreground phase, wait until the monitor has
/// noticed, serve `reader`'s degraded reads from every client, then restart
/// the server blank and wait for the online rebuild to admit it.
template <class C>
sim::Task<void> offline_outage(C* c, std::uint32_t victim,
                               sim::Task<void> (*reader)(C*, std::uint32_t)) {
  raid::Rig& rig = *c->rig;
  c->rep->arm(rig, /*bounded_rpcs=*/false);
  rig.server(victim).crash();
  const sim::Time bound = rig.sim.now() + sim::sec(10);
  while (c->rep->mon.is_alive(victim) && rig.sim.now() < bound) {
    co_await rig.sim.sleep(sim::ms(1));
  }
  c->log->tail = true;
  co_await csar::wl::run_clients(
      rig, static_cast<std::uint32_t>(rig.clients.size()),
      [c, reader](std::uint32_t i) { return reader(c, i); });
  c->t_restart = rig.sim.now();
  rig.server(victim).restart(/*wipe_disk=*/true);
  co_await await_admit(rig, *c->rep, victim);
}

/// Bytes stored across all servers (data + redundancy + overflow) for `f`.
sim::Task<void> add_storage(raid::Rig* rig, pvfs::OpenFile f,
                            std::uint64_t* stored) {
  const pvfs::StorageInfo s = co_await rig->client_fs(0).storage(f);
  *stored += s.data_bytes + s.red_bytes + s.overflow_bytes;
}

/// Rig for `nservers` servers and `nclients` clients; files under "r5/" are
/// raid5 and under "rs/" rs(4,2), everything else the default `scheme`.
raid::RigParams rig_params(std::uint32_t nservers, std::uint32_t nclients,
                           raid::Scheme scheme, std::uint64_t seed) {
  raid::RigParams rp;
  rp.nservers = nservers;
  rp.nclients = nclients;
  rp.scheme = scheme;
  rp.seed = seed ^ 0x5EEDC5A2ULL;
  rp.policy.rules = {{"r5/", raid::Scheme::raid5},
                     {"rs/", raid::Scheme::rs(4, 2)}};
  return rp;
}

/// The frame every workload shares: setup, observed measured phase,
/// verification, with host timing around the first two.
template <class C>
void run_phases(C& c, raid::Rig& rig, LayerObserver& obs,
                sim::Task<void> (*setup)(C*), sim::Task<void> (*measured)(C*),
                sim::Task<void> (*verify)(C*), Clock::time_point t_start) {
  IterResult& r = *c.r;
  if (!run_sim(rig, setup(&c))) r.errors.push_back("setup deadlocked");
  r.host_setup_s = seconds_since(t_start);
  if (!r.errors.empty()) return;
  obs.begin(rig);
  const std::uint64_t ev0 = rig.sim.events_executed();
  c.log->measuring = true;
  const auto t1 = Clock::now();
  if (!run_sim(rig, measured(&c))) r.errors.push_back("measured phase deadlocked");
  const auto t2 = Clock::now();
  c.log->measuring = false;
  r.host_measured_s = std::chrono::duration<double>(t2 - t1).count();
  auto from = t1;
  for (const auto to : c.log->marks) {
    r.host_segments_s.push_back(std::chrono::duration<double>(to - from).count());
    from = to;
  }
  r.host_segments_s.push_back(std::chrono::duration<double>(t2 - from).count());
  r.events = rig.sim.events_executed() - ev0;
  r.measured_ops = r.completed;
  obs.end(rig, r.attempted, r.user_bytes, r);
  if (!run_sim(rig, verify(&c))) r.errors.push_back("verification deadlocked");
}

// --- openloop_small -------------------------------------------------------

namespace ol {

constexpr std::uint32_t kServers = 8;
constexpr std::uint32_t kClients = 4;
constexpr std::uint32_t kTenants = 64;
constexpr std::uint32_t kSu = 64 * KiB;
constexpr std::uint64_t kReq = 16 * KiB;
constexpr std::uint64_t kExtent = 1 * MiB;  ///< per tenant file, prefilled
constexpr double kRate = 8000.0;  ///< arrivals per simulated second, all tenants
constexpr sim::Duration kWindow = sim::sec(6);
constexpr std::uint32_t kCap = 8;  ///< per-tenant outstanding requests
constexpr double kReadFrac = 0.3;
constexpr std::uint32_t kTailReads = 128;  ///< degraded reads per client
constexpr std::uint64_t kSegmentOps = 2048;  ///< ~25 host-time segments
constexpr std::uint32_t kVictim = 1;

struct Tenant {
  pvfs::OpenFile f;
  Rng rng;
  std::uint32_t outstanding = 0;
};

struct Ctx {
  raid::Rig* rig;
  Repair* rep;
  Log* log;
  IterResult* r;
  std::vector<Tenant> tenants;
  std::vector<Rng> tail_rng;
  sim::Time t_restart = 0;
};

sim::Task<void> setup(Ctx* c) {
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    auto& fs = c->rig->client_fs(t % kClients);
    auto f = co_await fs.create("ol/" + std::to_string(t), c->rig->layout(kSu));
    if (!f.ok()) {
      c->r->errors.push_back("create failed");
      co_return;
    }
    c->tenants[t].f = *f;
    c->rep->coord.track(*f, kExtent);
    auto w = co_await fs.write(*f, 0, Buffer::phantom(kExtent));
    if (!w.ok()) {
      c->r->errors.push_back("prefill failed");
      co_return;
    }
  }
}

sim::Task<void> request(Ctx* c, std::uint32_t t, bool is_read,
                        std::uint64_t off, sim::WaitGroup* wg) {
  Tenant& tn = c->tenants[t];
  auto& fs = c->rig->client_fs(t % kClients);
  const sim::Time due = c->rig->sim.now();
  bool ok;
  if (is_read) {
    auto r = co_await fs.read(tn.f, off, kReq);
    ok = r.ok() && r->size() == kReq;
  } else {
    auto w = co_await fs.write(tn.f, off, Buffer::phantom(kReq));
    ok = w.ok();
  }
  c->log->done(t, is_read, due, kReq, ok);
  --tn.outstanding;
  wg->done();
}

/// One tenant's Poisson arrival clock. Each arrival is issued the moment it
/// is due, so its latency is measured from its due time.
sim::Task<void> arrivals(Ctx* c, std::uint32_t t, sim::Time t_end,
                         sim::WaitGroup* wg) {
  Tenant& tn = c->tenants[t];
  const double mean_gap_s = kTenants / kRate;
  for (;;) {
    const double gap_ns = tn.rng.exponential(mean_gap_s) * 1e9;
    co_await c->rig->sim.sleep(gap_ns < 1.0 ? 1 : static_cast<sim::Duration>(gap_ns));
    if (c->rig->sim.now() >= t_end) break;
    const bool is_read = tn.rng.chance(kReadFrac);
    const std::uint64_t off = tn.rng.below(kExtent / kReq) * kReq;
    if (tn.outstanding >= kCap) {
      c->log->shed(t);
      continue;
    }
    ++tn.outstanding;
    wg->add();
    c->rig->sim.spawn(request(c, t, is_read, off, wg));
  }
  wg->done();
}

sim::Task<void> degraded_reader(Ctx* c, std::uint32_t client) {
  Rng& rng = c->tail_rng[client];
  auto& fs = c->rig->client_fs(client);
  for (std::uint32_t i = 0; i < kTailReads; ++i) {
    const std::uint32_t t = static_cast<std::uint32_t>(rng.below(kTenants));
    const std::uint64_t off = rng.below(kExtent / kReq) * kReq;
    const sim::Time due = c->rig->sim.now();
    auto r = co_await fs.read(c->tenants[t].f, off, kReq);
    c->log->done(client, true, due, kReq, r.ok() && r->size() == kReq);
  }
}

sim::Task<void> measured(Ctx* c) {
  raid::Rig& rig = *c->rig;
  sim::WaitGroup wg(rig.sim);
  wg.add(kTenants);
  const sim::Time t0 = rig.sim.now();
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    rig.sim.spawn(arrivals(c, t, t0 + kWindow, &wg));
  }
  co_await wg.wait();
  c->r->fg_sim_s = sim::to_seconds(rig.sim.now() - t0);
  std::uint64_t stored = 0;
  for (const Tenant& tn : c->tenants) co_await add_storage(&rig, tn.f, &stored);
  c->r->storage_ratio = static_cast<double>(stored) / (kTenants * kExtent);
  co_await offline_outage(c, kVictim, &degraded_reader);
}

sim::Task<void> verify(Ctx*) { co_return; }

IterResult run(std::uint64_t seed, bool traced) {
  const auto t_start = Clock::now();
  IterResult r;
  LayerObserver obs(traced);
  raid::Rig rig(rig_params(kServers, kClients, raid::Scheme::hybrid, seed));
  Repair rep(rig);
  Log log(&r, &rig.sim, kSegmentOps);
  Ctx c{&rig, &rep, &log, &r, std::vector<Tenant>(kTenants), {}, 0};
  Rng root(seed);
  for (Tenant& tn : c.tenants) tn.rng = root.split();
  for (std::uint32_t i = 0; i < kClients; ++i) c.tail_rng.push_back(root.split());
  run_phases(c, rig, obs, &setup, &measured, &verify, t_start);
  if (r.failed + r.shed != 0) r.errors.push_back("open-loop ops failed or shed");
  check_admitted(rig, rep, kVictim, c.t_restart, r);
  return r;
}

}  // namespace ol

// --- stream_parity --------------------------------------------------------

namespace sp {

constexpr std::uint32_t kServers = 6;
constexpr std::uint32_t kClients = 4;
constexpr std::uint32_t kSu = 16 * KiB;
/// 60 stripe units: whole parity groups for raid5 (5 data units per stripe
/// on 6 servers) and rs(4,2) (4 data units per group) alike.
constexpr std::uint64_t kBase = 60 * kSu;
constexpr std::uint32_t kBasesPerFile = 96;  ///< 90 MiB per file
constexpr std::uint64_t kChunk = 2 * kBase;  ///< 1.875 MiB per op
constexpr std::uint32_t kWritePasses = 8;    ///< overwrite passes after prefill
constexpr std::uint64_t kCacheBytes = 4 * MiB;  ///< per server (default 768)
constexpr std::uint32_t kTailReads = 16;        ///< degraded reads per client
constexpr std::uint64_t kSegmentOps = 32;       ///< ~30 host-time segments
constexpr sim::Duration kJitter = sim::us(200);  ///< max pause between ops
constexpr std::uint32_t kVictim = 1;

struct Chunk {
  std::uint32_t file;
  std::uint64_t off;
  std::uint64_t len;
  std::uint64_t seed;  ///< Buffer::pattern seed of its content
};

struct Ctx {
  raid::Rig* rig;
  Repair* rep;
  Log* log;
  IterResult* r;
  pvfs::OpenFile files[2];
  std::vector<Chunk> prefill;  ///< setup's first pass over both files
  std::vector<Chunk> writes;   ///< measured write order (overwrite passes)
  std::vector<Chunk> reads;    ///< read-back order
  std::size_t next = 0;        ///< shared work-queue cursor
  std::vector<Rng> rng;        ///< one stream per client
  sim::Time t_restart = 0;
};

sim::Task<void> setup(Ctx* c) {
  const char* names[2] = {"r5/stream", "rs/stream"};
  for (int i = 0; i < 2; ++i) {
    auto f = co_await c->rig->client_fs(0).create(names[i], c->rig->layout(kSu));
    if (!f.ok()) {
      c->r->errors.push_back("create failed");
      co_return;
    }
    c->files[i] = *f;
    c->rep->coord.track(*f, kBasesPerFile * kBase);
  }
  // Prefill: the first pass over both files, from one client.
  for (const Chunk& ch : c->prefill) {
    auto w = co_await c->rig->client_fs(0).write(c->files[ch.file], ch.off,
                                                 Buffer::pattern(ch.len, ch.seed));
    if (!w.ok()) {
      c->r->errors.push_back("prefill failed");
      co_return;
    }
  }
}

sim::Task<void> read_chunk(Ctx* c, std::uint32_t client, Chunk ch) {
  const sim::Time due = c->rig->sim.now();
  auto r = co_await c->rig->client_fs(client).read(c->files[ch.file], ch.off,
                                                   ch.len);
  const bool ok = r.ok();
  if (ok && !(*r == Buffer::pattern(ch.len, ch.seed))) ++c->r->mismatched;
  c->log->done(client, true, due, ch.len, ok);
}

/// A client's pause between ops: up to kJitter, uniform. The stream itself
/// is fixed; the seed only nudges when each client issues, so each seed
/// gives its own (slightly different) interleaving of the four streams.
sim::Duration think(Ctx* c, std::uint32_t client) {
  return c->rng[client].below(kJitter);
}

/// Clients take the next chunk of the write order from a shared queue.
sim::Task<void> writer(Ctx* c, std::uint32_t client) {
  for (;;) {
    co_await c->rig->sim.sleep(think(c, client));
    if (c->next >= c->writes.size()) break;
    const Chunk ch = c->writes[c->next++];
    const sim::Time due = c->rig->sim.now();
    auto w = co_await c->rig->client_fs(client).write(
        c->files[ch.file], ch.off, Buffer::pattern(ch.len, ch.seed));
    c->log->done(client, false, due, ch.len, w.ok());
  }
}

sim::Task<void> reader(Ctx* c, std::uint32_t client) {
  for (;;) {
    co_await c->rig->sim.sleep(think(c, client));
    if (c->next >= c->reads.size()) break;
    co_await read_chunk(c, client, c->reads[c->next++]);
  }
}

/// Degraded reads of one base (whole groups of both codes) each: client i
/// reads the first base of chunks i, i + kClients, ... of the read order.
sim::Task<void> degraded_reader(Ctx* c, std::uint32_t client) {
  for (std::uint32_t i = 0; i < kTailReads; ++i) {
    co_await c->rig->sim.sleep(think(c, client));
    const Chunk& ch = c->reads[(i * kClients + client) % c->reads.size()];
    const sim::Time due = c->rig->sim.now();
    auto r = co_await c->rig->client_fs(client).read(c->files[ch.file], ch.off,
                                                     kBase);
    const bool ok = r.ok();
    if (ok && !(*r == Buffer::pattern(ch.len, ch.seed).slice(0, kBase))) {
      ++c->r->mismatched;
    }
    c->log->done(client, true, due, kBase, ok);
  }
}

sim::Task<void> measured(Ctx* c) {
  raid::Rig& rig = *c->rig;
  const sim::Time t0 = rig.sim.now();
  co_await csar::wl::run_clients(rig, kClients,
                                 [c](std::uint32_t i) { return writer(c, i); });
  for (const pvfs::OpenFile& f : c->files) {
    auto fl = co_await rig.client_fs(0).flush(f);
    if (!fl.ok()) c->r->errors.push_back("flush failed");
  }
  c->next = 0;
  co_await csar::wl::run_clients(rig, kClients,
                                 [c](std::uint32_t i) { return reader(c, i); });
  c->r->fg_sim_s = sim::to_seconds(rig.sim.now() - t0);
  std::uint64_t stored = 0;
  for (const pvfs::OpenFile& f : c->files) co_await add_storage(&rig, f, &stored);
  c->r->storage_ratio = static_cast<double>(stored) / (2 * kBasesPerFile * kBase);
  co_await offline_outage(c, kVictim, &degraded_reader);
}

/// Read everything back once more after the rebuild: the rebuilt server
/// must serve exactly the bytes that were written.
sim::Task<void> verify(Ctx* c) {
  for (const Chunk& ch : c->reads) {
    auto r = co_await c->rig->client_fs(0).read(c->files[ch.file], ch.off, ch.len);
    if (!r.ok() || !(*r == Buffer::pattern(ch.len, ch.seed))) {
      c->r->errors.push_back("read-back after rebuild differs");
      co_return;
    }
  }
}

IterResult run(std::uint64_t seed, bool traced) {
  const auto t_start = Clock::now();
  IterResult r;
  LayerObserver obs(traced);
  raid::RigParams rp = rig_params(kServers, kClients, raid::Scheme::hybrid, seed);
  rp.profile.server.cache->capacity_bytes = kCacheBytes;
  raid::Rig rig(rp);
  Repair rep(rig);
  Log log(&r, &rig.sim, kSegmentOps);
  Ctx c{&rig, &rep, &log, &r, {}, {}, {}, {}, 0, {}, 0};
  // Stream both files front to back, alternating between them: one prefill
  // pass, then kWritePasses overwrite passes; read the final content back
  // in the same order.
  Rng rng(seed);
  for (std::uint32_t pass = 0; pass <= kWritePasses; ++pass) {
    std::vector<Chunk>& to = pass == 0 ? c.prefill : c.writes;
    for (std::uint64_t off = 0; off < kBasesPerFile * kBase; off += kChunk) {
      for (std::uint32_t f = 0; f < 2; ++f) to.push_back({f, off, kChunk, rng.next()});
    }
  }
  c.reads.assign(c.writes.end() - static_cast<std::ptrdiff_t>(c.prefill.size()),
                 c.writes.end());
  for (std::uint32_t i = 0; i < kClients; ++i) c.rng.push_back(rng.split());
  run_phases(c, rig, obs, &setup, &measured, &verify, t_start);
  if (r.failed != 0) r.errors.push_back("stream ops failed");
  if (r.mismatched != 0) r.errors.push_back("read-back bytes differ");
  check_admitted(rig, rep, kVictim, c.t_restart, r);
  return r;
}

}  // namespace sp

// --- degraded_rmw ---------------------------------------------------------

namespace dr {

constexpr std::uint32_t kServers = 6;
constexpr std::uint32_t kClients = 4;
constexpr std::uint32_t kSu = 64 * KiB;
constexpr std::uint64_t kFile = 10 * MiB;
/// Ownership blocks of one rs(4,2) group (4 stripe units). Block b belongs
/// to client b mod kClients, so no two clients ever write the same bytes
/// (the reference model stays exact) or the same rs group, while raid5
/// groups (5 units) straddle owners and their parity locks are contended.
constexpr std::uint64_t kBlock = 4 * kSu;
constexpr std::uint64_t kMaxLen = kSu;      ///< sub-stripe overwrites
constexpr std::uint32_t kOpsPerClient = 4000;
constexpr double kReadFrac = 0.2;
constexpr sim::Duration kCrashAt = sim::sec(3);   ///< after the phase starts
constexpr sim::Duration kDownFor = sim::sec(10);  ///< crash -> blank restart
constexpr std::uint32_t kVictim = 1;
constexpr std::uint64_t kSegmentOps = 512;  ///< ~30 host-time segments

constexpr std::size_t kRaid5 = 0;  ///< files[kRaid5] is the raid5 file

struct Model {
  pvfs::OpenFile f;
  std::vector<std::byte> ref;       ///< expected content
  std::vector<std::uint8_t> known;  ///< 0 where a failed write left it unknown
};

struct Ctx {
  raid::Rig* rig;
  Repair* rep;
  Log* log;
  IterResult* r;
  Model files[2];
  std::vector<Rng> rng;  ///< one stream per client
  std::uint64_t prefill_seed = 0;
  sim::Time t_crash = 0;
  sim::Time t_restart = 0;
};

/// True when the known bytes of [off, off+len) in `m` equal `got`.
bool matches(const Model& m, std::uint64_t off, const Buffer& got) {
  const auto bytes = got.bytes();
  if (std::memcmp(bytes.data(), m.ref.data() + off, got.size()) == 0) return true;
  for (std::uint64_t i = 0; i < got.size(); ++i) {
    if (m.known[off + i] && bytes[i] != m.ref[off + i]) return false;
  }
  return true;
}

sim::Task<void> setup(Ctx* c) {
  const char* names[2] = {"r5/rmw", "rs/rmw"};
  auto& fs = c->rig->client_fs(0);
  for (int i = 0; i < 2; ++i) {
    auto f = co_await fs.create(names[i], c->rig->layout(kSu));
    if (!f.ok()) {
      c->r->errors.push_back("create failed");
      co_return;
    }
    Model& m = c->files[i];
    m.f = *f;
    c->rep->coord.track(*f, kFile);
    Buffer data = Buffer::pattern(kFile, c->prefill_seed + i);
    m.ref.assign(data.bytes().begin(), data.bytes().end());
    m.known.assign(kFile, 1);
    auto w = co_await fs.write(*f, 0, std::move(data));
    auto fl = co_await fs.flush(*f);
    if (!w.ok() || !fl.ok()) {
      c->r->errors.push_back("prefill failed");
      co_return;
    }
  }
  c->rig->drop_all_caches();
}

/// One closed-loop client. While the victim is down, writes to the rs(4,2)
/// file go on as degraded writes and the raid5 file is only read; while the
/// restarted victim is fenced for its rebuild, every op is a read. At this
/// revision of the simulator the two excluded cases lose data (a classic
/// raid5 degraded write can leave its unit unrecoverable, and a write
/// racing the rebuild copier can be missed), which would fail the
/// byte-exact gate on some seeds.
sim::Task<void> client_loop(Ctx* c, std::uint32_t client) {
  Rng& rng = c->rng[client];
  auto& fs = c->rig->client_fs(client);
  pvfs::IoServer& victim = c->rig->server(kVictim);
  const std::uint64_t owned = kFile / kBlock / kClients;
  for (std::uint32_t i = 0; i < kOpsPerClient; ++i) {
    const std::size_t fi = rng.below(2);
    Model& m = c->files[fi];
    const std::uint64_t block = (rng.below(owned) * kClients + client) * kBlock;
    const std::uint64_t off = block + rng.below(kBlock - 1);
    const std::uint64_t len =
        1 + rng.below(std::min<std::uint64_t>(kMaxLen, block + kBlock - off));
    const bool is_read = rng.chance(kReadFrac) || victim.fenced() ||
                         (fi == kRaid5 && victim.crashed());
    const sim::Time due = c->rig->sim.now();
    if (is_read) {
      auto r = co_await fs.read(m.f, off, len);
      if (r.ok() && !matches(m, off, *r)) ++c->r->mismatched;
      c->log->done(client, true, due, len, r.ok());
      continue;
    }
    Buffer data = Buffer::pattern(len, rng.next());
    auto w = co_await fs.write(m.f, off, data);
    const auto known = m.known.begin() + static_cast<std::ptrdiff_t>(off);
    if (w.ok()) {
      std::memcpy(m.ref.data() + off, data.bytes().data(), len);
      std::fill_n(known, len, 1);
    } else {
      std::fill_n(known, len, 0);
    }
    c->log->done(client, false, due, len, w.ok());
  }
}

sim::Task<void> crasher(Ctx* c) {
  raid::Rig& rig = *c->rig;
  co_await rig.sim.sleep(kCrashAt);
  c->t_crash = rig.sim.now();
  rig.server(kVictim).crash();
  co_await rig.sim.sleep(kDownFor);
  c->t_restart = rig.sim.now();
  rig.server(kVictim).restart(/*wipe_disk=*/true);
}

sim::Task<void> measured(Ctx* c) {
  raid::Rig& rig = *c->rig;
  c->rep->arm(rig, /*bounded_rpcs=*/true);
  const sim::Time t0 = rig.sim.now();
  rig.sim.spawn(crasher(c));
  co_await csar::wl::run_clients(
      rig, kClients, [c](std::uint32_t i) { return client_loop(c, i); });
  c->r->fg_sim_s = sim::to_seconds(rig.sim.now() - t0);
  co_await await_admit(rig, *c->rep, kVictim);
  std::uint64_t stored = 0;
  for (const Model& m : c->files) co_await add_storage(&rig, m.f, &stored);
  c->r->storage_ratio = static_cast<double>(stored) / (2 * kFile);
}

/// Read both files back in full once the victim is admitted again.
sim::Task<void> verify(Ctx* c) {
  for (const Model& m : c->files) {
    auto r = co_await c->rig->client_fs(0).read(m.f, 0, kFile);
    if (!r.ok() || !matches(m, 0, *r)) {
      c->r->errors.push_back("read-back after rebuild differs");
    }
  }
}

IterResult run(std::uint64_t seed, bool traced) {
  const auto t_start = Clock::now();
  IterResult r;
  LayerObserver obs(traced);
  raid::Rig rig(rig_params(kServers, kClients, raid::Scheme::hybrid, seed));
  Repair rep(rig);
  Log log(&r, &rig.sim, kSegmentOps);
  Ctx c{&rig, &rep, &log, &r, {}, {}, 0, 0, 0};
  Rng root(seed);
  c.prefill_seed = root.next();
  for (std::uint32_t i = 0; i < kClients; ++i) c.rng.push_back(root.split());
  run_phases(c, rig, obs, &setup, &measured, &verify, t_start);
  // Ops issued between the crash and the admit ran degraded.
  const sim::Time t_admit = rep.coord.stats().first_admit_at;
  for (const Log::Op& op : log.ops) {
    if (op.due >= c.t_crash && op.due < t_admit) r.degraded_ms.push_back(op.ms);
  }
  if (r.mismatched != 0) r.errors.push_back("reads returned wrong bytes");
  check_admitted(rig, rep, kVictim, c.t_restart, r);
  return r;
}

}  // namespace dr

}  // namespace

bool run_sim(raid::Rig& rig, sim::Task<void> t) {
  bool done = false;
  rig.sim.spawn(flag_when_done(std::move(t), &done));
  rig.sim.run();
  return done;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"openloop_small", &ol::run},
      {"stream_parity", &sp::run},
      {"degraded_rmw", &dr::run},
  };
  return w;
}

}  // namespace perfbench
