#include "raid/csar_fs.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "raid/health.hpp"
#include "raid/recovery.hpp"
#include "sim/time.hpp"

namespace csar::raid {

namespace {

/// Error codes a single failed/unreachable/bad-sector server produces — the
/// ones degraded-mode rerouting can transparently absorb.
bool failover_errc(Errc e) {
  return e == Errc::server_failed || e == Errc::timeout ||
         e == Errc::conn_dropped || e == Errc::media_error;
}

/// Restores the client's ambient parent span when an fs-level op span closes
/// (declare *after* the op Span so the restore runs first).
struct AmbientGuard {
  pvfs::Client* c = nullptr;
  obs::SpanId prev = 0;
  ~AmbientGuard() {
    if (c != nullptr) c->set_ambient_span(prev);
  }
};

using pvfs::Op;
using pvfs::Request;
using pvfs::StripeLayout;

/// A partial-group segment of a write (the head or tail of the split).
struct PartialSeg {
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t group;
};

/// The head and tail of `ws` as segments of k-unit groups. Head group <
/// tail group, so this is already ascending — the ordered lock
/// acquisition the paper uses to avoid deadlock (§5.1).
std::vector<PartialSeg> partial_segments(const StripeLayout& layout,
                                         const StripeLayout::WriteSplit& ws,
                                         std::uint32_t k) {
  std::vector<PartialSeg> out;
  if (ws.head_end > ws.head_start) {
    out.push_back(
        {ws.head_start, ws.head_end, layout.group_of_off(ws.head_start, k)});
  }
  if (ws.tail_end > ws.tail_start) {
    out.push_back(
        {ws.tail_start, ws.tail_end, layout.group_of_off(ws.tail_start, k)});
  }
  return out;
}

/// Byte columns of the coding units touched by a partial segment. With more
/// than one touched unit the union of per-unit column ranges may have a gap;
/// we read/write the covering range, which is what "reads the corresponding
/// parity region" amounts to.
struct ColRange {
  std::uint64_t lo;
  std::uint64_t hi;
};

ColRange col_range(const StripeLayout& layout, const PartialSeg& seg) {
  const std::uint64_t su = layout.su();
  const std::uint64_t u0 = layout.unit_of(seg.start);
  const std::uint64_t u1 = layout.unit_of(seg.end - 1);
  if (u0 == u1) return {seg.start % su, (seg.end - 1) % su + 1};
  return {0, su};
}

/// Force `b` to match the materialization of the write payload; server reads
/// of sparse regions come back materialized (zeros) even in phantom runs.
Buffer match_materialization(Buffer b, bool materialized) {
  if (b.materialized() == materialized) return b;
  assert(!materialized && "cannot materialize a phantom buffer");
  return Buffer::phantom(b.size());
}

/// Fresh coding writes for the full groups [g0, g1) of `data` (which starts
/// at file offset `off`), appended to `reqs`: one write per run of
/// consecutive slots on a server, servers in ascending order. With k = N-1
/// and m = 1 every server's parity units are consecutive, so each server
/// gets one merged write. Returns the bytes pushed through the encoder.
std::uint64_t full_coding_writes(
    const pvfs::OpenFile& f, CodeSpec spec, std::uint64_t off,
    const Buffer& data, std::uint64_t g0, std::uint64_t g1,
    std::uint32_t red_gen,
    std::vector<std::pair<std::uint32_t, pvfs::Request>>& reqs) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint32_t k = spec.k;
  std::vector<std::vector<std::uint8_t>> rows;
  for (std::uint32_t j = 0; j < spec.m; ++j) {
    rows.push_back(rs_row(spec, j));
  }
  std::map<std::uint32_t, std::map<std::uint64_t, Buffer>> by_server;
  std::vector<Buffer> units(k);
  for (std::uint64_t g = g0; g < g1; ++g) {
    for (std::uint32_t i = 0; i < k; ++i) {
      units[i] = data.slice(layout.group_start(g, k) + i * su - off, su);
    }
    for (std::uint32_t j = 0; j < spec.m; ++j) {
      by_server[layout.coding_server(g, k, j)].emplace(
          layout.coding_slot(g, k, spec.m, j), gf_combine(units, rows[j]));
    }
  }
  for (auto& [server, slots] : by_server) {
    for (auto it = slots.begin(); it != slots.end();) {
      const std::uint64_t first = it->first;
      std::vector<Buffer> run;
      for (; it != slots.end() && it->first == first + run.size(); ++it) {
        run.push_back(std::move(it->second));
      }
      Request r;
      r.op = Op::write_red;
      r.handle = f.handle;
      r.off = first * su;
      r.payload = Buffer::concat(run);
      r.su = layout.stripe_unit;
      r.red_gen = red_gen;
      reqs.emplace_back(server, std::move(r));
    }
  }
  return (g1 - g0) * spec.m * layout.group_width(k);
}

}  // namespace

sim::Task<Result<pvfs::OpenFile>> CsarFs::create(std::string name,
                                                 pvfs::StripeLayout layout) {
  const Scheme s = p_.policy->assign(name);
  if (s.kind == SchemeKind::rs && s.k + s.m > layout.nservers) {
    // rs(k,m) places k+m fragments on distinct servers; a narrower rig
    // would silently double-place fragments and void the fault tolerance.
    co_return Error{Errc::invalid_argument, "rs(k,m) needs k+m servers"};
  }
  layout.placement = placement_for(s);
  auto f = co_await client_->create(std::move(name), layout, scheme_tag(s));
  if (f.ok()) p_.policy->note_created(*f, s);
  co_return f;
}

sim::Task<void> CsarFs::charge_xor(Scheme sch, std::uint64_t bytes) {
  if (sch == Scheme::raid5_npc || bytes == 0) co_return;
  auto& node = client_->cluster().node(client_->node_id());
  const double rate = node.params().xor_bytes_per_sec;
  // Parity computation happens on the client's single-threaded send path —
  // it occupies the same pipeline as the socket writes, which is why the
  // paper measures it as a ~8% hit on streaming writes (RAID5 vs
  // RAID5-npc, Figure 4a).
  co_await node.tx().occupy(sim::transfer_time(bytes, rate));
}

sim::Task<Result<void>> CsarFs::write(const pvfs::OpenFile& f,
                                      std::uint64_t off, Buffer data) {
  if (data.empty()) co_return Result<void>::success();
  {
    // Telemetry for the adaptive engine: the full/partial-stripe byte split
    // the layout computes anyway, attributed to the file's current scheme.
    std::uint64_t full = 0;
    if (f.layout.n() >= 2) {  // a 1-server layout has no stripe groups
      const auto ws = f.layout.split_write(off, data.size());
      full = ws.full_end - ws.full_start;
    }
    p_.policy->note_write(f, p_.policy->scheme_of(f), full,
                          data.size() - full);
  }
  obs::Span span;
  AmbientGuard ambient;
  if (obs::kEnabled && client_->tracer() != nullptr) {
    span = client_->tracer()->task_span(
        client_->obs_pid(), "fs", "fs.write", "fs", 0,
        "\"off\":" + std::to_string(off) +
            ",\"len\":" + std::to_string(data.size()));
    ambient.c = client_;
    ambient.prev = client_->ambient_span();
    client_->set_ambient_span(span.id());
  }
  if (listener_ == nullptr) co_return co_await write_guarded(f, off, std::move(data));
  const std::uint64_t len = data.size();
  listener_->on_write_begin(f);
  auto wr = co_await write_guarded(f, off, std::move(data));
  // Fires on failure too: a torn write may have landed partially, so the
  // migrator must treat the region as dirty.
  listener_->on_write_end(f, off, len, wr.ok());
  co_return wr;
}

sim::Task<Result<void>> CsarFs::write_guarded(const pvfs::OpenFile& f,
                                              std::uint64_t off, Buffer data) {
  if (mon_ != nullptr) {
    std::vector<std::uint32_t> down = mon_->failed_set();
    if (!down.empty()) {
      ++failover_stats_.degraded_writes;
      co_return co_await degraded_write_observed(f, off, std::move(data),
                                                 std::move(down));
    }
  }
  auto wr = co_await dispatch_write(f, off, data);
  if (wr.ok() || mon_ == nullptr || !failover_errc(wr.error().code)) {
    co_return wr;
  }
  // The monitor had not caught up when we issued the write; resolve the
  // culprit from the error (or by probing) and redo the whole write through
  // the degraded path — server ops are idempotent, so the parts that did
  // land are simply rewritten.
  ++failover_stats_.reactive;
  std::optional<std::uint32_t> failed;
  if (wr.error().server >= 0) {
    // The hint can name a server that is merely slow (one late or dropped
    // message). A reconstruct-write against a *live* server would fork the
    // file: the new bytes exist only in the parity, while the server keeps
    // answering plain reads from its now-stale data file — and a later
    // scrub would "repair" the parity from that stale data. Only a server
    // that also fails a dedicated probe gets the degraded path; a transient
    // fault is reported back to the caller, whose RPC retry budget is the
    // knob for riding those out.
    failed = static_cast<std::uint32_t>(wr.error().server);
    if (!(co_await confirmed_down(f, *failed))) co_return wr;
  } else {
    failed = co_await find_failed_server(f);
  }
  if (!failed.has_value()) co_return wr;
  ++failover_stats_.degraded_writes;
  std::vector<std::uint32_t> down;
  down.push_back(*failed);
  co_return co_await degraded_write_observed(f, off, std::move(data),
                                             std::move(down));
}

sim::Task<Result<void>> CsarFs::degraded_write_observed(
    const pvfs::OpenFile& f, std::uint64_t off, Buffer data,
    std::vector<std::uint32_t> failed) {
  const std::uint64_t len = data.size();
  // Hooks fire once per victim: each down server's rebuild pass must treat
  // the written region as dirtied.
  if (observer_ != nullptr) {
    for (const std::uint32_t s : failed) observer_->on_degraded_write_begin(s);
  }
  Recovery rec(*client_, p_.policy);
  auto wr = co_await rec.degraded_write(f, off, std::move(data), failed);
  // The end hook fires on failure too: a torn degraded write may still have
  // updated some redundancy, so the region must count as dirtied.
  if (observer_ != nullptr) {
    for (const std::uint32_t s : failed) {
      observer_->on_degraded_write_end(f, off, len, s);
    }
  }
  co_return wr;
}

sim::Task<Result<Buffer>> CsarFs::read(const pvfs::OpenFile& f,
                                       std::uint64_t off, std::uint64_t len) {
  obs::Span span;
  AmbientGuard ambient;
  if (obs::kEnabled && client_->tracer() != nullptr) {
    span = client_->tracer()->task_span(
        client_->obs_pid(), "fs", "fs.read", "fs", 0,
        "\"off\":" + std::to_string(off) + ",\"len\":" + std::to_string(len));
    ambient.c = client_;
    ambient.prev = client_->ambient_span();
    client_->set_ambient_span(span.id());
  }
  if (mon_ == nullptr) co_return co_await client_->read(f, off, len);
  std::vector<std::uint32_t> down = mon_->failed_set();
  if (!down.empty()) {
    ++failover_stats_.degraded_reads;
    Recovery rec(*client_, p_.policy);
    co_return co_await rec.degraded_read(f, off, len, std::move(down));
  }
  auto rd = co_await client_->read(f, off, len);
  if (rd.ok() || !failover_errc(rd.error().code)) co_return rd;
  ++failover_stats_.reactive;
  co_return co_await reroute_read(f, off, len, rd.error());
}

sim::Task<Result<void>> CsarFs::dispatch_write(const pvfs::OpenFile& f,
                                               std::uint64_t off,
                                               const Buffer& data) {
  // Resolve the file's scheme once, here: a migration flip lands between
  // whole writes (the flip requires zero writes in flight), so a single
  // resolution per dispatch can never straddle two schemes.
  const Scheme sch = p_.policy->scheme_of(f);
  switch (sch.kind) {
    case SchemeKind::raid0:
      co_return co_await client_->write_striped(f, off, data);
    case SchemeKind::raid1:
      co_return co_await write_raid1(f, off, data);
    case SchemeKind::raid4:
    case SchemeKind::raid5:
    case SchemeKind::raid5_nolock:
    case SchemeKind::raid5_npc:
    case SchemeKind::rs:
      co_return co_await write_coded(f, off, data, sch);
    case SchemeKind::hybrid:
      co_return co_await write_hybrid(f, off, data);
  }
  co_return Error{Errc::invalid_argument, "unknown scheme"};
}

sim::Task<Result<void>> CsarFs::write_raid1(const pvfs::OpenFile& f,
                                            std::uint64_t off,
                                            const Buffer& data) {
  // Block mirroring (§4): every data block is written twice — in place on
  // its own server, and at the same local offset into the *next* server's
  // redundancy file, so a single failed server can be served by its
  // successor. The client pushes 2x the bytes through its own link.
  const StripeLayout& layout = f.layout;
  const std::uint32_t gen = p_.policy->red_gen_of(f);
  std::vector<std::pair<std::uint32_t, Request>> reqs;
  for (const auto& e : layout.decompose_merged(off, data.size())) {
    Buffer payload = pvfs::Client::gather_for_server(layout, off, data,
                                                     e.server);
    // The overflow invalidations cost nothing on the wire and are no-ops
    // for files that never had overflow entries; for an ex-Hybrid file they
    // keep the (still live) overflow overlay from shadowing these in-place
    // bytes. The mirror write already goes to the successor — exactly where
    // the mirror overflow entries live — so no extra message is needed.
    Request w;
    w.op = Op::write_data;
    w.handle = f.handle;
    w.off = e.local_off;
    w.payload = payload.slice(0, payload.size());
    w.su = layout.stripe_unit;
    w.inval_own = Interval{e.local_off, e.local_off + e.len};
    reqs.emplace_back(e.server, std::move(w));

    Request m;
    m.op = Op::write_red;
    m.handle = f.handle;
    m.off = e.local_off;
    m.payload = std::move(payload);
    m.su = layout.stripe_unit;
    m.red_gen = gen;
    m.inval_mirror = Interval{e.local_off, e.local_off + e.len};
    reqs.emplace_back((e.server + 1) % layout.n(), std::move(m));
  }
  auto resps = co_await client_->rpc_all(std::move(reqs));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "raid1 write", resp.server};
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> CsarFs::write_coded(const pvfs::OpenFile& f,
                                            std::uint64_t off,
                                            const Buffer& data, Scheme sch) {
  // One path for every k+m code: RAID4 and the RAID5 variants are
  // rs(N-1,1). Full groups compute their m coding units fresh; each partial
  // group runs the batched RMW: lock and read its coding columns, read the
  // old data, and fold coding_j ^= coeff(j,i) * (old ^ new) for a write to
  // data unit i (plain XOR for the all-ones row 0, i.e. for parity).
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint64_t len = data.size();
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t m = spec.m;
  if (spec.fragments() > layout.n()) {
    co_return Error{Errc::invalid_argument, "coded placement needs k+m <= N"};
  }
  const std::uint64_t W = layout.group_width(k);
  const auto ws = layout.split_write_w(off, len, W);
  const auto segs = partial_segments(layout, ws, k);
  const bool locking = sch != Scheme::raid5_nolock;
  const std::uint32_t gen = p_.policy->red_gen_of(f);
  std::uint64_t xor_bytes = 0;

  // 1. For each partially-written group the client needs the old coding
  //    columns (taking their locks) and the old contents of the regions
  //    being overwritten. The old-data reads are lock-free and proceed in
  //    parallel with the coding reads — deltas of disjoint regions commute,
  //    so only each coding read->write pair must be atomic (§5.1).
  struct SegCtx {
    PartialSeg seg;
    ColRange cols;
    std::vector<Buffer> coding;  // old coding columns, updated in place
  };
  std::vector<SegCtx> ctx;
  ctx.reserve(segs.size());
  for (const auto& seg : segs) {
    ctx.push_back({seg, col_range(layout, seg), std::vector<Buffer>(m)});
  }

  std::vector<std::pair<std::uint32_t, Request>> reads;
  std::vector<std::pair<std::size_t, StripeLayout::Extent>> read_meta;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const auto& seg = ctx[i].seg;
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      Request r;
      r.op = Op::read_data_raw;
      r.handle = f.handle;
      r.off = e.local_off;
      r.len = e.len;
      reads.emplace_back(e.server, std::move(r));
      read_meta.emplace_back(i, e);
    }
  }

  // Shared state between this frame and the old-data reader tasks. The
  // readers stream the delta half of the update: each computes old ^ new
  // per response *as it arrives* (overlapping the XOR with the lock phase
  // below) instead of after a global join.
  struct OldReadShared {
    CsarFs* self;
    const std::vector<std::pair<std::size_t, StripeLayout::Extent>>* meta;
    const Buffer* data;
    std::uint64_t off;
    bool materialized;
    Scheme sch;
    std::vector<Buffer> deltas;  // indexed like read_meta
    bool failed = false;
    Errc errc = Errc::ok;
    int err_server = -1;
  };
  OldReadShared shared{this,          &read_meta, &data, off,
                       data.materialized(), sch,   {},    false, Errc::ok,
                       -1};
  shared.deltas.resize(read_meta.size());

  // One reader per extent: bulk old-data responses pipeline best as
  // independent messages (the server overlaps their disk reads, and each
  // response streams back as soon as it is done).
  auto read_one = [](OldReadShared* sh, std::uint32_t srv, Request req,
                     std::size_t x) -> sim::Task<void> {
    auto resp = co_await sh->self->client_->rpc(srv, std::move(req));
    if (!resp.ok) {
      if (!sh->failed) {
        sh->failed = true;
        sh->errc = resp.err;
        sh->err_server = resp.server;
      }
      co_return;
    }
    const auto& e = (*sh->meta)[x].second;
    Buffer delta =
        match_materialization(std::move(resp.data), sh->materialized);
    delta.xor_with(sh->data->slice(e.global_off - sh->off, e.len));
    sh->deltas[x] = std::move(delta);
    co_await sh->self->charge_xor(sh->sch, e.len);
  };
  std::vector<sim::ProcessHandle> readers;
  readers.reserve(reads.size());
  for (std::size_t x = 0; x < reads.size(); ++x) {
    readers.push_back(client_->cluster().sim().spawn(
        read_one(&shared, reads[x].first, std::move(reads[x].second), x)));
  }

  // 2. Lock phase: one batched lock+read RPC per coding server. The server
  //    acquires every lock of the batch atomically (ascending key order)
  //    before answering; servers are visited sequentially in first-seen
  //    (ascending group, ascending j) order, which preserves the paper's
  //    ordered-acquisition deadlock-avoidance rule across writers (§5.1).
  struct LockBucket {
    std::uint32_t server;
    std::vector<std::pair<std::size_t, std::uint32_t>> cs;  // (ctx, j)
  };
  // One token identifies this whole RMW to the lock protocol: a retried
  // lock read re-enters its own grant, and the paired (or abandon-time)
  // release cannot be confused with a later RMW's lock.
  const std::uint64_t rmw_token =
      locking && !ctx.empty() ? client_->next_rmw_token() : 0;
  std::vector<LockBucket> lbuckets;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const std::uint32_t srv = layout.coding_server(ctx[i].seg.group, k, j);
      LockBucket* b = nullptr;
      for (auto& cand : lbuckets) {
        if (cand.server == srv) {
          b = &cand;
          break;
        }
      }
      if (b == nullptr) {
        lbuckets.push_back({srv, {}});
        b = &lbuckets.back();
      }
      b->cs.emplace_back(i, j);
    }
  }
  auto coding_col = [&](const SegCtx& c, std::uint32_t j) {
    return layout.coding_off(c.seg.group, k, m, j) + c.cols.lo;
  };

  bool coding_error = false;
  Errc coding_errc = Errc::ok;
  int coding_err_server = -1;
  // Locks whose acquisition request went out; on abort each gets an
  // explicit owner-checked release (safe even when the grant is unknown —
  // a timed-out envelope may or may not have taken them server-side).
  std::vector<char> lock_sent(ctx.size() * m, 0);
  for (auto& b : lbuckets) {
    std::vector<Request> subs;
    subs.reserve(b.cs.size());
    for (const auto& [i, j] : b.cs) {
      Request r;
      r.op = Op::read_red;
      r.handle = f.handle;
      r.off = coding_col(ctx[i], j);
      r.len = ctx[i].cols.hi - ctx[i].cols.lo;
      r.lock = locking;
      r.rmw_token = rmw_token;
      r.su = layout.stripe_unit;
      r.red_gen = gen;
      subs.push_back(std::move(r));
      if (locking) lock_sent[i * m + j] = 1;
    }
    auto resps = co_await client_->rpc_batch(b.server, std::move(subs));
    for (std::size_t x = 0; x < resps.size(); ++x) {
      if (!resps[x].ok) {
        if (!coding_error) {
          coding_error = true;
          coding_errc = resps[x].err;
          coding_err_server = resps[x].server;
        }
        continue;
      }
      ctx[b.cs[x].first].coding[b.cs[x].second] = match_materialization(
          std::move(resps[x].data), data.materialized());
    }
    if (coding_error) break;
  }
  for (auto& h : readers) co_await h.join();

  if (coding_error || shared.failed) {
    // Abandoning the RMW with lock requests in flight: explicitly release
    // every lock we may hold so the group is not wedged until the lease
    // reaper fires. unlock_red is owner-checked and writes nothing, so it
    // is safe to send for locks that failed their read (media error — the
    // lock was still taken) and for grants lost to a timeout alike.
    if (locking) {
      std::vector<std::pair<std::uint32_t, Request>> rel;
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        for (std::uint32_t j = 0; j < m; ++j) {
          if (lock_sent[i * m + j] == 0) continue;
          Request u;
          u.op = Op::unlock_red;
          u.handle = f.handle;
          u.off = coding_col(ctx[i], j);
          u.rmw_token = rmw_token;
          u.su = layout.stripe_unit;
          u.red_gen = gen;
          rel.emplace_back(layout.coding_server(ctx[i].seg.group, k, j),
                           std::move(u));
        }
      }
      (void)co_await client_->rpc_all(std::move(rel));
    }
    if (coding_error) {
      co_return Error{coding_errc, "coding read", coding_err_server};
    }
    co_return Error{shared.errc, "old data read", shared.err_server};
  }

  // 3. Fold the streamed deltas into the old coding columns at each
  //    extent's column offset: coding_j ^= coeff(j, i) * delta. The
  //    old ^ new half was computed (and its XOR charged) per response.
  for (std::size_t x = 0; x < read_meta.size(); ++x) {
    const std::size_t i = read_meta[x].first;
    const auto& e = read_meta[x].second;
    const std::uint32_t frag =
        static_cast<std::uint32_t>(layout.unit_of(e.global_off) % k);
    const std::uint64_t colofs = e.global_off % su - ctx[i].cols.lo;
    for (std::uint32_t j = 0; j < m; ++j) {
      Buffer& coding = ctx[i].coding[j];
      const std::uint8_t c = rs_coeff(spec, j, frag);
      if (c == 1) {
        coding.xor_at(colofs, shared.deltas[x]);
      } else if (coding.materialized() && shared.deltas[x].materialized()) {
        gf_muladd_region(coding.mutable_bytes().subspan(colofs, e.len),
                         shared.deltas[x], c);
      }
      xor_bytes += e.len;
    }
  }

  // 4. Issue every write in parallel: the updated coding columns of
  //    partial groups *first* (their transfer releases the locks — sending
  //    them ahead of the bulk data keeps the critical section short), then
  //    the full data range (in place), then fresh coding for fully covered
  //    groups.
  std::vector<std::pair<std::uint32_t, Request>> writes;
  for (auto& c : ctx) {
    for (std::uint32_t j = 0; j < m; ++j) {
      Request w;
      w.op = Op::write_red;
      w.handle = f.handle;
      w.off = coding_col(c, j);
      w.payload = std::move(c.coding[j]);
      w.unlock = locking;
      w.rmw_token = rmw_token;
      w.su = layout.stripe_unit;
      w.red_gen = gen;
      writes.emplace_back(layout.coding_server(c.seg.group, k, j),
                          std::move(w));
    }
  }
  const bool inval = p_.policy->overflow_possible(f);
  for (const auto& e : layout.decompose_merged(off, len)) {
    Request w;
    w.op = Op::write_data;
    w.handle = f.handle;
    w.off = e.local_off;
    w.payload = pvfs::Client::gather_for_server(layout, off, data, e.server);
    w.su = layout.stripe_unit;
    if (inval) {
      // An ex-Hybrid file keeps its overflow overlay live; in-place writes
      // must kill overlapping entries or reads would keep returning the
      // superseded overflow bytes. The owner entry dies on the data write
      // itself; the mirror entry lives on the successor, which gets a
      // zero-payload invalidation-only write. Files that were never Hybrid
      // skip all of this.
      w.inval_own = Interval{e.local_off, e.local_off + e.len};
      Request inv;
      inv.op = Op::write_data;
      inv.handle = f.handle;
      inv.off = e.local_off;
      inv.su = layout.stripe_unit;
      inv.inval_mirror = Interval{e.local_off, e.local_off + e.len};
      writes.emplace_back((e.server + 1) % layout.n(), std::move(inv));
    }
    writes.emplace_back(e.server, std::move(w));
  }
  if (ws.full_end > ws.full_start) {
    xor_bytes += full_coding_writes(f, spec, off, data, ws.full_start / W,
                                    ws.full_end / W, gen, writes);
  }
  if (!ctx.empty()) p_.policy->note_rmw(sch, ctx.size());
  p_.policy->note_ec_encode(sch, xor_bytes);
  co_await charge_xor(sch, xor_bytes);
  auto resps = co_await client_->rpc_all(std::move(writes));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "coded write", resp.server};
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> CsarFs::write_hybrid(const pvfs::OpenFile& f,
                                             std::uint64_t off,
                                             const Buffer& data) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t len = data.size();
  const auto ws = layout.split_write(off, len);
  const auto segs = partial_segments(layout, ws, n - 1);
  const std::uint32_t gen = p_.policy->red_gen_of(f);
  std::uint64_t xor_bytes = 0;

  std::vector<std::pair<std::uint32_t, Request>> writes;

  // Full-stripe run: the coded fast path, rs(N-1,1) — in-place data +
  // fresh parity, plus invalidation of any overflow entries the new
  // stripes supersede.
  if (ws.full_end > ws.full_start) {
    const std::uint64_t span = ws.full_end - ws.full_start;
    const auto merged = layout.decompose_merged(ws.full_start, span);
    // Per-server local data extents, for overflow invalidation: server s
    // invalidates its own entries over its extent, and the mirror entries it
    // holds for server s-1 over *that* server's extent.
    std::vector<Interval> extent(n, Interval{0, 0});
    for (const auto& e : merged) {
      extent[e.server] = {e.local_off, e.local_off + e.len};
    }
    for (const auto& e : merged) {
      Request w;
      w.op = Op::write_data;
      w.handle = f.handle;
      w.off = e.local_off;
      w.payload = pvfs::Client::gather_for_server(layout, ws.full_start,
                                                  data.slice(ws.full_start - off,
                                                             span),
                                                  e.server);
      w.su = layout.stripe_unit;
      w.inval_own = extent[e.server];
      w.inval_mirror = extent[(e.server + n - 1) % n];
      writes.emplace_back(e.server, std::move(w));
    }
    const std::size_t parity_first = writes.size();
    xor_bytes += full_coding_writes(
        f, Scheme::hybrid.code(layout), off, data,
        ws.full_start / layout.stripe_width(),
        ws.full_end / layout.stripe_width(), gen, writes);
    // A server that holds no data unit in the span (possible when the span
    // is shorter than N groups) still receives its parity write; attach the
    // invalidations there so its stale mirror entries die too.
    // The invalidation is idempotent with the one on the data write, so it
    // is attached unconditionally.
    for (std::size_t i = parity_first; i < writes.size(); ++i) {
      const std::uint32_t s = writes[i].first;
      writes[i].second.inval_own = extent[s];
      writes[i].second.inval_mirror = extent[(s + n - 1) % n];
    }
  }

  // Partial-stripe segments: the updated blocks are written twice into
  // overflow regions (owner + successor), never touching the data file, so
  // the group's stale parity still reconstructs the *old* stripe (§4).
  std::uint64_t overflow_bytes = 0;
  for (const auto& seg : segs) {
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      Buffer piece = data.slice(e.global_off - off, e.len);
      overflow_bytes += 2 * e.len;  // both copies
      Request primary;
      primary.op = Op::write_overflow;
      primary.handle = f.handle;
      primary.off = e.local_off;
      primary.payload = piece.slice(0, piece.size());
      primary.owner = e.server;
      primary.su = layout.stripe_unit;
      writes.emplace_back(e.server, std::move(primary));

      Request mirror;
      mirror.op = Op::write_overflow;
      mirror.handle = f.handle;
      mirror.off = e.local_off;
      mirror.payload = std::move(piece);
      mirror.owner = e.server;
      mirror.mirror = true;
      mirror.su = layout.stripe_unit;
      writes.emplace_back((e.server + 1) % n, std::move(mirror));
    }
  }

  if (overflow_bytes > 0) {
    p_.policy->note_overflow_bytes(Scheme::hybrid, overflow_bytes);
  }
  co_await charge_xor(Scheme::hybrid, xor_bytes);
  auto resps = co_await client_->rpc_all(std::move(writes));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "hybrid write", resp.server};
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> CsarFs::compact(const pvfs::OpenFile& f,
                                        std::uint64_t file_size) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t w = layout.stripe_width();
  // Rewrite in bursts of 8 stripes; the final burst is zero-padded to a
  // stripe boundary so no new partial-stripe overflow is created (bytes
  // past file_size were zeros either way).
  const std::uint64_t burst = 8 * w;
  const std::uint64_t padded = align_up(file_size, w);
  for (std::uint64_t off = 0; off < padded; off += burst) {
    const std::uint64_t len = std::min(burst, padded - off);
    auto rd = co_await client_->read(f, off, len);
    if (!rd.ok()) co_return rd.error();
    auto wr = co_await write(f, off, std::move(rd.value()));
    if (!wr.ok()) co_return wr;
  }
  // Garbage-collect the (now fully invalidated) overflow regions.
  std::vector<std::pair<std::uint32_t, pvfs::Request>> reqs;
  for (std::uint32_t s = 0; s < layout.n(); ++s) {
    pvfs::Request r;
    r.op = pvfs::Op::compact_overflow;
    r.handle = f.handle;
    r.su = layout.stripe_unit;
    reqs.emplace_back(s, std::move(r));
  }
  auto resps = co_await client_->rpc_all(std::move(reqs));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "compact", resp.server};
  }
  co_return Result<void>::success();
}

sim::Task<Result<Buffer>> CsarFs::read_balanced(const pvfs::OpenFile& f,
                                                std::uint64_t off,
                                                std::uint64_t len) {
  if (p_.policy->scheme_of(f) != Scheme::raid1) {
    co_return co_await client_->read(f, off, len);
  }
  if (p_.policy->overflow_possible(f)) {
    // An ex-Hybrid file's mirror (new red generation) covers the raw data
    // files; the overflow overlay holds the newest partial-write bytes and
    // only the plain read path applies it. Balanced reads would need the
    // overlay logic duplicated per unit — not worth it for this corner.
    co_return co_await read(f, off, len);
  }
  if (len == 0) co_return Buffer::real(0);
  const StripeLayout& layout = f.layout;
  const std::uint32_t gen = p_.policy->red_gen_of(f);
  // Per-unit pieces, alternating primary/mirror by global unit index.
  const auto pieces = layout.decompose(off, len);
  std::vector<std::pair<std::uint32_t, Request>> reads;
  reads.reserve(pieces.size());
  for (const auto& e : pieces) {
    const std::uint64_t u = layout.unit_of(e.global_off);
    Request r;
    r.handle = f.handle;
    r.off = e.local_off;
    r.len = e.len;
    r.su = layout.stripe_unit;
    if (u % 2 == 0) {
      r.op = Op::read_data;
      reads.emplace_back(e.server, std::move(r));
    } else {
      // The mirror lives at the same local offset in the successor's
      // redundancy file.
      r.op = Op::read_red;
      r.red_gen = gen;
      reads.emplace_back((e.server + 1) % layout.n(), std::move(r));
    }
  }
  auto resps = co_await client_->rpc_all(std::move(reads));
  bool phantom = false;
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "balanced read", resp.server};
    if (!resp.data.materialized()) phantom = true;
  }
  if (phantom) co_return Buffer::phantom(len);
  std::vector<Buffer> replies;
  replies.reserve(resps.size());
  for (auto& resp : resps) replies.push_back(std::move(resp.data));
  Buffer out = Buffer::concat(replies);
  assert(out.size() == len);
  co_return out;
}

sim::Task<std::optional<std::uint32_t>> CsarFs::find_failed_server(
    const pvfs::OpenFile& f) {
  for (std::uint32_t s = 0; s < f.layout.n(); ++s) {
    if (co_await confirmed_down(f, s)) co_return s;
  }
  co_return std::nullopt;
}

sim::Task<bool> CsarFs::confirmed_down(const pvfs::OpenFile& f,
                                       std::uint32_t s) {
  // Probes must not inherit an infinite client policy: a crashed server
  // answers nothing, and the whole point here is to notice that quickly.
  pvfs::RpcPolicy probe = client_->rpc_policy();
  if (probe.timeout == 0) probe.timeout = sim::ms(250);
  probe.max_attempts = std::max<std::uint32_t>(probe.max_attempts, 2);
  Request r;
  r.op = Op::storage_query;
  r.handle = f.handle;
  auto resp = co_await client_->rpc(s, std::move(r), probe);
  co_return !resp.ok && (resp.err == Errc::server_failed ||
                         resp.err == Errc::timeout ||
                         resp.err == Errc::conn_dropped);
}

sim::Task<Result<Buffer>> CsarFs::reroute_read(const pvfs::OpenFile& f,
                                               std::uint64_t off,
                                               std::uint64_t len, Error err) {
  std::optional<std::uint32_t> failed;
  if (err.server >= 0) {
    failed = static_cast<std::uint32_t>(err.server);
  } else {
    failed = co_await find_failed_server(f);
  }
  if (!failed.has_value()) co_return err;  // transient: report the error
  ++failover_stats_.degraded_reads;
  Recovery rec(*client_, p_.policy);
  co_return co_await rec.degraded_read(f, off, len, *failed);
}

sim::Task<Result<Buffer>> CsarFs::read_resilient(const pvfs::OpenFile& f,
                                                 std::uint64_t off,
                                                 std::uint64_t len) {
  auto rd = co_await client_->read(f, off, len);
  if (rd.ok() || !failover_errc(rd.error().code)) co_return rd;
  co_return co_await reroute_read(f, off, len, rd.error());
}

}  // namespace csar::raid
