#include "raid/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "common/small_vec.hpp"
#include "common/units.hpp"
#include "sim/sync.hpp"

namespace csar::raid {

namespace {
using pvfs::Op;
using pvfs::Request;
using pvfs::StripeLayout;

bool contains(const std::vector<std::uint32_t>& v, std::uint32_t s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Concurrent failures a scheme's reads and writes can route around: one
/// for RAID0 (whose lost units fail the request), m for a k+m code.
std::uint32_t failure_budget(Scheme sch, const StripeLayout& layout) {
  return std::max<std::uint32_t>(1, sch.code(layout).m);
}

/// Server holding fragment `frag` of group g (data fragments [0,k), coding
/// fragments [k, k+m)).
std::uint32_t fragment_server(const StripeLayout& lay, CodeSpec spec,
                              std::uint64_t g, std::uint32_t frag) {
  return frag < spec.k ? lay.data_server(g, spec.k, frag)
                       : lay.coding_server(g, spec.k, frag - spec.k);
}

/// Send `reqs` and collect the responses in order. One request is one
/// plain call; only several fan out through rpc_all, which spawns a task
/// per message.
sim::Task<std::vector<pvfs::Response>> send_all(
    pvfs::Client& client,
    std::vector<std::pair<std::uint32_t, Request>> reqs) {
  if (reqs.size() != 1) co_return co_await client.rpc_all(std::move(reqs));
  std::vector<pvfs::Response> out;
  out.push_back(
      co_await client.rpc(reqs.front().first, std::move(reqs.front().second)));
  co_return out;
}

/// Columns of group g that lie inside the file: a whole unit, except in a
/// last group that ends within its first unit. Columns past the file end
/// are zeros in every fragment, so rebuilds, migrations and scrubs move
/// only these.
std::uint64_t group_cols(const StripeLayout& lay, std::uint32_t k,
                         std::uint64_t g, std::uint64_t file_size) {
  return std::min(lay.su(), file_size - lay.group_start(g, k));
}

/// The first unit of the file that server `s` holds (its local unit 0).
std::uint64_t first_unit_on(const StripeLayout& lay, std::uint32_t s) {
  const std::uint32_t dn = lay.data_servers();
  return (s + dn - lay.base % dn) % dn;
}

/// The fragments a decode combines: the first k that `usable` accepts, in
/// index order, so data fragments before coding. Fewer when fewer are
/// usable. This one rule picks the survivors every lost fragment is
/// restored from.
template <typename Usable>
SmallVec<std::uint32_t, 16> decode_sources(CodeSpec spec, Usable usable) {
  SmallVec<std::uint32_t, 16> out;
  for (std::uint32_t frag = 0; frag < spec.fragments() && out.size() < spec.k;
       ++frag) {
    if (usable(frag)) out.push_back(frag);
  }
  return out;
}

/// Restore one side of server `failed`'s overflow tables, window by window:
/// its own entries from the mirrors on its successor (`mirror` false), or
/// the mirror entries it held for its predecessor from that server's own
/// table (`mirror` true). Restores arrive in ascending local-offset order
/// across windows, as the rebuilt table's allocation order must match piece
/// order (in-order batch execution keeps it within a window). `delta`, when
/// set, keeps only the entries over it; `throttle` is charged both the read
/// and the restore of what is kept. Each window read holds `reads`: the
/// restores of one stream overlap, but their window reads go one at a time,
/// so no survivor's iod queues more than one window (see kOverflowWindow).
sim::Task<Result<void>> copy_overflow(pvfs::Client& client,
                                      const pvfs::OpenFile& f,
                                      std::uint32_t failed, bool mirror,
                                      std::uint64_t file_size,
                                      const IntervalSet* delta,
                                      sim::TokenBucket* throttle,
                                      sim::Mutex& reads) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint32_t owner = mirror ? (failed + n - 1) % n : failed;
  const std::uint32_t source = mirror ? owner : (failed + 1) % n;
  for (std::uint64_t w0 = 0; w0 < file_size; w0 += kOverflowWindow) {
    co_await reads.lock();
    auto got = co_await client.rpc(
        source, overflow_window_read(f, !mirror, owner, w0, file_size));
    reads.unlock();
    if (!got.ok) co_return Error{got.err, "rebuild overflow read", got.server};
    std::vector<Request> restores;
    restores.reserve(got.pieces.size());
    std::uint64_t bytes = 0;
    for (auto& piece : got.pieces) {
      if (delta != nullptr) {
        const std::uint64_t g0 = layout.global_off(owner, piece.local_off);
        if (!delta->intersects(g0, g0 + piece.data.size())) continue;
      }
      bytes += piece.data.size();
      restores.push_back(overflow_write(f, mirror, owner, piece.local_off,
                                        std::move(piece.data)));
    }
    if (restores.empty()) continue;
    if (throttle) co_await throttle->take(2 * bytes);
    auto wrs = co_await client.rpc_batch(failed, std::move(restores));
    for (const auto& wr : wrs) {
      if (!wr.ok) co_return Error{wr.err, "rebuild overflow write", wr.server};
    }
  }
  co_return Result<void>::success();
}
}  // namespace

/// A repair stream: at most kWindow jobs and overflow restores in flight,
/// at most one overflow window read among them, the first error kept.
struct Recovery::Pipeline {
  static constexpr std::uint32_t kWindow = 16;
  Pipeline(sim::Simulation& sim, std::vector<std::uint32_t> down,
           bool migration, sim::TokenBucket* throttle)
      : down(std::move(down)),
        migration(migration),
        throttle(throttle),
        window(sim, kWindow),
        wg(sim),
        window_reads(sim) {}
  const std::vector<std::uint32_t> down;
  const bool migration;
  sim::TokenBucket* const throttle;
  sim::Semaphore window;
  sim::WaitGroup wg;
  sim::Mutex window_reads;  ///< held by each overflow window read
  bool error = false;
  Error first_error;
  void fail(Error e) {
    if (!error) first_error = std::move(e);
    error = true;
  }
  /// Charge the throttle `bytes` (a restore charges its own, per window),
  /// then take a slot for one job or restore. False, holding nothing, once
  /// anything has failed: nothing is issued after the first error is seen.
  sim::Task<bool> issue(std::uint64_t bytes) {
    if (throttle != nullptr && bytes > 0 && !error) {
      co_await throttle->take(bytes);
    }
    if (error) co_return false;
    co_await window.acquire();
    if (error) {
      window.release();
      co_return false;
    }
    wg.add();
    co_return true;
  }
  /// Free a finished job's or restore's slot.
  void done() {
    window.release();
    wg.done();
  }
};

std::pair<std::uint32_t, Request> fragment_read(
    const pvfs::OpenFile& f, CodeSpec spec, std::uint32_t gen,
    std::uint64_t g, std::uint32_t frag, std::uint64_t c0, std::uint64_t len) {
  const StripeLayout& lay = f.layout;
  Request r;
  r.handle = f.handle;
  r.len = len;
  r.su = lay.stripe_unit;
  if (frag < spec.k) {
    r.op = Op::read_data_raw;
    r.off = lay.local_unit(g * spec.k + frag) * lay.su() + c0;
  } else {
    r.op = Op::read_red;
    r.off = lay.coding_off(g, spec.k, spec.m, frag - spec.k) + c0;
    r.red_gen = gen;
  }
  return {fragment_server(lay, spec, g, frag), std::move(r)};
}

std::pair<std::uint32_t, Request> fragment_write(
    const pvfs::OpenFile& f, CodeSpec spec, std::uint32_t gen,
    std::uint64_t g, std::uint32_t frag, Buffer payload) {
  const StripeLayout& lay = f.layout;
  Request w;
  w.handle = f.handle;
  w.payload = std::move(payload);
  w.su = lay.stripe_unit;
  if (frag < spec.k) {
    w.op = Op::write_data;
    w.off = lay.local_unit(g * spec.k + frag) * lay.su();
  } else {
    w.op = Op::write_red;
    w.off = lay.coding_off(g, spec.k, spec.m, frag - spec.k);
    w.red_gen = gen;
  }
  return {fragment_server(lay, spec, g, frag), std::move(w)};
}

Request overflow_window_read(const pvfs::OpenFile& f, bool mirror,
                             std::uint32_t owner, std::uint64_t w0,
                             std::uint64_t file_size) {
  Request r;
  r.op = mirror ? Op::read_mirror : Op::read_own_overflow;
  r.handle = f.handle;
  r.off = w0;
  r.len = std::min(kOverflowWindow, file_size - w0);
  r.owner = owner;
  return r;
}

Request overflow_write(const pvfs::OpenFile& f, bool mirror,
                       std::uint32_t owner, std::uint64_t off, Buffer data) {
  Request w;
  w.op = Op::write_overflow;
  w.handle = f.handle;
  w.off = off;
  w.payload = std::move(data);
  w.owner = owner;
  w.mirror = mirror;
  w.su = f.layout.stripe_unit;
  return w;
}

std::uint64_t fragment_decode(CodeSpec spec, std::span<Buffer> frags,
                              std::span<const std::uint32_t> targets) {
  assert(frags.size() == spec.fragments());
  const auto present = decode_sources(
      spec, [&frags](std::uint32_t frag) { return !frags[frag].empty(); });
  assert(present.size() == spec.k && "a decode needs k live fragments");
  SmallVec<Buffer, 16> srcs;
  for (const std::uint32_t frag : present) srcs.push_back(frags[frag]);
  const std::uint64_t len = srcs[0].size();
  std::uint64_t cost = 0;
  for (const std::uint32_t t : targets) {
    assert(frags[t].empty() && "a target is not a source");
    const auto coeffs = rs_reconstruct_coeffs(spec, present, t);
    frags[t] = gf_combine(srcs, coeffs);
    if (t < spec.k && !gf_combine_is_copy(coeffs)) cost += spec.k * len;
  }
  return cost;
}

sim::Task<void> charge_decode(pvfs::Client& client, std::uint64_t bytes) {
  if (bytes == 0) co_return;
  auto& node = client.cluster().node(client.node_id());
  co_await node.mem().occupy(
      sim::transfer_time(bytes, node.params().xor_bytes_per_sec));
}

sim::Task<Result<std::vector<Buffer>>> Recovery::reconstruct(
    const pvfs::OpenFile& f, Scheme sch, std::uint64_t g, std::uint32_t t0,
    std::uint32_t t1, std::uint64_t c0, std::uint64_t len,
    const std::vector<std::uint32_t>& down) {
  const StripeLayout& layout = f.layout;
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t gen = policy_->red_gen_of(f);
  // Exactly k fragments are fetched — never more — which is the
  // degraded-read cost the A14 ablation measures. When the servers in
  // `down` leave fewer than k, read through them instead: a suspected
  // server may still answer (its read fails loudly if not), and single
  // redundancy needs every survivor.
  bool skip_down = true;
  auto usable = [&](std::uint32_t frag) {
    return (frag < t0 || frag >= t1) &&
           !(skip_down &&
             contains(down, fragment_server(layout, spec, g, frag)));
  };
  auto present = decode_sources(spec, usable);
  if (present.size() < k) {
    skip_down = false;
    present = decode_sources(spec, usable);
  }
  // The reads go out coding fragments first, then data (`present` is
  // ascending, so that is a rotation).
  std::rotate(present.begin(),
              std::find_if(present.begin(), present.end(),
                           [k](std::uint32_t frag) { return frag >= k; }),
              present.end());
  std::vector<std::pair<std::uint32_t, Request>> reads;
  reads.reserve(k);
  for (const std::uint32_t frag : present) {
    reads.push_back(fragment_read(f, spec, gen, g, frag, c0, len));
  }
  auto resps = co_await send_all(*client_, std::move(reads));
  std::vector<Buffer> frags(spec.fragments());
  for (std::size_t i = 0; i < resps.size(); ++i) {
    if (!resps[i].ok) {
      co_return Error{resps[i].err, "fragment read", resps[i].server};
    }
    frags[present[i]] = std::move(resps[i].data);
  }
  SmallVec<std::uint32_t, 16> targets;
  for (std::uint32_t t = t0; t < t1; ++t) targets.push_back(t);
  co_await charge_decode(*client_, fragment_decode(spec, frags, targets));
  std::vector<Buffer> out;
  out.reserve(t1 - t0);
  for (const std::uint32_t t : targets) out.push_back(std::move(frags[t]));
  co_return out;
}

sim::Task<Result<Buffer>> Recovery::reconstruct_piece(
    const pvfs::OpenFile& f, Scheme sch, const std::vector<std::uint32_t>& down,
    std::uint64_t global_off, std::uint64_t len) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t u = layout.unit_of(global_off);
  assert(layout.unit_of(global_off + len - 1) == u &&
         "piece must lie within one stripe unit");
  const std::uint32_t owner = layout.server_of_unit(u);
  const std::uint32_t successor = (owner + 1) % layout.n();
  const std::uint64_t local = layout.local_off(global_off);
  if (sch == Scheme::raid0) {
    co_return Error{Errc::server_failed, "RAID0 cannot reconstruct"};
  }
  const std::uint32_t k = sch.code(layout).k;
  const auto target = static_cast<std::uint32_t>(u % k);
  auto base = co_await reconstruct(f, sch, layout.group_of_unit(u, k), target,
                                   target + 1, global_off % layout.su(), len,
                                   down);
  if (!base.ok()) co_return base.error();
  policy_->note_ec_degraded_read(sch, k, len * k);
  Buffer out = std::move(base->front());
  // Overlay the newest partial-stripe data from the mirrored overflow
  // copies on the successor. This applies beyond Scheme::hybrid: a file
  // migrated away from Hybrid keeps its overflow overlay live (the new
  // base redundancy covers the raw data files only), so its reconstruction
  // needs the same overlay. Never-Hybrid files skip the extra read.
  if (policy_->overflow_possible(f)) {
    if (contains(down, successor)) {
      co_return Error{Errc::server_failed,
                      "overflow overlay: owner and successor both down"};
    }
    Request r;
    r.op = Op::read_mirror;
    r.handle = f.handle;
    r.off = local;
    r.len = len;
    r.owner = owner;
    auto resp = co_await client_->rpc(successor, std::move(r));
    if (!resp.ok) {
      co_return Error{resp.err, "mirror overflow read", resp.server};
    }
    for (const auto& piece : resp.pieces) {
      if (out.materialized() && piece.data.materialized()) {
        out.write_at(piece.local_off - local, piece.data);
      } else {
        out = Buffer::phantom(len);
      }
    }
  }
  co_return out;
}

sim::Task<Result<Buffer>> Recovery::degraded_read(
    const pvfs::OpenFile& f, std::uint64_t off, std::uint64_t len,
    std::vector<std::uint32_t> failed) {
  if (failed.empty()) co_return co_await client_->read(f, off, len);
  const Scheme sch = policy_->scheme_of(f);
  if (failed.size() > failure_budget(sch, f.layout)) {
    co_return Error{Errc::server_failed,
                    "more concurrent failures than the scheme tolerates"};
  }
  if (len == 0) co_return Buffer::real(0);
  const auto extents = f.layout.decompose(off, len);
  std::vector<Buffer> pieces(extents.size());
  bool phantom = false;
  bool error = false;
  Error first_error;
  std::vector<sim::Task<void>> tasks;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    tasks.push_back(
        [](Recovery* self, const pvfs::OpenFile* file, Scheme sch,
           StripeLayout::Extent ext, const std::vector<std::uint32_t>* down,
           Buffer* sink, bool* phant, bool* err,
           Error* ferr) -> sim::Task<void> {
          Result<Buffer> piece = Buffer::real(0);
          if (contains(*down, ext.server)) {
            piece = co_await self->reconstruct_piece(*file, sch, *down,
                                                     ext.global_off, ext.len);
          } else {
            Request r;
            r.op = Op::read_data;
            r.handle = file->handle;
            r.off = ext.local_off;
            r.len = ext.len;
            r.su = file->layout.stripe_unit;
            auto resp = co_await self->client_->rpc(ext.server, std::move(r));
            piece = resp.ok ? Result<Buffer>(std::move(resp.data))
                            : Result<Buffer>(
                                  Error{resp.err, "read", resp.server});
          }
          if (!piece.ok()) {
            if (!*err) *ferr = piece.error();
            *err = true;
            co_return;
          }
          assert(piece.value().size() == ext.len);
          if (!piece.value().materialized()) *phant = true;
          *sink = std::move(piece.value());
        }(this, &f, sch, extents[i], &failed, &pieces[i], &phantom, &error,
          &first_error));
  }
  co_await sim::when_all(client_->cluster().sim(), std::move(tasks));
  if (error) co_return first_error;
  if (phantom) co_return Buffer::phantom(len);
  co_return Buffer::concat(pieces);
}

sim::Task<void> charge_encode(pvfs::Client& client, Scheme sch,
                              std::uint64_t bytes) {
  if (sch == Scheme::raid5_npc || bytes == 0) co_return;
  auto& node = client.cluster().node(client.node_id());
  co_await node.tx().occupy(
      sim::transfer_time(bytes, node.params().xor_bytes_per_sec));
}

StripeLayout::WriteSplit write_split(const StripeLayout& layout, CodeSpec spec,
                                     std::uint64_t off, std::uint64_t len) {
  // k = 0 only for a one-server parity layout, which has no groups.
  if (spec.k == 0) return {};
  return layout.split_write_w(off, len, layout.group_width(spec.k));
}

namespace {

/// A partial-group segment of a write (the head or tail of the split).
struct PartialSeg {
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t group;
};

/// The head and tail of `ws` as segments of k-unit groups. Head group <
/// tail group, so this is already ascending — the ordered lock
/// acquisition the paper uses to avoid deadlock (§5.1).
SmallVec<PartialSeg, 2> partial_segments(const StripeLayout& layout,
                                         const StripeLayout::WriteSplit& ws,
                                         std::uint32_t k) {
  SmallVec<PartialSeg, 2> out;
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

/// Unit extents of [start, end): decompose()'s count, without decomposing.
std::size_t unit_count(const StripeLayout& layout, std::uint64_t start,
                       std::uint64_t end) {
  return start < end ? static_cast<std::size_t>(layout.unit_of(end - 1) -
                                                layout.unit_of(start) + 1)
                     : 0;
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

/// A partial group whose coding the write updates by read-modify-write.
struct RmwGroup {
  PartialSeg seg;
  ColRange cols;
  std::vector<Buffer> coding;  ///< old coding columns, updated in place
  /// A touched data unit's server is down: its old bytes are decoded
  /// (reconstruct-write) instead of read.
  bool lost = false;
};

/// Offset of coding unit j's columns for RMW group `c` in its server's
/// redundancy file.
std::uint64_t coding_col(const StripeLayout& layout, CodeSpec spec,
                         const RmwGroup& c, std::uint32_t j) {
  return layout.coding_off(c.seg.group, spec.k, spec.m, j) + c.cols.lo;
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
/// gets one merged write. A payload is a deferred combine with one part
/// per maximal run of its slots that share a generator row, whose source i
/// joins data unit i of those slots' groups: the coding bytes are computed
/// only if something reads them, and the views pin only what the data
/// writes already pin. Returns the bytes the encode costs in simulated
/// time.
std::uint64_t full_coding_writes(
    const pvfs::OpenFile& f, CodeSpec spec, std::uint64_t off,
    const Buffer& data, std::uint64_t g0, std::uint64_t g1,
    std::uint32_t red_gen,
    std::vector<std::pair<std::uint32_t, Request>>& reqs) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint32_t k = spec.k;
  struct Slot {
    std::uint32_t server;
    std::uint64_t slot;
    std::uint64_t g;
    std::uint32_t j;
  };
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>((g1 - g0) * spec.m));
  for (std::uint64_t g = g0; g < g1; ++g) {
    for (std::uint32_t j = 0; j < spec.m; ++j) {
      slots.push_back({layout.coding_server(g, k, j),
                       layout.coding_slot(g, k, spec.m, j), g, j});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.server != b.server ? a.server < b.server : a.slot < b.slot;
  });
  std::vector<std::vector<std::uint8_t>> rows;
  std::vector<Buffer> srcs;
  std::vector<Buffer> units;
  std::vector<Buffer::CombinePart> parts;
  if (data.materialized()) {
    for (std::uint32_t j = 0; j < spec.m; ++j) rows.push_back(rs_row(spec, j));
  }
  for (std::size_t a = 0; a < slots.size();) {
    std::size_t b = a + 1;
    while (b < slots.size() && slots[b].server == slots[a].server &&
           slots[b].slot == slots[a].slot + (b - a)) {
      ++b;
    }
    Request r;
    r.op = Op::write_red;
    r.handle = f.handle;
    r.off = slots[a].slot * su;
    r.su = layout.stripe_unit;
    r.red_gen = red_gen;
    if (!data.materialized()) {
      r.payload = Buffer::phantom((b - a) * su);
    } else {
      // One part per maximal run of one row; its k sources first, then
      // the parts over them (the sources no longer move).
      srcs.clear();
      parts.clear();
      for (std::size_t p = a; p < b;) {
        std::size_t q = p + 1;
        while (q < b && slots[q].j == slots[p].j) ++q;
        for (std::uint32_t i = 0; i < k; ++i) {
          units.clear();
          for (std::size_t x = p; x < q; ++x) {
            units.push_back(data.slice(
                layout.group_start(slots[x].g, k) + i * su - off, su));
          }
          srcs.push_back(Buffer::concat(units));
        }
        parts.push_back({{}, rows[slots[p].j]});
        p = q;
      }
      for (std::size_t x = 0; x < parts.size(); ++x) {
        parts[x].srcs = std::span<const Buffer>(srcs).subspan(x * k, k);
      }
      r.payload = Buffer::deferred_combine(parts);
    }
    reqs.emplace_back(slots[a].server, std::move(r));
    a = b;
  }
  return (g1 - g0) * spec.m * layout.group_width(k);
}

/// The writes of a k = 1 code (RAID1 is rs(1,1)), appended to `out`. Each
/// coding byte is c_j times one data byte, so a write sets its coding over
/// the same range from the new bytes alone: no lock, no old-data read. Per
/// merged extent: one data write, then its m coding writes at the coding
/// slot plus the in-unit offset (one per run of consecutive slots). The
/// data write carries the owner's overflow invalidation and coding unit 0,
/// which lives on the successor that holds the owner's mirror overflow
/// entries, carries the mirror's; neither costs a message. Returns the
/// bytes multiplied by a coefficient other than 1, which a copy (RAID1)
/// has none of.
std::uint64_t copy_writes(const pvfs::OpenFile& f, CodeSpec spec,
                          std::uint32_t red_gen, std::uint64_t off,
                          const Buffer& data,
                          std::vector<std::pair<std::uint32_t, Request>>& out) {
  assert(spec.k == 1);
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  std::uint64_t gf_bytes = 0;
  for (const auto& e : layout.decompose_merged(off, data.size())) {
    Buffer payload =
        pvfs::Client::gather_for_server(layout, off, data, e.server);
    Request w;
    w.op = Op::write_data;
    w.handle = f.handle;
    w.off = e.local_off;
    w.payload = payload.slice(0, payload.size());
    w.su = layout.stripe_unit;
    w.inval_own = Interval{e.local_off, e.local_off + e.len};
    out.emplace_back(e.server, std::move(w));
    for (std::uint32_t j = 0; j < spec.m; ++j) {
      // Coding unit j holds c_j times the bytes (a view when c_j = 1).
      const std::uint8_t c = rs_coeff(spec, j, 0);
      const Buffer coded =
          c == 1 ? payload
                 : gf_combine(std::span<const Buffer>(&payload, 1),
                              std::span<const std::uint8_t>(&c, 1));
      if (c != 1) gf_bytes += e.len;
      // Each byte goes to its unit's coding slot + in-unit offset; a run of
      // consecutive slots on one server is one write. With m = 1 the slots
      // are the owner's local units, so the extent is one run.
      auto slot_of = [&](std::uint64_t lo) {
        const std::uint64_t g = layout.unit_of(layout.global_off(e.server, lo));
        return std::pair<std::uint32_t, std::uint64_t>{
            layout.coding_server(g, 1, j),
            layout.coding_off(g, 1, spec.m, j) + lo % su};
      };
      const std::uint64_t end = e.local_off + e.len;
      for (std::uint64_t lo = e.local_off; lo < end;) {
        const auto [cs, coff] = slot_of(lo);
        std::uint64_t hi = lo;
        do {
          hi = std::min(end, (hi / su + 1) * su);
        } while (hi < end &&
                 slot_of(hi) == std::pair<std::uint32_t, std::uint64_t>{
                                    cs, coff + (hi - lo)});
        Request cw;
        cw.op = Op::write_red;
        cw.handle = f.handle;
        cw.off = coff;
        cw.payload = coded.slice(lo - e.local_off, hi - lo);
        cw.su = layout.stripe_unit;
        cw.red_gen = red_gen;
        if (j == 0) cw.inval_mirror = Interval{lo, hi};
        out.emplace_back(cs, std::move(cw));
        lo = hi;
      }
    }
  }
  return gf_bytes;
}

/// The RMW groups of the partial segments `segs`. A group with no live
/// coding unit has nothing to update and is left out, unless a touched data
/// unit is down too: then the write cannot be recorded, and the error names
/// that unit's server.
Result<std::vector<RmwGroup>> rmw_groups(
    const StripeLayout& layout, CodeSpec spec,
    const SmallVec<PartialSeg, 2>& segs,
    const std::vector<std::uint32_t>& failed) {
  std::vector<RmwGroup> groups;
  groups.reserve(segs.size());
  for (const auto& seg : segs) {
    RmwGroup c{seg, col_range(layout, seg), std::vector<Buffer>(spec.m)};
    if (!failed.empty()) {
      int lost_server = -1;
      for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
        if (contains(failed, e.server)) {
          lost_server = static_cast<int>(e.server);
        }
      }
      c.lost = lost_server >= 0;
      bool live = false;
      for (std::uint32_t j = 0; j < spec.m; ++j) {
        const std::uint32_t cs = layout.coding_server(seg.group, spec.k, j);
        live = live || !contains(failed, cs);
      }
      if (!live && c.lost) {
        return Error{Errc::server_failed,
                     "write to a lost unit with no live coding", lost_server};
      }
      if (!live) continue;
    }
    groups.push_back(std::move(c));
  }
  return groups;
}

/// Steps 1-3 of the RMW (§5.1) over `groups`, leaving each live coding
/// unit's new columns in groups[i].coding; returns the bytes it encoded.
/// A failed read releases every lock the RMW may hold.
sim::Task<Result<std::uint64_t>> rmw_fold(
    pvfs::Client& client, const pvfs::OpenFile& f, Scheme sch,
    std::uint32_t gen, std::uint64_t rmw_token, std::uint64_t off,
    const Buffer& data, const std::vector<std::uint32_t>& failed,
    std::vector<RmwGroup>& groups) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t m = spec.m;
  const bool locking = rmw_token != 0;
  auto down = [&failed](std::uint32_t s) { return contains(failed, s); };
  std::uint64_t xor_bytes = 0;

  // 1. Every touched extent needs its old contents. The old-data reads are
  //    lock-free and proceed in parallel with the coding reads — deltas of
  //    disjoint regions commute, so only each coding read->write pair must
  //    be atomic. A lost group reads its old bytes only under the locks
  //    (step 2b).
  std::size_t nreads = 0;
  for (const auto& c : groups) {
    nreads += unit_count(layout, c.seg.start, c.seg.end);
  }
  std::vector<std::pair<std::size_t, StripeLayout::Extent>> read_meta;
  read_meta.reserve(nreads);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto& seg = groups[i].seg;
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      read_meta.emplace_back(i, e);
    }
  }

  // Shared state between this frame and the old-data reader tasks. The
  // readers stream the delta half of the update: each computes old ^ new
  // per response *as it arrives* (overlapping the XOR with the lock phase
  // below) instead of after a global join.
  struct OldReadShared {
    pvfs::Client* client;
    const std::vector<std::pair<std::size_t, StripeLayout::Extent>>* meta;
    const Buffer* data;
    std::uint64_t off;
    bool materialized;
    Scheme sch;
    std::vector<Buffer> deltas;  // indexed like read_meta
    bool failed = false;
    Errc errc = Errc::ok;
    int err_server = -1;
    void fail(const pvfs::Response& resp) {
      if (failed) return;
      failed = true;
      errc = resp.err;
      err_server = resp.server;
    }
  };
  OldReadShared shared{&client, &read_meta, &data, off, data.materialized(),
                       sch,     {},         false, Errc::ok, -1};
  shared.deltas.resize(read_meta.size());

  // One reader per extent: bulk old-data responses pipeline best as
  // independent messages (the server overlaps their disk reads, and each
  // response streams back as soon as it is done).
  auto read_one = [](OldReadShared* sh, std::uint32_t srv, Request req,
                     std::size_t x) -> sim::Task<void> {
    auto resp = co_await sh->client->rpc(srv, std::move(req));
    if (!resp.ok) {
      sh->fail(resp);
      co_return;
    }
    const auto& e = (*sh->meta)[x].second;
    Buffer delta =
        match_materialization(std::move(resp.data), sh->materialized);
    delta.xor_with(sh->data->slice(e.global_off - sh->off, e.len));
    sh->deltas[x] = std::move(delta);
    co_await charge_encode(*sh->client, sh->sch, e.len);
  };
  std::vector<sim::ProcessHandle> readers;
  readers.reserve(nreads);
  for (std::size_t x = 0; x < read_meta.size(); ++x) {
    const auto& [i, e] = read_meta[x];
    if (groups[i].lost) continue;
    Request r;
    r.op = Op::read_data_raw;
    r.handle = f.handle;
    r.off = e.local_off;
    r.len = e.len;
    readers.push_back(client.cluster().sim().spawn(
        read_one(&shared, e.server, std::move(r), x)));
  }

  // 2. Lock phase: one batched lock+read RPC per live coding server. The
  //    server acquires every lock of the batch atomically (ascending key
  //    order) before answering; servers are visited sequentially in
  //    first-seen (ascending group, ascending j) order, which preserves the
  //    paper's ordered-acquisition deadlock-avoidance rule across writers.
  struct LockBucket {
    std::uint32_t server;
    std::vector<std::pair<std::size_t, std::uint32_t>> cs;  // (group, j)
  };
  std::vector<LockBucket> lbuckets;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const std::uint32_t srv = layout.coding_server(groups[i].seg.group, k, j);
      if (down(srv)) continue;
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

  bool coding_error = false;
  Errc coding_errc = Errc::ok;
  int coding_err_server = -1;
  // Locks whose acquisition request went out; on abort each gets an
  // explicit owner-checked release (safe even when the grant is unknown —
  // a timed-out envelope may or may not have taken them server-side).
  std::vector<char> lock_sent(groups.size() * m, 0);
  for (auto& b : lbuckets) {
    std::vector<Request> subs;
    subs.reserve(b.cs.size());
    for (const auto& [i, j] : b.cs) {
      Request r;
      r.op = Op::read_red;
      r.handle = f.handle;
      r.off = coding_col(layout, spec, groups[i], j);
      r.len = groups[i].cols.hi - groups[i].cols.lo;
      r.lock = locking;
      r.rmw_token = rmw_token;
      r.su = layout.stripe_unit;
      r.red_gen = gen;
      subs.push_back(std::move(r));
      if (locking) lock_sent[i * m + j] = 1;
    }
    auto resps = co_await client.rpc_batch(b.server, std::move(subs));
    for (std::size_t x = 0; x < resps.size(); ++x) {
      if (!resps[x].ok) {
        if (!coding_error) {
          coding_error = true;
          coding_errc = resps[x].err;
          coding_err_server = resps[x].server;
        }
        continue;
      }
      groups[b.cs[x].first].coding[b.cs[x].second] = match_materialization(
          std::move(resps[x].data), data.materialized());
    }
    if (coding_error) break;
  }

  // 2b. Reconstruct-write reads, under the locks: the old columns of every
  //     live data unit of a lost group. Read before the locks, a unit
  //     another writer is updating could pair its old bytes with that
  //     writer's new coding and decode garbage.
  std::vector<std::pair<std::uint32_t, Request>> unit_reads;
  std::vector<std::pair<std::size_t, std::uint32_t>> unit_meta;  // (group, i)
  for (std::size_t i = 0; i < groups.size() && !coding_error; ++i) {
    if (!groups[i].lost) continue;
    for (std::uint32_t di = 0; di < k; ++di) {
      const std::uint64_t u = groups[i].seg.group * k + di;
      if (down(layout.server_of_unit(u))) continue;
      Request r;
      r.op = Op::read_data_raw;
      r.handle = f.handle;
      r.off = layout.local_unit(u) * su + groups[i].cols.lo;
      r.len = groups[i].cols.hi - groups[i].cols.lo;
      unit_reads.emplace_back(layout.server_of_unit(u), std::move(r));
      unit_meta.emplace_back(i, di);
    }
  }
  std::vector<pvfs::Response> units;
  if (!unit_reads.empty()) {
    units = co_await send_all(client, std::move(unit_reads));
    for (const auto& resp : units) {
      if (!resp.ok) shared.fail(resp);
    }
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
      for (std::size_t i = 0; i < groups.size(); ++i) {
        for (std::uint32_t j = 0; j < m; ++j) {
          if (lock_sent[i * m + j] == 0) continue;
          Request u;
          u.op = Op::unlock_red;
          u.handle = f.handle;
          u.off = coding_col(layout, spec, groups[i], j);
          u.rmw_token = rmw_token;
          u.su = layout.stripe_unit;
          u.red_gen = gen;
          rel.emplace_back(layout.coding_server(groups[i].seg.group, k, j),
                           std::move(u));
        }
      }
      (void)co_await client.rpc_all(std::move(rel));
    }
    if (coding_error) {
      co_return Error{coding_errc, "coding read", coding_err_server};
    }
    co_return Error{shared.errc, "old data read", shared.err_server};
  }

  // 2c. A lost group's deltas: old ^ new per touched extent, as the
  //     readers compute them. A down unit's old columns are decoded from
  //     the live units and coding just read (fragment_decode); the decode
  //     is charged in place of the delta's XOR. The group's fragments are
  //     dropped before step 3 updates its coding in place.
  std::uint64_t delta_bytes = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (!groups[i].lost) continue;
    std::vector<Buffer> old(spec.fragments());
    for (std::size_t r = 0; r < unit_meta.size(); ++r) {
      if (unit_meta[r].first != i) continue;
      old[unit_meta[r].second] = match_materialization(
          std::move(units[r].data), data.materialized());
    }
    for (std::uint32_t j = 0; j < m; ++j) {
      if (down(layout.coding_server(groups[i].seg.group, k, j))) continue;
      old[k + j] = groups[i].coding[j];
    }
    // A segment touches each unit of its group once: the read ones pay
    // their delta's XOR, the down ones are decoded.
    SmallVec<std::uint32_t, 16> lost;
    for (const auto& [gi, e] : read_meta) {
      const auto frag =
          static_cast<std::uint32_t>(layout.unit_of(e.global_off) % k);
      if (gi != i) continue;
      if (old[frag].empty()) {
        lost.push_back(frag);
      } else {
        delta_bytes += e.len;
      }
    }
    xor_bytes += fragment_decode(spec, old, lost);
    for (std::size_t x = 0; x < read_meta.size(); ++x) {
      if (read_meta[x].first != i) continue;
      const auto& e = read_meta[x].second;
      const auto frag =
          static_cast<std::uint32_t>(layout.unit_of(e.global_off) % k);
      Buffer delta =
          old[frag].slice(e.global_off % su - groups[i].cols.lo, e.len);
      delta.xor_with(data.slice(e.global_off - off, e.len));
      shared.deltas[x] = std::move(delta);
    }
  }
  if (delta_bytes > 0) co_await charge_encode(client, sch, delta_bytes);

  // 3. Fold the deltas into the live coding columns at each extent's
  //    column offset: coding_j ^= coeff(j, i) * delta. The old ^ new half
  //    was computed (and its XOR charged) above.
  for (std::size_t x = 0; x < read_meta.size(); ++x) {
    const std::size_t i = read_meta[x].first;
    const auto& e = read_meta[x].second;
    const std::uint32_t frag =
        static_cast<std::uint32_t>(layout.unit_of(e.global_off) % k);
    const std::uint64_t colofs = e.global_off % su - groups[i].cols.lo;
    for (std::uint32_t j = 0; j < m; ++j) {
      if (down(layout.coding_server(groups[i].seg.group, k, j))) continue;
      Buffer& coding = groups[i].coding[j];
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
  co_return xor_bytes;
}

/// The requests of a coded or Hybrid write split as `ws`, appended to `out`
/// in the order they go out: the updated coding columns of the RMW
/// `groups` *first* (their transfer releases the locks — sending them ahead
/// of the bulk data keeps the critical section short), then the data in
/// place (Hybrid: its full-stripe run only), then fresh coding for the full
/// groups, then Hybrid's overflow copies of its partial groups. Returns the
/// bytes the full groups' encode costs.
std::uint64_t coded_writes(
    const pvfs::OpenFile& f, Scheme sch, std::uint32_t gen, bool inval,
    std::uint64_t rmw_token, std::uint64_t off, const Buffer& data,
    const StripeLayout::WriteSplit& ws, std::vector<RmwGroup>& groups,
    std::vector<std::pair<std::uint32_t, Request>>& out) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t m = spec.m;
  const bool hybrid = sch == Scheme::hybrid;
  const auto segs = partial_segments(layout, ws, spec.k);
  const std::uint64_t d0 = hybrid ? ws.full_start : off;
  const std::uint64_t d1 = hybrid ? ws.full_end : off + data.size();
  const auto merged = layout.decompose_merged(d0, d1 - d0);
  std::size_t nwrites = groups.size() * m +
                        merged.size() * (inval && !hybrid ? 2 : 1) +
                        (ws.full_end > ws.full_start ? n * m : 0);
  for (const auto& seg : segs) {
    if (hybrid) nwrites += 2 * unit_count(layout, seg.start, seg.end);
  }
  out.reserve(nwrites);
  for (auto& c : groups) {
    for (std::uint32_t j = 0; j < m; ++j) {
      Request w;
      w.op = Op::write_red;
      w.handle = f.handle;
      w.off = coding_col(layout, spec, c, j);
      w.payload = std::move(c.coding[j]);
      w.unlock = rmw_token != 0;
      w.rmw_token = rmw_token;
      w.su = layout.stripe_unit;
      w.red_gen = gen;
      out.emplace_back(layout.coding_server(c.seg.group, spec.k, j),
                       std::move(w));
    }
  }

  // Hybrid's per-server local data extents, for overflow invalidation:
  // server s invalidates its own entries over its extent, and the mirror
  // entries it holds for server s-1 over *that* server's extent.
  std::vector<Interval> extent(hybrid && !merged.empty() ? n : 0,
                               Interval{0, 0});
  for (const auto& e : merged) {
    if (hybrid) extent[e.server] = {e.local_off, e.local_off + e.len};
  }
  const Buffer span = hybrid && d1 > d0 ? data.slice(d0 - off, d1 - d0) : data;
  for (const auto& e : merged) {
    Request w;
    w.op = Op::write_data;
    w.handle = f.handle;
    w.off = e.local_off;
    w.payload = pvfs::Client::gather_for_server(layout, d0, span, e.server);
    w.su = layout.stripe_unit;
    if (hybrid) {
      w.inval_own = extent[e.server];
      w.inval_mirror = extent[(e.server + n - 1) % n];
    } else if (inval) {
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
      out.emplace_back((e.server + 1) % n, std::move(inv));
    }
    out.emplace_back(e.server, std::move(w));
  }

  std::uint64_t encoded = 0;
  if (ws.full_end > ws.full_start) {
    const std::uint64_t W = layout.group_width(spec.k);
    const std::size_t coding_first = out.size();
    encoded = full_coding_writes(f, spec, off, data, ws.full_start / W,
                                 ws.full_end / W, gen, out);
    // A Hybrid server that holds no data unit in the span (possible when
    // the span is shorter than N groups) still receives its parity write;
    // attach the invalidations there so its stale mirror entries die too.
    // The invalidation is idempotent with the one on the data write, so it
    // is attached unconditionally.
    for (std::size_t i = coding_first; hybrid && i < out.size(); ++i) {
      const std::uint32_t s = out[i].first;
      out[i].second.inval_own = extent[s];
      out[i].second.inval_mirror = extent[(s + n - 1) % n];
    }
  }

  // Hybrid's partial-stripe segments: the updated blocks are written twice
  // into overflow regions (owner + successor), never touching the data
  // file, so the group's stale parity still reconstructs the *old* stripe
  // (§4).
  for (const auto& seg : segs) {
    if (!hybrid) break;
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      Buffer piece = data.slice(e.global_off - off, e.len);
      out.emplace_back(e.server, overflow_write(f, false, e.server,
                                                e.local_off, piece));
      out.emplace_back((e.server + 1) % n,
                       overflow_write(f, true, e.server, e.local_off,
                                      std::move(piece)));
    }
  }
  return encoded;
}

}  // namespace

sim::Task<Result<void>> Recovery::write(const pvfs::OpenFile& f,
                                        std::uint64_t off, Buffer data,
                                        std::vector<std::uint32_t> failed) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t len = data.size();
  const Scheme sch = policy_->scheme_of(f);
  if (failed.size() > failure_budget(sch, layout)) {
    co_return Error{Errc::server_failed,
                    "more concurrent failures than the scheme tolerates"};
  }
  if (len == 0) co_return Result<void>::success();
  if (!uses_group_coding(sch)) {
    // RAID0 has no redundancy to record a down server's bytes in.
    for (const auto& e : layout.decompose(off, failed.empty() ? 0 : len)) {
      if (contains(failed, e.server)) {
        co_return Error{Errc::server_failed, "RAID0 write to a down server",
                        static_cast<int>(e.server)};
      }
    }
    co_return co_await client_->write_striped(f, off, data);
  }
  // One path for every k+m code: RAID1 is rs(1,1), RAID4, the RAID5
  // variants and Hybrid's full stripes are rs(N-1,1). Full groups compute
  // their m coding units fresh; each partial group runs the batched RMW:
  // lock and read its coding columns, read the old data, and fold coding_j
  // ^= coeff(j,i) * (old ^ new) for a write to data unit i (plain XOR for
  // the all-ones row 0, i.e. for parity). Hybrid's partial groups go to
  // overflow instead, and a k = 1 code needs neither (copy_writes); its
  // copies go ahead of the k+m <= N rule: on one server a k = 1 copy wraps
  // onto its owner, which RAID1 allows (no fault tolerance, same bytes).
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t gen = policy_->red_gen_of(f);
  const bool hybrid = sch == Scheme::hybrid;
  std::vector<std::pair<std::uint32_t, Request>> writes;
  std::uint64_t encoded = 0;  // noted and charged once, as the writes go out
  if (spec.k == 1 && !hybrid) {
    encoded = copy_writes(f, spec, gen, off, data, writes);
  } else if (spec.fragments() > layout.n()) {
    co_return Error{Errc::invalid_argument, "coded placement needs k+m <= N"};
  } else {
    const auto ws = write_split(layout, spec, off, len);
    auto groups = rmw_groups(layout, spec,
                             hybrid ? SmallVec<PartialSeg, 2>{}
                                    : partial_segments(layout, ws, spec.k),
                             failed);
    if (!groups.ok()) co_return groups.error();
    // One token identifies this whole RMW to the lock protocol: a retried
    // lock read re-enters its own grant, and the paired (or abandon-time)
    // release cannot be confused with a later RMW's lock.
    const std::uint64_t rmw_token =
        sch != Scheme::raid5_nolock && !groups->empty()
            ? client_->next_rmw_token()
            : 0;
    if (!groups->empty()) {
      auto folded = co_await rmw_fold(*client_, f, sch, gen, rmw_token, off,
                                      data, failed, *groups);
      if (!folded.ok()) co_return folded.error();
      encoded = *folded;
      policy_->note_rmw(sch, groups->size());
    }
    encoded += coded_writes(f, sch, gen, policy_->overflow_possible(f),
                            rmw_token, off, data, ws, *groups, writes);
    if (hybrid && ws.full_end - ws.full_start < len) {
      // Both copies of every partial-stripe byte.
      policy_->note_overflow_bytes(
          sch, 2 * (len - (ws.full_end - ws.full_start)));
    }
  }
  policy_->note_ec_encode(sch, encoded);
  co_await charge_encode(*client_, sch, encoded);
  // The one failover filter: nothing is sent to a down server.
  std::erase_if(writes, [&failed](const auto& w) {
    return contains(failed, w.first);
  });
  auto resps = co_await client_->rpc_all(std::move(writes));
  for (const auto& resp : resps) {
    if (!resp.ok) {
      co_return Error{resp.err, hybrid ? "hybrid write" : "coded write",
                      resp.server};
    }
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Recovery::rebuild_server(
    std::vector<RebuildTarget> targets, std::uint32_t failed,
    RebuildOptions opt) {
  std::vector<RepairFile> files;
  files.reserve(targets.size());
  for (const RebuildTarget& t : targets) {
    const pvfs::OpenFile& f = t.f;
    const std::uint64_t file_size = t.size;
    const IntervalSet* delta = t.delta;
    if (file_size == 0) continue;
    const Scheme sch = policy_->scheme_of(f);
    // Nothing rebuildable: RAID0 stores no redundancy, so a replaced
    // server's units are simply gone. The coordinator admits such servers
    // without a pass; a RAID0 target is skipped rather than failed so a
    // mixed-scheme pass can treat every file uniformly.
    if (sch == Scheme::raid0) continue;
    const StripeLayout& layout = f.layout;
    const std::uint32_t n = layout.n();
    const std::uint64_t su = layout.su();
    const std::uint32_t predecessor = (failed + n - 1) % n;
    const CodeSpec spec = sch.code(layout);
    const std::uint32_t k = spec.k;
    RepairFile& file =
        files.emplace_back(RepairFile{&f, sch, policy_->red_gen_of(f), {}, {}});

    // 1. Data file: reconstruct every unit the failed server held. This
    //    restores the *base* content (data file only), keeping the
    //    surviving redundancy consistent; overflow entries are restored
    //    separately in step 3. The decode is of the raw survivors, no
    //    overflow overlay.
    const std::uint32_t dn = layout.data_servers();
    if (failed < dn) {
      for (std::uint64_t u = first_unit_on(layout, failed);
           u * su < file_size; u += dn) {
        const std::uint64_t len =
            std::min<std::uint64_t>(su, file_size - u * su);
        if (delta && !delta->intersects(u * su, u * su + len)) continue;
        const auto i = static_cast<std::uint32_t>(u % k);
        file.jobs.push_back({layout.group_of_unit(u, k), i, i + 1, len});
      }
    }

    // 2. Redundancy file: the coding units whose placement lands on the
    //    failed server, over the group's columns inside the file — the same
    //    job, targeting fragment k+j instead of a data unit.
    const std::uint64_t ngroups = div_ceil(file_size, layout.group_width(k));
    for (std::uint64_t g = 0; g < ngroups; ++g) {
      for (std::uint32_t j = 0; j < spec.m; ++j) {
        if (layout.coding_server(g, k, j) != failed) continue;
        if (delta &&
            !delta->intersects(layout.group_start(g, k),
                               std::min(layout.group_end(g, k), file_size))) {
          continue;
        }
        file.jobs.push_back(
            {g, k + j, k + j + 1, group_cols(layout, k, g, file_size)});
      }
    }

    // 3. Overflow overlay: restore this server's own entries from the
    //    mirrors on its successor, and the mirror entries it held for its
    //    predecessor from that server's own table. Runs for Hybrid files and
    //    for files migrated away from Hybrid (their overlay is still live).
    if (!policy_->overflow_possible(f)) continue;
    const bool filter = delta != nullptr && !opt.restore_all_overflow;
    // Stale entries are dropped first, by zero-payload write_data requests
    // that carry pure invalidation ranges; the copier then re-mirrors the
    // authoritative survivor copies.
    std::vector<Request> invals;
    auto invalidate = [&](Interval own, Interval mirror) {
      Request r;
      r.op = Op::write_data;
      r.handle = f.handle;
      r.su = layout.stripe_unit;
      r.inval_own = own;
      r.inval_mirror = mirror;
      invals.push_back(std::move(r));
    };
    if (delta != nullptr && opt.restore_all_overflow) {
      // The rejoiner's overflow content is wholesale suspect (e.g. dirty
      // pages under the overflow file died with the crash): drop both table
      // sides entirely.
      invalidate({0, file_size}, {0, 0});
      invalidate({0, 0}, {0, file_size});
    } else if (filter) {
      // A non-wipe rejoiner kept its overflow tables, but over the delta
      // they are stale: survivors superseded or invalidated those entries
      // while this server was gone. Clear both table sides across it.
      for (const auto& iv : delta->to_vector()) {
        for (const auto& ext : layout.decompose(iv.start, iv.length())) {
          const Interval local{ext.local_off, ext.local_off + ext.len};
          if (ext.server == failed) {
            invalidate(local, {0, 0});
          } else if (ext.server == predecessor) {
            invalidate({0, 0}, local);
          }
        }
      }
    }
    file.overflow = OverflowRestore{failed, file_size, std::move(invals),
                                    filter ? delta : nullptr};
  }
  // Servers unreadable during this pass: the rebuild target itself plus any
  // concurrent outages. Decodes route around them while k fragments remain
  // (see reconstruct).
  std::vector<std::uint32_t> down = std::move(opt.also_down);
  if (!contains(down, failed)) down.push_back(failed);
  std::sort(down.begin(), down.end());
  co_return co_await repair(std::move(files), std::move(down),
                            /*migration=*/false, opt.throttle);
}

sim::Task<Result<void>> Recovery::build_redundancy(const pvfs::OpenFile& f,
                                                   Scheme to,
                                                   std::uint32_t red_gen,
                                                   std::uint64_t file_size,
                                                   const IntervalSet* delta,
                                                   sim::TokenBucket* throttle) {
  const StripeLayout& layout = f.layout;
  if (file_size == 0) co_return Result<void>::success();
  if (to == Scheme::raid0 || to == Scheme::raid4) {
    // RAID0 has no redundancy to build; RAID4's fixed parity placement does
    // not transpose onto a file laid out with rotating placement.
    co_return Error{Errc::invalid_argument, "unsupported migration target"};
  }

  // Per group, read the k raw data units and write the m coding units into
  // the generation-`red_gen` redundancy files of their placement servers,
  // over the group's columns inside the file: a rebuild of every coding
  // fragment at the next generation. Partial-write overflow is
  // deliberately excluded, so the new coding is consistent with the data
  // files just like Hybrid's.
  const CodeSpec spec = to.code(layout);
  if (spec.fragments() > layout.n()) {
    co_return Error{Errc::invalid_argument,
                    "coded placement needs k+m <= N servers"};
  }
  std::vector<RepairJob> jobs;
  const std::uint64_t ngroups = div_ceil(file_size, layout.group_width(spec.k));
  for (std::uint64_t g = 0; g < ngroups; ++g) {
    if (delta && !delta->intersects(
                     layout.group_start(g, spec.k),
                     std::min(layout.group_end(g, spec.k), file_size))) {
      continue;
    }
    jobs.push_back({g, spec.k, spec.fragments(),
                    group_cols(layout, spec.k, g, file_size)});
  }
  std::vector<RepairFile> files;
  files.push_back({&f, to, red_gen, std::move(jobs), {}});
  co_return co_await repair(std::move(files), {}, /*migration=*/true,
                            throttle);
}

sim::Task<Result<void>> Recovery::repair(std::vector<RepairFile> files,
                                         std::vector<std::uint32_t> down,
                                         bool migration,
                                         sim::TokenBucket* throttle) {
  // The survivor reads and replacement writes of up to kWindow jobs stream
  // concurrently, across steps and files alike, so the rebuilding node's
  // links become the bottleneck, as in a real rebuild.
  sim::Simulation& sim = client_->cluster().sim();
  Pipeline pipe(sim, std::move(down), migration, throttle);
  for (RepairFile& file : files) {
    if (pipe.error) break;
    file.pending = file.jobs.size();
    const std::uint32_t k = file.sch.code(file.f->layout).k;
    for (const RepairJob& job : file.jobs) {
      if (!co_await pipe.issue(std::uint64_t{k + job.t1 - job.t0} *
                               job.cols)) {
        break;
      }
      sim.spawn(repair_job(&pipe, &file, job));
    }
    // A file with no jobs starts its restore from here, in its own slot.
    if (file.jobs.empty() && file.overflow && co_await pipe.issue(0)) {
      sim.spawn(restore_overflow(&pipe, &file));
    }
  }
  co_await pipe.wg.wait();
  if (pipe.error) co_return pipe.first_error;
  co_return Result<void>::success();
}

sim::Task<void> Recovery::repair_job(Pipeline* p, RepairFile* file,
                                     RepairJob job) {
  const pvfs::OpenFile& f = *file->f;
  const CodeSpec spec = file->sch.code(f.layout);
  auto rebuilt = co_await reconstruct(f, file->sch, job.g, job.t0, job.t1, 0,
                                      job.cols, p->down);
  if (!rebuilt.ok()) {
    p->fail(rebuilt.error());
  } else {
    if (p->migration) {
      policy_->note_ec_encode(file->sch, std::uint64_t{spec.k} * job.cols *
                                             (job.t1 - job.t0));
    } else {
      policy_->note_ec_rebuild_decode(file->sch, spec.k, job.cols * spec.k);
    }
    std::vector<std::pair<std::uint32_t, Request>> writes;
    for (std::uint32_t t = job.t0; t < job.t1; ++t) {
      Buffer& bytes = (*rebuilt)[t - job.t0];
      writes.push_back(
          fragment_write(f, spec, file->gen, job.g, t, std::move(bytes)));
    }
    auto wrs = co_await send_all(*client_, std::move(writes));
    for (const auto& wr : wrs) {
      if (!wr.ok) {
        p->fail(Error{wr.err, "repair write", wr.server});
        break;
      }
    }
  }
  if (--file->pending == 0 && file->overflow && !p->error) {
    // The file's last job hands its slot, and its place in the wait group,
    // to the file's overflow restore.
    client_->cluster().sim().spawn(restore_overflow(p, file));
    co_return;
  }
  p->done();
}

sim::Task<void> Recovery::restore_overflow(Pipeline* p, RepairFile* file) {
  OverflowRestore& o = *file->overflow;
  if (!o.invals.empty()) {
    auto ivr = co_await client_->rpc_batch(o.failed, std::move(o.invals));
    for (const auto& r : ivr) {
      if (!r.ok) {
        p->fail(Error{r.err, "rebuild overflow invalidate", r.server});
        break;
      }
    }
  }
  // Both sides go through one windowed copier (see kOverflowWindow): the
  // survivor-side tables can be huge (unaligned collective writes overflow
  // nearly every request).
  for (const bool mirror : {false, true}) {
    if (p->error) break;
    auto r = co_await copy_overflow(*client_, *file->f, o.failed, mirror,
                                    o.size, o.filter, p->throttle,
                                    p->window_reads);
    if (!r.ok()) p->fail(r.error());
  }
  p->done();
}

}  // namespace csar::raid
