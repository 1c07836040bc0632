#include "raid/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>
#include <vector>

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

/// Server holding fragment `frag` of rs group g (data fragments [0,k),
/// coding fragments [k, k+m)).
std::uint32_t rs_fragment_server(const StripeLayout& lay, std::uint32_t k,
                                 std::uint64_t g, std::uint32_t frag) {
  return frag < k ? lay.rs_data_server(g, k, frag)
                  : lay.rs_coding_server(g, k, frag - k);
}

/// Read request for columns [c0, c0+len) of fragment `frag` of rs group g:
/// raw data-file read for data fragments, redundancy-file read at the
/// group's slot for coding fragments.
Request rs_fragment_read(const pvfs::OpenFile& f, const StripeLayout& lay,
                         std::uint32_t k, std::uint32_t gen, std::uint64_t g,
                         std::uint32_t frag, std::uint64_t c0,
                         std::uint64_t len) {
  Request r;
  r.handle = f.handle;
  r.len = len;
  r.su = lay.stripe_unit;
  if (frag < k) {
    r.op = Op::read_data_raw;
    r.off = lay.local_unit(g * k + frag) * lay.su() + c0;
  } else {
    r.op = Op::read_red;
    r.off = lay.rs_coding_local_off(g) + c0;
    r.red_gen = gen;
  }
  return r;
}
}  // namespace

sim::Task<Result<Buffer>> Recovery::reconstruct_base(const pvfs::OpenFile& f,
                                                     std::uint32_t failed,
                                                     std::uint64_t global_off,
                                                     std::uint64_t len) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint64_t u_failed = layout.unit_of(global_off);
  assert(layout.server_of_unit(u_failed) == failed);
  assert(layout.unit_of(global_off + len - 1) == u_failed &&
         "piece must lie within one stripe unit");
  const std::uint64_t g = layout.group_of_unit(u_failed);
  const std::uint64_t c0 = global_off % su;

  std::vector<std::pair<std::uint32_t, Request>> reads;
  {
    Request r;
    r.op = Op::read_red;
    r.handle = f.handle;
    r.off = layout.parity_local_off(g) + c0;
    r.len = len;
    r.lock = false;
    r.su = layout.stripe_unit;
    r.red_gen = red_gen_of(f);
    reads.emplace_back(layout.parity_server(g), std::move(r));
  }
  for (std::uint64_t u = g * (layout.n() - 1); u < (g + 1) * (layout.n() - 1);
       ++u) {
    if (u == u_failed) continue;
    Request r;
    r.op = Op::read_data_raw;
    r.handle = f.handle;
    r.off = layout.local_unit(u) * su + c0;
    r.len = len;
    reads.emplace_back(layout.server_of_unit(u), std::move(r));
  }
  auto resps = co_await client_->rpc_all(std::move(reads));
  Buffer out;
  bool first = true;
  for (auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "reconstruct_base"};
    if (first) {
      out = std::move(resp.data);
      first = false;
    } else if (out.materialized() == resp.data.materialized()) {
      out.xor_with(resp.data);
    } else {
      out = Buffer::phantom(len);
    }
  }
  // Charge the client for the reconstruction XOR.
  auto& node = client_->cluster().node(client_->node_id());
  co_await node.mem().occupy(sim::transfer_time(
      len * resps.size(), node.params().xor_bytes_per_sec));
  co_return out;
}

sim::Task<Result<Buffer>> Recovery::reconstruct_piece(const pvfs::OpenFile& f,
                                                      std::uint32_t failed,
                                                      std::uint64_t global_off,
                                                      std::uint64_t len) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t successor = (failed + 1) % layout.n();
  const std::uint64_t local = layout.local_off(global_off);
  const Scheme sch = scheme_of(f);
  if (sch == Scheme::raid0) {
    co_return Error{Errc::server_failed, "RAID0 cannot reconstruct"};
  }
  Buffer out;
  if (sch == Scheme::raid1) {
    // The mirror of the failed server's blocks lives at the same local
    // offsets in the successor's redundancy file.
    Request r;
    r.op = Op::read_red;
    r.handle = f.handle;
    r.off = local;
    r.len = len;
    r.su = layout.stripe_unit;
    r.red_gen = red_gen_of(f);
    auto resp = co_await client_->rpc(successor, std::move(r));
    if (!resp.ok) co_return Error{resp.err, "raid1 mirror read"};
    out = std::move(resp.data);
  } else {
    auto base = co_await reconstruct_base(f, failed, global_off, len);
    if (!base.ok()) co_return base;
    out = std::move(base.value());
  }
  // Overlay the newest partial-stripe data from the mirrored overflow
  // copies on the successor. This applies beyond Scheme::hybrid: a file
  // migrated away from Hybrid keeps its overflow overlay live (the new
  // base redundancy covers the raw data files only), so its reconstruction
  // needs the same overlay. Never-Hybrid files skip the extra read.
  if (overlay_overflow(f)) {
    Request r;
    r.op = Op::read_mirror;
    r.handle = f.handle;
    r.off = local;
    r.len = len;
    r.owner = failed;
    auto resp = co_await client_->rpc(successor, std::move(r));
    if (!resp.ok) co_return Error{resp.err, "mirror overflow read"};
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

sim::Task<Result<Buffer>> Recovery::reconstruct_rs(
    const pvfs::OpenFile& f, Scheme sch, std::uint64_t g, std::uint32_t target,
    std::uint64_t c0, std::uint64_t len, const std::vector<std::uint32_t>& down,
    bool for_rebuild) {
  const StripeLayout& layout = f.layout;
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t gen = red_gen_of(f);
  // The minimal k-subset, deterministically: data fragments first (their
  // reads spread over the group's own servers and most coefficients are
  // cheap), then coding fragments, both ascending. Exactly k fragments are
  // fetched — never more — which is the degraded-read cost the A14 ablation
  // measures.
  std::vector<std::uint32_t> present;
  for (std::uint32_t frag = 0;
       frag < spec.fragments() && present.size() < k; ++frag) {
    if (frag == target) continue;  // the fragment being (re)built
    if (contains(down, rs_fragment_server(layout, k, g, frag))) continue;
    present.push_back(frag);
  }
  if (present.size() < k) {
    co_return Error{Errc::server_failed, "rs: fewer than k live fragments"};
  }
  const auto coeffs = rs_reconstruct_coeffs(spec, present, target);
  std::vector<std::pair<std::uint32_t, Request>> reads;
  reads.reserve(k);
  for (const std::uint32_t frag : present) {
    reads.emplace_back(rs_fragment_server(layout, k, g, frag),
                       rs_fragment_read(f, layout, k, gen, g, frag, c0, len));
  }
  auto resps = co_await client_->rpc_all(std::move(reads));
  bool phantom = false;
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "rs fragment read", resp.server};
    if (!resp.data.materialized()) phantom = true;
  }
  Buffer out = phantom ? Buffer::phantom(len) : Buffer::for_overwrite(len);
  if (!phantom) {
    // The first fragment's product initializes every output byte.
    auto dst = out.mutable_bytes();
    for (std::size_t r = 0; r < resps.size(); ++r) {
      assert(resps[r].data.size() == len);
      if (r == 0) {
        gf_mul_region(dst, resps[r].data, coeffs[r]);
      } else {
        gf_muladd_region(dst, resps[r].data, coeffs[r]);
      }
    }
  }
  // Decode cost: k fragment-sized inputs through the GF kernel on the
  // recovering client (same memory-pipeline charge as reconstruct_base).
  auto& node = client_->cluster().node(client_->node_id());
  co_await node.mem().occupy(
      sim::transfer_time(len * k, node.params().xor_bytes_per_sec));
  if (policy_ != nullptr) {
    if (for_rebuild) {
      policy_->note_ec_rebuild_decode(k, len * k);
    } else {
      policy_->note_ec_degraded_read(k, len * k);
    }
  }
  co_return out;
}

sim::Task<Result<Buffer>> Recovery::reconstruct_rs_piece(
    const pvfs::OpenFile& f, Scheme sch, const std::vector<std::uint32_t>& down,
    std::uint64_t global_off, std::uint64_t len) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint64_t u = layout.unit_of(global_off);
  assert(layout.unit_of(global_off + len - 1) == u &&
         "piece must lie within one stripe unit");
  const std::uint32_t k = sch.k;
  const std::uint64_t g = layout.rs_group_of_unit(u, k);
  auto base = co_await reconstruct_rs(f, sch, g,
                                      static_cast<std::uint32_t>(u % k),
                                      global_off % su, len, down,
                                      /*for_rebuild=*/false);
  if (!base.ok()) co_return base;
  Buffer out = std::move(base.value());
  if (overlay_overflow(f)) {
    // A file migrated onto rs from Hybrid keeps its overflow overlay live;
    // the mirror copies on the owner's successor are the only ones left
    // while the owner is down.
    const std::uint32_t owner = layout.server_of_unit(u);
    const std::uint32_t successor = (owner + 1) % layout.n();
    if (contains(down, successor)) {
      co_return Error{Errc::server_failed,
                      "rs overlay: owner and successor both down"};
    }
    const std::uint64_t local = layout.local_off(global_off);
    Request r;
    r.op = Op::read_mirror;
    r.handle = f.handle;
    r.off = local;
    r.len = len;
    r.owner = owner;
    auto resp = co_await client_->rpc(successor, std::move(r));
    if (!resp.ok) co_return Error{resp.err, "mirror overflow read"};
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

sim::Task<Result<Buffer>> Recovery::degraded_read(const pvfs::OpenFile& f,
                                                  std::uint64_t off,
                                                  std::uint64_t len,
                                                  std::uint32_t failed) {
  if (const Scheme sch = scheme_of(f); sch.kind == SchemeKind::rs) {
    std::vector<std::uint32_t> down;
    down.push_back(failed);
    co_return co_await degraded_read_rs(f, sch, off, len, std::move(down));
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
        [](Recovery* self, const pvfs::OpenFile* file,
           StripeLayout::Extent ext, std::uint32_t fsrv, Buffer* sink,
           bool* phant, bool* err, Error* ferr) -> sim::Task<void> {
          Result<Buffer> piece = Buffer::real(0);
          if (ext.server == fsrv) {
            piece = co_await self->reconstruct_piece(*file, fsrv,
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
                            : Result<Buffer>(Error{resp.err, "read"});
          }
          if (!piece.ok()) {
            if (!*err) *ferr = piece.error();
            *err = true;
            co_return;
          }
          assert(piece.value().size() == ext.len);
          if (!piece.value().materialized()) *phant = true;
          *sink = std::move(piece.value());
        }(this, &f, extents[i], failed, &pieces[i], &phantom, &error,
          &first_error));
  }
  co_await sim::when_all(client_->cluster().sim(), std::move(tasks));
  if (error) co_return first_error;
  if (phantom) co_return Buffer::phantom(len);
  co_return Buffer::concat(pieces);
}

sim::Task<Result<Buffer>> Recovery::degraded_read(
    const pvfs::OpenFile& f, std::uint64_t off, std::uint64_t len,
    std::vector<std::uint32_t> failed) {
  if (failed.empty()) co_return co_await client_->read(f, off, len);
  const Scheme sch = scheme_of(f);
  if (sch.kind == SchemeKind::rs) {
    co_return co_await degraded_read_rs(f, sch, off, len, std::move(failed));
  }
  if (failed.size() == 1) {
    co_return co_await degraded_read(f, off, len, failed.front());
  }
  co_return Error{Errc::server_failed,
                  "multiple concurrent failures exceed the scheme's "
                  "redundancy"};
}

sim::Task<Result<Buffer>> Recovery::degraded_read_rs(
    const pvfs::OpenFile& f, Scheme sch, std::uint64_t off, std::uint64_t len,
    std::vector<std::uint32_t> failed) {
  if (len == 0) co_return Buffer::real(0);
  if (failed.size() > sch.m) {
    co_return Error{Errc::server_failed,
                    "rs: more concurrent failures than coding fragments"};
  }
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
            piece = co_await self->reconstruct_rs_piece(
                *file, sch, *down, ext.global_off, ext.len);
          } else {
            Request r;
            r.op = Op::read_data;
            r.handle = file->handle;
            r.off = ext.local_off;
            r.len = ext.len;
            r.su = file->layout.stripe_unit;
            auto resp = co_await self->client_->rpc(ext.server, std::move(r));
            piece = resp.ok ? Result<Buffer>(std::move(resp.data))
                            : Result<Buffer>(Error{resp.err, "read"});
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

namespace {

/// A partial-stripe segment [start, end) of a degraded write.
struct Seg {
  std::uint64_t start;
  std::uint64_t end;
};

/// Overlay the new bytes of `seg` (taken from `data`, which starts at file
/// offset `off`) that fall into stripe unit `u` onto `after`, a buffer
/// holding that unit's columns starting at column `c0`.
void overlay_new(const StripeLayout& layout, std::uint64_t off,
                 const Buffer& data, const Seg& seg, std::uint64_t u,
                 std::uint64_t c0, Buffer& after) {
  for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
    if (layout.unit_of(e.global_off) != u) continue;
    after.write_at(e.global_off % layout.su() - c0,
                   data.slice(e.global_off - off, e.len));
  }
}

}  // namespace

sim::Task<Result<void>> Recovery::degraded_write(const pvfs::OpenFile& f,
                                                 std::uint64_t off,
                                                 Buffer data,
                                                 std::uint32_t failed) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t su = layout.su();
  const std::uint64_t len = data.size();
  if (len == 0) co_return Result<void>::success();
  const Scheme sch = scheme_of(f);
  if (sch.kind == SchemeKind::rs) {
    std::vector<std::uint32_t> down;
    down.push_back(failed);
    co_return co_await degraded_write_rs(f, sch, off, std::move(data),
                                         std::move(down));
  }
  const std::uint32_t gen = red_gen_of(f);

  if (sch == Scheme::raid0) {
    for (const auto& e : layout.decompose(off, len)) {
      if (e.server == failed) {
        co_return Error{Errc::server_failed, "RAID0 degraded write"};
      }
    }
    co_return co_await client_->write_striped(f, off, data);
  }

  if (sch == Scheme::raid1) {
    // Update whichever of the two copies is alive; the rebuild restores the
    // other from it. The overflow invalidations are free no-ops for pure
    // RAID1 files and keep an ex-Hybrid file's overlay from shadowing these
    // in-place bytes.
    std::vector<std::pair<std::uint32_t, Request>> reqs;
    for (const auto& e : layout.decompose_merged(off, len)) {
      Buffer payload =
          pvfs::Client::gather_for_server(layout, off, data, e.server);
      if (e.server != failed) {
        Request w;
        w.op = Op::write_data;
        w.handle = f.handle;
        w.off = e.local_off;
        w.payload = payload.slice(0, payload.size());
        w.su = layout.stripe_unit;
        w.inval_own = Interval{e.local_off, e.local_off + e.len};
        reqs.emplace_back(e.server, std::move(w));
      }
      const std::uint32_t mirror = (e.server + 1) % n;
      if (mirror != failed) {
        Request m;
        m.op = Op::write_red;
        m.handle = f.handle;
        m.off = e.local_off;
        m.payload = std::move(payload);
        m.su = layout.stripe_unit;
        m.red_gen = gen;
        m.inval_mirror = Interval{e.local_off, e.local_off + e.len};
        reqs.emplace_back(mirror, std::move(m));
      }
    }
    auto resps = co_await client_->rpc_all(std::move(reqs));
    for (const auto& resp : resps) {
      if (!resp.ok) co_return Error{resp.err, "raid1 degraded write"};
    }
    co_return Result<void>::success();
  }

  // Parity schemes (RAID5 variants and the Hybrid full-stripe path share
  // the same degraded logic; Hybrid's partial path differs below). `inval`
  // extends the overflow invalidations Hybrid needs to ex-Hybrid files
  // migrated onto an in-place parity scheme; never-Hybrid files skip them.
  const auto ws = layout.split_write(off, len);
  const bool hybrid = sch == Scheme::hybrid;
  const bool inval = overlay_overflow(f);
  std::vector<std::pair<std::uint32_t, Request>> writes;

  // --- full groups: compute fresh parity; the failed data unit's content
  //     is representable only through the parity, so the parity write is
  //     what makes the write durable. ---
  if (ws.full_end > ws.full_start) {
    for (std::uint64_t g = ws.full_start / layout.stripe_width();
         g < ws.full_end / layout.stripe_width(); ++g) {
      const std::uint32_t ps = layout.parity_server(g);
      if (ps != failed) {
        // A view of the first unit; the first XOR fuses its copy-on-write.
        Buffer parity = data.slice(layout.group_start(g) - off, su);
        for (std::uint64_t pos = layout.group_start(g) + su;
             pos < layout.group_end(g); pos += su) {
          parity.xor_with(data.slice(pos - off, su));
        }
        Request w;
        w.op = Op::write_red;
        w.handle = f.handle;
        w.off = layout.parity_local_off(g);
        w.payload = std::move(parity);
        w.su = layout.stripe_unit;
        w.red_gen = gen;
        if (inval) {
          // The parity server holds no data unit of g, but it may hold
          // mirror overflow entries for its predecessor's unit (crucially,
          // when the predecessor is the *failed* server whose new content
          // now lives only in this parity): invalidate them here, exactly
          // as the normal write path does.
          const std::uint32_t prev = (ps + n - 1) % n;
          for (std::uint64_t v = g * (n - 1); v < (g + 1) * (n - 1); ++v) {
            if (layout.server_of_unit(v) == prev) {
              w.inval_mirror = {layout.local_unit(v) * su,
                                layout.local_unit(v) * su + su};
            }
          }
        }
        writes.emplace_back(ps, std::move(w));
      }
      for (std::uint64_t u = g * (n - 1); u < (g + 1) * (n - 1); ++u) {
        const std::uint32_t s = layout.server_of_unit(u);
        if (s == failed) continue;
        Request w;
        w.op = Op::write_data;
        w.handle = f.handle;
        w.off = layout.local_unit(u) * su;
        w.payload = data.slice(u * su - off, su);
        w.su = layout.stripe_unit;
        if (inval) {
          w.inval_own = {w.off, w.off + su};
          // Mirror entries this server holds for its (possibly failed)
          // predecessor within the same group.
          const std::uint32_t prev = (s + n - 1) % n;
          for (std::uint64_t v = g * (n - 1); v < (g + 1) * (n - 1); ++v) {
            if (layout.server_of_unit(v) == prev) {
              w.inval_mirror = {layout.local_unit(v) * su,
                                layout.local_unit(v) * su + su};
            }
          }
        }
        writes.emplace_back(s, std::move(w));
      }
    }
  }

  // --- partial segments (ascending group order, as in §5.1) ---
  std::vector<Seg> segs;
  if (ws.head_end > ws.head_start) segs.push_back({ws.head_start, ws.head_end});
  if (ws.tail_end > ws.tail_start) segs.push_back({ws.tail_start, ws.tail_end});

  if (hybrid) {
    // Partial stripes: primary + mirror overflow copies; write whichever of
    // the pair is alive.
    for (const auto& seg : segs) {
      for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
        Buffer piece = data.slice(e.global_off - off, e.len);
        if (e.server != failed) {
          Request primary;
          primary.op = Op::write_overflow;
          primary.handle = f.handle;
          primary.off = e.local_off;
          primary.payload = piece.slice(0, piece.size());
          primary.owner = e.server;
          primary.su = layout.stripe_unit;
          writes.emplace_back(e.server, std::move(primary));
        }
        const std::uint32_t mirror_srv = (e.server + 1) % n;
        if (mirror_srv != failed) {
          Request mirror;
          mirror.op = Op::write_overflow;
          mirror.handle = f.handle;
          mirror.off = e.local_off;
          mirror.payload = std::move(piece);
          mirror.owner = e.server;
          mirror.mirror = true;
          mirror.su = layout.stripe_unit;
          writes.emplace_back(mirror_srv, std::move(mirror));
        }
      }
    }
  } else {
    // RAID5: degraded partial stripes use reconstruct-write — read the old
    // parity (locked) plus every surviving unit's columns, rebuild the lost
    // unit's old content, overlay the new data, and recompute the parity
    // outright.
    const bool locking = sch != Scheme::raid5_nolock;
    for (const auto& seg : segs) {
      const std::uint64_t g = layout.group_of_off(seg.start);
      const std::uint32_t ps = layout.parity_server(g);
      // Column range: the whole span touched within the group.
      std::uint64_t c0 = su;
      std::uint64_t c1 = 0;
      for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
        c0 = std::min(c0, e.global_off % su);
        c1 = std::max(c1, e.global_off % su + e.len);
      }

      if (ps == failed) {
        // Parity lost: just update the surviving data (the rebuild will
        // recompute the parity from it). A write to a lost *data* unit in
        // this group would be unrecordable — report it.
        for (const auto& e :
             layout.decompose(seg.start, seg.end - seg.start)) {
          if (e.server == failed) {
            co_return Error{Errc::server_failed,
                            "degraded write to lost unit with lost parity"};
          }
          Request w;
          w.op = Op::write_data;
          w.handle = f.handle;
          w.off = e.local_off;
          w.payload = data.slice(e.global_off - off, e.len);
          w.su = layout.stripe_unit;
          if (inval) {
            w.inval_own = Interval{e.local_off, e.local_off + e.len};
            const std::uint32_t ms = (e.server + 1) % n;
            if (ms != failed) {
              Request iv;
              iv.op = Op::write_data;
              iv.handle = f.handle;
              iv.off = e.local_off;
              iv.su = layout.stripe_unit;
              iv.inval_mirror = Interval{e.local_off, e.local_off + e.len};
              writes.emplace_back(ms, std::move(iv));
            }
          }
          writes.emplace_back(e.server, std::move(w));
        }
        continue;
      }

      // Read parity (locked) and all surviving units over [c0, c1).
      const std::uint64_t rmw_token =
          locking ? client_->next_rmw_token() : 0;
      Request pr;
      pr.op = Op::read_red;
      pr.handle = f.handle;
      pr.off = layout.parity_local_off(g) + c0;
      pr.len = c1 - c0;
      pr.lock = locking;
      pr.rmw_token = rmw_token;
      pr.su = layout.stripe_unit;
      pr.red_gen = gen;
      auto presp = co_await client_->rpc(ps, std::move(pr));
      if (!presp.ok) co_return Error{presp.err, "degraded parity read"};

      std::vector<std::pair<std::uint32_t, Request>> reads;
      std::vector<std::uint64_t> read_units;
      for (std::uint64_t u = g * (n - 1); u < (g + 1) * (n - 1); ++u) {
        if (layout.server_of_unit(u) == failed) continue;
        Request r;
        r.op = Op::read_data_raw;
        r.handle = f.handle;
        r.off = layout.local_unit(u) * su + c0;
        r.len = c1 - c0;
        reads.emplace_back(layout.server_of_unit(u), std::move(r));
        read_units.push_back(u);
      }
      auto old = co_await client_->rpc_all(std::move(reads));
      for (const auto& resp : old) {
        if (!resp.ok) {
          // Abandoning the RMW with the parity lock held: release it
          // explicitly (owner-checked, writes nothing) so the group is not
          // wedged until the lease reaper fires.
          if (locking) {
            Request ur;
            ur.op = Op::unlock_red;
            ur.handle = f.handle;
            ur.off = layout.parity_local_off(g) + c0;
            ur.rmw_token = rmw_token;
            ur.su = layout.stripe_unit;
            ur.red_gen = gen;
            (void)co_await client_->rpc(ps, std::move(ur));
          }
          co_return Error{resp.err, "degraded old-data read"};
        }
      }

      Buffer parity;
      if (data.materialized()) {
        // Reconstruct the lost unit's old columns, then rebuild parity as
        // the XOR of every unit's *after* content.
        Buffer lost_old = Buffer::real(c1 - c0);
        lost_old.xor_with(presp.data);
        for (const auto& resp : old) lost_old.xor_with(resp.data);
        parity = Buffer::real(c1 - c0);
        for (std::size_t i = 0; i < old.size(); ++i) {
          Buffer after = old[i].data.slice(0, c1 - c0);
          overlay_new(layout, off, data, seg, read_units[i], c0, after);
          parity.xor_with(after);
        }
        // The failed unit's after-content.
        const std::uint64_t u_failed = [&]() -> std::uint64_t {
          for (std::uint64_t u = g * (n - 1); u < (g + 1) * (n - 1); ++u) {
            if (layout.server_of_unit(u) == failed) return u;
          }
          return ~0ULL;
        }();
        if (u_failed != ~0ULL) {
          Buffer after = std::move(lost_old);
          overlay_new(layout, off, data, seg, u_failed, c0, after);
          parity.xor_with(after);
        }
      } else {
        parity = Buffer::phantom(c1 - c0);
      }
      auto& node = client_->cluster().node(client_->node_id());
      co_await node.tx().occupy(sim::transfer_time(
          (c1 - c0) * n, node.params().xor_bytes_per_sec));

      Request pw;
      pw.op = Op::write_red;
      pw.handle = f.handle;
      pw.off = layout.parity_local_off(g) + c0;
      pw.payload = std::move(parity);
      pw.unlock = locking;
      pw.rmw_token = rmw_token;
      pw.su = layout.stripe_unit;
      pw.red_gen = gen;
      writes.emplace_back(ps, std::move(pw));

      for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
        if (e.server == failed) continue;
        Request w;
        w.op = Op::write_data;
        w.handle = f.handle;
        w.off = e.local_off;
        w.payload = data.slice(e.global_off - off, e.len);
        w.su = layout.stripe_unit;
        if (inval) {
          w.inval_own = Interval{e.local_off, e.local_off + e.len};
          const std::uint32_t ms = (e.server + 1) % n;
          if (ms != failed) {
            Request iv;
            iv.op = Op::write_data;
            iv.handle = f.handle;
            iv.off = e.local_off;
            iv.su = layout.stripe_unit;
            iv.inval_mirror = Interval{e.local_off, e.local_off + e.len};
            writes.emplace_back(ms, std::move(iv));
          }
        }
        writes.emplace_back(e.server, std::move(w));
      }
    }
  }

  auto resps = co_await client_->rpc_all(std::move(writes));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "degraded write"};
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Recovery::degraded_write(
    const pvfs::OpenFile& f, std::uint64_t off, Buffer data,
    std::vector<std::uint32_t> failed) {
  if (failed.empty()) {
    co_return Error{Errc::invalid_argument, "degraded write with no failure"};
  }
  const Scheme sch = scheme_of(f);
  if (sch.kind == SchemeKind::rs) {
    co_return co_await degraded_write_rs(f, sch, off, std::move(data),
                                         std::move(failed));
  }
  if (failed.size() == 1) {
    co_return co_await degraded_write(f, off, std::move(data),
                                      failed.front());
  }
  co_return Error{Errc::server_failed,
                  "multiple concurrent failures exceed the scheme's "
                  "redundancy"};
}

sim::Task<Result<void>> Recovery::degraded_write_rs(
    const pvfs::OpenFile& f, Scheme sch, std::uint64_t off, Buffer data,
    std::vector<std::uint32_t> failed) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t su = layout.su();
  const std::uint64_t len = data.size();
  if (len == 0) co_return Result<void>::success();
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t m = spec.m;
  if (failed.size() > m) {
    co_return Error{Errc::server_failed,
                    "rs: more concurrent failures than coding fragments"};
  }
  const std::uint32_t gen = red_gen_of(f);
  const bool inval = overlay_overflow(f);
  const bool mat = data.materialized();
  const std::uint64_t W = layout.rs_group_width(k);
  const auto ws = layout.split_write_w(off, len, W);
  std::vector<std::pair<std::uint32_t, Request>> writes;
  std::uint64_t gf_bytes = 0;

  // Mirror-overflow invalidation interval a write on server `s` owes for its
  // predecessor's unit within group g (ex-Hybrid files only) — same logic as
  // the parity schemes' degraded path.
  auto mirror_inval = [&](std::uint64_t g, std::uint32_t s,
                          Request& w) {
    const std::uint32_t prev = (s + n - 1) % n;
    for (std::uint64_t v = g * k; v < (g + 1) * k; ++v) {
      if (layout.server_of_unit(v) == prev) {
        w.inval_mirror = {layout.local_unit(v) * su,
                          layout.local_unit(v) * su + su};
      }
    }
  };

  // --- full groups: fresh coding fragments to every live coding server;
  //     data in place on the live data servers. A lost fragment's content
  //     stays representable through the survivors (at most m are down). ---
  if (ws.full_end > ws.full_start) {
    for (std::uint64_t g = ws.full_start / W; g < ws.full_end / W; ++g) {
      for (std::uint32_t j = 0; j < m; ++j) {
        const std::uint32_t cs = layout.rs_coding_server(g, k, j);
        if (contains(failed, cs)) continue;
        Buffer coding = mat ? Buffer::real(su) : Buffer::phantom(su);
        if (mat) {
          auto dst = coding.mutable_bytes();
          for (std::uint32_t i = 0; i < k; ++i) {
            const std::uint64_t pos =
                layout.rs_group_start(g, k) + std::uint64_t{i} * su;
            gf_muladd_region(dst, data.slice(pos - off, su),
                             rs_coeff(spec, j, i));
          }
        }
        gf_bytes += std::uint64_t{k} * su;
        Request w;
        w.op = Op::write_red;
        w.handle = f.handle;
        w.off = layout.rs_coding_local_off(g);
        w.payload = std::move(coding);
        w.su = layout.stripe_unit;
        w.red_gen = gen;
        if (inval) mirror_inval(g, cs, w);
        writes.emplace_back(cs, std::move(w));
      }
      for (std::uint64_t u = g * k; u < (g + 1) * k; ++u) {
        const std::uint32_t s = layout.server_of_unit(u);
        if (contains(failed, s)) continue;
        Request w;
        w.op = Op::write_data;
        w.handle = f.handle;
        w.off = layout.local_unit(u) * su;
        w.payload = data.slice(u * su - off, su);
        w.su = layout.stripe_unit;
        if (inval) {
          w.inval_own = {w.off, w.off + su};
          mirror_inval(g, s, w);
        }
        writes.emplace_back(s, std::move(w));
      }
    }
  }

  // --- partial segments (ascending group order): reconstruct-write. Lock
  //     and read every live coding fragment of the group, read the live
  //     data units' old columns, decode any lost unit's old content from k
  //     live fragments, overlay the new bytes, and re-encode every live
  //     coding fragment outright. ---
  std::vector<Seg> segs;
  if (ws.head_end > ws.head_start) segs.push_back({ws.head_start, ws.head_end});
  if (ws.tail_end > ws.tail_start) segs.push_back({ws.tail_start, ws.tail_end});

  for (const auto& seg : segs) {
    const std::uint64_t g = layout.rs_group_of_off(seg.start, k);
    std::vector<std::uint32_t> live_j;
    for (std::uint32_t j = 0; j < m; ++j) {
      if (!contains(failed, layout.rs_coding_server(g, k, j))) {
        live_j.push_back(j);
      }
    }
    // Column range: the whole span touched within the group.
    std::uint64_t c0 = su;
    std::uint64_t c1 = 0;
    bool lost_touched = false;
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      c0 = std::min(c0, e.global_off % su);
      c1 = std::max(c1, e.global_off % su + e.len);
      if (contains(failed, e.server)) lost_touched = true;
    }

    if (live_j.empty()) {
      // Every coding fragment of this group is down (all failures sit on
      // its coding servers, so all data servers are live): update the data
      // in place; the rebuild recomputes the coding. A write to a lost data
      // unit would be unrecordable — but none can be lost here.
      if (lost_touched) {
        co_return Error{Errc::server_failed,
                        "rs degraded write with no live coding fragment"};
      }
      for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
        Request w;
        w.op = Op::write_data;
        w.handle = f.handle;
        w.off = e.local_off;
        w.payload = data.slice(e.global_off - off, e.len);
        w.su = layout.stripe_unit;
        if (inval) {
          w.inval_own = Interval{e.local_off, e.local_off + e.len};
          const std::uint32_t ms = (e.server + 1) % n;
          if (!contains(failed, ms)) {
            Request iv;
            iv.op = Op::write_data;
            iv.handle = f.handle;
            iv.off = e.local_off;
            iv.su = layout.stripe_unit;
            iv.inval_mirror = Interval{e.local_off, e.local_off + e.len};
            writes.emplace_back(ms, std::move(iv));
          }
        }
        writes.emplace_back(e.server, std::move(w));
      }
      continue;
    }

    // Locked coding reads, ascending j — the §5.1 ordered-acquisition rule
    // generalized: within a group the coding servers are visited in
    // fragment order, and segments arrive in ascending group order.
    const std::uint64_t rmw_token = client_->next_rmw_token();
    std::vector<Buffer> coding_old(live_j.size());
    auto release_locks = [&](std::size_t upto) -> sim::Task<void> {
      std::vector<std::pair<std::uint32_t, Request>> rel;
      for (std::size_t x = 0; x < upto; ++x) {
        Request u;
        u.op = Op::unlock_red;
        u.handle = f.handle;
        u.off = layout.rs_coding_local_off(g) + c0;
        u.rmw_token = rmw_token;
        u.su = layout.stripe_unit;
        u.red_gen = gen;
        rel.emplace_back(layout.rs_coding_server(g, k, live_j[x]),
                         std::move(u));
      }
      (void)co_await client_->rpc_all(std::move(rel));
    };
    bool lock_failed = false;
    Errc lock_errc = Errc::ok;
    for (std::size_t idx = 0; idx < live_j.size(); ++idx) {
      Request pr;
      pr.op = Op::read_red;
      pr.handle = f.handle;
      pr.off = layout.rs_coding_local_off(g) + c0;
      pr.len = c1 - c0;
      pr.lock = true;
      pr.rmw_token = rmw_token;
      pr.su = layout.stripe_unit;
      pr.red_gen = gen;
      auto presp = co_await client_->rpc(
          layout.rs_coding_server(g, k, live_j[idx]), std::move(pr));
      if (!presp.ok) {
        // Release what we hold (including this one: the envelope may have
        // taken the lock server-side before failing).
        co_await release_locks(idx + 1);
        lock_failed = true;
        lock_errc = presp.err;
        break;
      }
      coding_old[idx] = std::move(presp.data);
    }
    if (lock_failed) {
      co_return Error{lock_errc, "rs degraded coding read"};
    }

    // Old columns of every live data unit.
    std::vector<std::pair<std::uint32_t, Request>> reads;
    std::vector<std::uint32_t> read_frags;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t u = g * k + i;
      if (contains(failed, layout.server_of_unit(u))) continue;
      Request r;
      r.op = Op::read_data_raw;
      r.handle = f.handle;
      r.off = layout.local_unit(u) * su + c0;
      r.len = c1 - c0;
      reads.emplace_back(layout.server_of_unit(u), std::move(r));
      read_frags.push_back(i);
    }
    auto old = co_await client_->rpc_all(std::move(reads));
    for (const auto& resp : old) {
      if (!resp.ok) {
        co_await release_locks(live_j.size());
        co_return Error{resp.err, "rs degraded old-data read"};
      }
    }

    std::vector<Buffer> coding_new(live_j.size());
    if (mat) {
      // After-content of every data fragment: live ones straight from the
      // reads, lost ones decoded from k live fragments; then overlay the
      // segment's new bytes.
      std::vector<Buffer> after(k);
      for (std::size_t r = 0; r < read_frags.size(); ++r) {
        after[read_frags[r]] = old[r].data.slice(0, c1 - c0);
      }
      std::vector<std::uint32_t> present;
      for (const std::uint32_t i : read_frags) present.push_back(i);
      for (std::size_t x = 0; x < live_j.size() && present.size() < k; ++x) {
        present.push_back(k + live_j[x]);
      }
      for (std::uint32_t i = 0; i < k; ++i) {
        if (!after[i].empty()) continue;  // live fragment, already read
        const auto coeffs = rs_reconstruct_coeffs(spec, present, i);
        Buffer lost_old = Buffer::real(c1 - c0);
        auto dst = lost_old.mutable_bytes();
        for (std::size_t r = 0; r < present.size(); ++r) {
          const std::uint32_t frag = present[r];
          const Buffer& src =
              frag < k ? after[frag]
                       : coding_old[std::find(live_j.begin(), live_j.end(),
                                              frag - k) -
                                    live_j.begin()];
          gf_muladd_region(dst, src, coeffs[r]);
        }
        gf_bytes += std::uint64_t{k} * (c1 - c0);
        after[i] = std::move(lost_old);
      }
      for (std::uint32_t i = 0; i < k; ++i) {
        overlay_new(layout, off, data, seg, g * k + i, c0, after[i]);
      }
      for (std::size_t x = 0; x < live_j.size(); ++x) {
        coding_new[x] = Buffer::real(c1 - c0);
        auto dst = coding_new[x].mutable_bytes();
        for (std::uint32_t i = 0; i < k; ++i) {
          gf_muladd_region(dst, after[i],
                           rs_coeff(spec, live_j[x], i));
        }
        gf_bytes += std::uint64_t{k} * (c1 - c0);
      }
    } else {
      for (auto& c : coding_new) c = Buffer::phantom(c1 - c0);
    }
    auto& node = client_->cluster().node(client_->node_id());
    co_await node.tx().occupy(sim::transfer_time(
        (c1 - c0) * (k + m), node.params().xor_bytes_per_sec));

    for (std::size_t x = 0; x < live_j.size(); ++x) {
      Request pw;
      pw.op = Op::write_red;
      pw.handle = f.handle;
      pw.off = layout.rs_coding_local_off(g) + c0;
      pw.payload = std::move(coding_new[x]);
      pw.unlock = true;
      pw.rmw_token = rmw_token;
      pw.su = layout.stripe_unit;
      pw.red_gen = gen;
      writes.emplace_back(layout.rs_coding_server(g, k, live_j[x]),
                          std::move(pw));
    }
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      if (contains(failed, e.server)) continue;
      Request w;
      w.op = Op::write_data;
      w.handle = f.handle;
      w.off = e.local_off;
      w.payload = data.slice(e.global_off - off, e.len);
      w.su = layout.stripe_unit;
      if (inval) {
        w.inval_own = Interval{e.local_off, e.local_off + e.len};
        const std::uint32_t ms = (e.server + 1) % n;
        if (!contains(failed, ms)) {
          Request iv;
          iv.op = Op::write_data;
          iv.handle = f.handle;
          iv.off = e.local_off;
          iv.su = layout.stripe_unit;
          iv.inval_mirror = Interval{e.local_off, e.local_off + e.len};
          writes.emplace_back(ms, std::move(iv));
        }
      }
      writes.emplace_back(e.server, std::move(w));
    }
  }

  if (policy_ != nullptr && gf_bytes > 0) policy_->note_ec_encode(gf_bytes);
  auto resps = co_await client_->rpc_all(std::move(writes));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "rs degraded write"};
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Recovery::rebuild_server(const pvfs::OpenFile& f,
                                                 std::uint32_t failed,
                                                 std::uint64_t file_size,
                                                 RebuildOptions opt) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t su = layout.su();
  const std::uint32_t successor = (failed + 1) % n;
  const std::uint32_t predecessor = (failed + n - 1) % n;
  if (file_size == 0) co_return Result<void>::success();
  const Scheme sch = scheme_of(f);
  if (sch == Scheme::raid0) {
    // Nothing rebuildable: RAID0 stores no redundancy, so a replaced
    // server's units are simply gone. The coordinator admits such servers
    // without a pass; a direct call is a no-op rather than an error so a
    // mixed-scheme pass over many files can treat every file uniformly.
    co_return Result<void>::success();
  }

  // rs(k,m): data and coding fragments are both decoded from any k live
  //   fragments (around concurrent outages in opt.also_down), in a dedicated
  //   pass; the overflow overlay of an ex-Hybrid rs file is then restored by
  //   the shared step 3 below.
  const bool rs = sch.kind == SchemeKind::rs;
  if (rs) {
    auto rb = co_await rebuild_server_rs(f, sch, failed, file_size, opt);
    if (!rb.ok()) co_return rb;
  }

  // 1. Data file: reconstruct every unit the failed server held. For parity
  //    schemes this restores the *base* content (data file only), keeping
  //    the surviving parity consistent; overflow entries are restored
  //    separately in step 3. Units are rebuilt with a pipeline window so
  //    the survivor reads and replacement writes stream concurrently — the
  //    rebuilding node's links become the bottleneck, as in a real rebuild.
  const std::uint32_t dn = layout.data_servers();
  if (!rs) {
    constexpr std::uint32_t kWindow = 16;
    sim::Semaphore window(client_->cluster().sim(), kWindow);
    sim::WaitGroup wg(client_->cluster().sim());
    bool error = false;
    Error first_error;
    for (std::uint64_t u = failed; failed < dn && u * su < file_size;
         u += dn) {
      const std::uint64_t len = std::min<std::uint64_t>(su, file_size - u * su);
      if (opt.delta && !opt.delta->intersects(u * su, u * su + len)) continue;
      if (opt.throttle) {
        // raid1: one mirror read + one replacement write. Parity: N-1
        // survivor reads + one replacement write, all unit-sized.
        co_await opt.throttle->take(
            sch == Scheme::raid1 ? 2 * len : std::uint64_t{n} * len);
      }
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, std::uint32_t fsrv,
             std::uint64_t unit, std::uint64_t len, sim::Semaphore* sem,
             sim::WaitGroup* done, bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            // NOTE: deliberately not a ?: expression — GCC 12 miscompiles
            // co_await inside conditional expressions (double-destruction
            // of the materialized result).
            // Both branches restore the *base* content (no overflow
            // overlay — step 3 restores the overlay's tables separately):
            // RAID1's mirror tracks the data file byte-for-byte, parity
            // schemes XOR the raw survivors.
            Result<Buffer> piece = Buffer{};
            if (self->scheme_of(file) == Scheme::raid1) {
              Request r;
              r.op = Op::read_red;
              r.handle = file.handle;
              r.off = lay.local_unit(unit) * lay.su();
              r.len = len;
              r.su = file.layout.stripe_unit;
              r.red_gen = self->red_gen_of(file);
              auto resp = co_await self->client_->rpc(
                  (fsrv + 1) % lay.n(), std::move(r));
              if (resp.ok) {
                piece = std::move(resp.data);
              } else {
                piece = Error{resp.err, "raid1 mirror read"};
              }
            } else {
              piece = co_await self->reconstruct_base(file, fsrv,
                                                      unit * lay.su(), len);
            }
            if (!piece.ok()) {
              if (!*err) *ferr = piece.error();
              *err = true;
            } else {
              Request w;
              w.op = Op::write_data;
              w.handle = file.handle;
              w.off = lay.local_unit(unit) * lay.su();
              w.payload = std::move(piece.value());
              w.su = lay.stripe_unit;
              auto resp = co_await self->client_->rpc(fsrv, std::move(w));
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "rebuild data write"};
                *err = true;
              }
            }
            sem->release();
            done->done();
          }(this, f, failed, u, len, &window, &wg, &error, &first_error));
    }
    co_await wg.wait();
    if (error) co_return first_error;
  }

  // 2. Redundancy file (pipelined like step 1).
  if (!rs) {
    constexpr std::uint32_t kWindow = 16;
    sim::Semaphore window(client_->cluster().sim(), kWindow);
    sim::WaitGroup wg(client_->cluster().sim());
    bool error = false;
    Error first_error;
    if (sch == Scheme::raid1) {
      // Mirror blocks of the predecessor's data, at its local offsets.
      for (std::uint64_t u = predecessor; u * su < file_size; u += dn) {
        const std::uint64_t len =
            std::min<std::uint64_t>(su, file_size - u * su);
        if (opt.delta && !opt.delta->intersects(u * su, u * su + len)) {
          continue;
        }
        if (opt.throttle) co_await opt.throttle->take(2 * len);
        co_await window.acquire();
        wg.add();
        client_->cluster().sim().spawn(
            [](Recovery* self, pvfs::OpenFile file, std::uint32_t fsrv,
               std::uint32_t pred, std::uint64_t unit, std::uint64_t len,
               sim::Semaphore* sem, sim::WaitGroup* done, bool* err,
               Error* ferr) -> sim::Task<void> {
              const StripeLayout& lay = file.layout;
              Request r;
              r.op = Op::read_data_raw;
              r.handle = file.handle;
              r.off = lay.local_unit(unit) * lay.su();
              r.len = len;
              auto resp = co_await self->client_->rpc(pred, std::move(r));
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "rebuild mirror read"};
                *err = true;
              } else {
                Request w;
                w.op = Op::write_red;
                w.handle = file.handle;
                w.off = lay.local_unit(unit) * lay.su();
                w.payload = std::move(resp.data);
                w.su = lay.stripe_unit;
                w.red_gen = self->red_gen_of(file);
                auto wr = co_await self->client_->rpc(fsrv, std::move(w));
                if (!wr.ok) {
                  if (!*err) *ferr = Error{wr.err, "rebuild mirror write"};
                  *err = true;
                }
              }
              sem->release();
              done->done();
            }(this, f, failed, predecessor, u, len, &window, &wg, &error,
              &first_error));
      }
    } else if (uses_parity(sch)) {
      // Recompute the parity units this server held: groups whose parity
      // placement lands here.
      const std::uint64_t ngroups =
          div_ceil(file_size, layout.stripe_width());
      for (std::uint64_t g = 0; g < ngroups; ++g) {
        if (layout.parity_server(g) != failed) continue;
        if (opt.delta &&
            !opt.delta->intersects(
                layout.group_start(g),
                std::min(layout.group_end(g), file_size))) {
          continue;
        }
        if (opt.throttle) {
          co_await opt.throttle->take(std::uint64_t{n} * su);
        }
        co_await window.acquire();
        wg.add();
        client_->cluster().sim().spawn(
            [](Recovery* self, pvfs::OpenFile file, std::uint32_t fsrv,
               std::uint64_t group, sim::Semaphore* sem, sim::WaitGroup* done,
               bool* err, Error* ferr) -> sim::Task<void> {
              const StripeLayout& lay = file.layout;
              const std::uint64_t unit_sz = lay.su();
              std::vector<std::pair<std::uint32_t, Request>> reads;
              for (std::uint64_t u = group * (lay.n() - 1);
                   u < (group + 1) * (lay.n() - 1); ++u) {
                Request r;
                r.op = Op::read_data_raw;
                r.handle = file.handle;
                r.off = lay.local_unit(u) * unit_sz;
                r.len = unit_sz;
                reads.emplace_back(lay.server_of_unit(u), std::move(r));
              }
              auto resps = co_await self->client_->rpc_all(std::move(reads));
              Buffer parity = Buffer::real(unit_sz);
              bool bad = false;
              for (auto& resp : resps) {
                if (!resp.ok) {
                  if (!*err) *ferr = Error{resp.err, "rebuild parity read"};
                  *err = true;
                  bad = true;
                  break;
                }
                if (parity.materialized() && resp.data.materialized()) {
                  parity.xor_with(resp.data);
                } else {
                  parity = Buffer::phantom(unit_sz);
                }
              }
              if (!bad) {
                Request w;
                w.op = Op::write_red;
                w.handle = file.handle;
                w.off = lay.parity_local_off(group);
                w.payload = std::move(parity);
                w.su = lay.stripe_unit;
                w.red_gen = self->red_gen_of(file);
                auto wr = co_await self->client_->rpc(fsrv, std::move(w));
                if (!wr.ok) {
                  if (!*err) *ferr = Error{wr.err, "rebuild parity write"};
                  *err = true;
                }
              }
              sem->release();
              done->done();
            }(this, f, failed, g, &window, &wg, &error, &first_error));
      }
    }
    co_await wg.wait();
    if (error) co_return first_error;
  }

  // 3. Overflow overlay: restore this server's own entries from the mirrors
  //    on its successor, and the mirror entries it held for its predecessor
  //    from that server's own table. Runs for Hybrid files and for files
  //    migrated away from Hybrid (their overlay is still live).
  if (overlay_overflow(f)) {
    const bool filter = opt.delta != nullptr && !opt.restore_all_overflow;
    if (opt.delta != nullptr && opt.restore_all_overflow) {
      // The rejoiner's overflow content is wholesale suspect (e.g. dirty
      // pages under the overflow file died with the crash): drop both table
      // sides entirely, then re-mirror everything from the survivors below.
      std::vector<Request> invals;
      for (int side = 0; side < 2; ++side) {
        Request r;
        r.op = Op::write_data;
        r.handle = f.handle;
        r.su = layout.stripe_unit;
        if (side == 0) {
          r.inval_own = {0, file_size};
        } else {
          r.inval_mirror = {0, file_size};
        }
        invals.push_back(std::move(r));
      }
      auto ivr = co_await client_->rpc_batch(failed, std::move(invals));
      for (const auto& r : ivr) {
        if (!r.ok) co_return Error{r.err, "rebuild overflow reset"};
      }
    }
    if (filter) {
      // A non-wipe rejoiner kept its overflow tables, but over the delta
      // they are stale: survivors superseded or invalidated those entries
      // while this server was gone. Clear both table sides across the delta
      // first (zero-payload write_data requests carry pure invalidation
      // ranges), then re-mirror the authoritative survivor copies below.
      std::vector<Request> invals;
      for (const auto& iv : opt.delta->to_vector()) {
        for (const auto& ext : layout.decompose(iv.start, iv.length())) {
          Request r;
          r.op = Op::write_data;
          r.handle = f.handle;
          r.su = layout.stripe_unit;
          if (ext.server == failed) {
            r.inval_own = {ext.local_off, ext.local_off + ext.len};
          } else if (ext.server == predecessor) {
            r.inval_mirror = {ext.local_off, ext.local_off + ext.len};
          } else {
            continue;
          }
          invals.push_back(std::move(r));
        }
      }
      if (!invals.empty()) {
        auto ivr = co_await client_->rpc_batch(failed, std::move(invals));
        for (const auto& r : ivr) {
          if (!r.ok) co_return Error{r.err, "rebuild overflow invalidate"};
        }
      }
    }
    // The survivor-side tables can be huge (unaligned collective writes
    // overflow nearly every request), so both whole-table reads are
    // windowed: each read_mirror / read_own_overflow RPC covers a bounded
    // local-offset range and its pieces are restored before the next
    // window is fetched. Restores still arrive in ascending local-offset
    // order across windows (the rebuilt table's allocation order must
    // match piece order; in-order batch execution guarantees it per
    // window, ascending windows guarantee it across them).
    //
    // The survivor's iod dispatch loop is charged the whole window span,
    // and every request behind it — health probes included — waits for
    // it. A window must therefore stay well inside the monitor's probe
    // deadline (HealthParams::probe_timeout, 200 ms): 16 MiB is ~110 ms
    // of iod time on the experimental-2003 profile. A 64 MiB window
    // (~440 ms) outlasts both probe attempts to a healthy survivor during
    // an online rebuild: the monitor marks it down beside the fenced
    // rejoiner, and foreground writes fail with two servers "down".
    constexpr std::uint64_t kOverflowWindow = 16ull << 20;
    for (std::uint64_t w0 = 0; w0 < file_size; w0 += kOverflowWindow) {
      Request rm;
      rm.op = Op::read_mirror;
      rm.handle = f.handle;
      rm.off = w0;  // local offsets are bounded by the file size
      rm.len = file_size - w0 < kOverflowWindow ? file_size - w0
                                                : kOverflowWindow;
      rm.owner = failed;
      auto mirrors = co_await client_->rpc(successor, std::move(rm));
      if (!mirrors.ok) co_return Error{mirrors.err, "rebuild overflow read"};
      std::vector<Request> restores;
      restores.reserve(mirrors.pieces.size());
      std::uint64_t restore_bytes = 0;
      for (auto& piece : mirrors.pieces) {
        if (filter) {
          const std::uint64_t g0 = layout.global_off(failed, piece.local_off);
          if (!opt.delta->intersects(g0, g0 + piece.data.size())) continue;
        }
        restore_bytes += piece.data.size();
        Request w;
        w.op = Op::write_overflow;
        w.handle = f.handle;
        w.off = piece.local_off;
        w.payload = std::move(piece.data);
        w.owner = failed;
        w.su = layout.stripe_unit;
        restores.push_back(std::move(w));
      }
      if (restores.empty()) continue;
      if (opt.throttle) co_await opt.throttle->take(2 * restore_bytes);
      auto wrs = co_await client_->rpc_batch(failed, std::move(restores));
      for (const auto& wr : wrs) {
        if (!wr.ok) co_return Error{wr.err, "rebuild overflow write"};
      }
    }

    for (std::uint64_t w0 = 0; w0 < file_size; w0 += kOverflowWindow) {
      Request ro;
      ro.op = Op::read_own_overflow;
      ro.handle = f.handle;
      ro.off = w0;
      ro.len = file_size - w0 < kOverflowWindow ? file_size - w0
                                                : kOverflowWindow;
      auto own = co_await client_->rpc(predecessor, std::move(ro));
      if (!own.ok) co_return Error{own.err, "rebuild mirror-table read"};
      std::vector<Request> mirror_restores;
      mirror_restores.reserve(own.pieces.size());
      std::uint64_t mirror_bytes = 0;
      for (auto& piece : own.pieces) {
        if (filter) {
          const std::uint64_t g0 =
              layout.global_off(predecessor, piece.local_off);
          if (!opt.delta->intersects(g0, g0 + piece.data.size())) continue;
        }
        mirror_bytes += piece.data.size();
        Request w;
        w.op = Op::write_overflow;
        w.handle = f.handle;
        w.off = piece.local_off;
        w.payload = std::move(piece.data);
        w.owner = predecessor;
        w.mirror = true;
        w.su = layout.stripe_unit;
        mirror_restores.push_back(std::move(w));
      }
      if (mirror_restores.empty()) continue;
      if (opt.throttle) co_await opt.throttle->take(2 * mirror_bytes);
      auto mwrs =
          co_await client_->rpc_batch(failed, std::move(mirror_restores));
      for (const auto& wr : mwrs) {
        if (!wr.ok) co_return Error{wr.err, "rebuild mirror-table write"};
      }
    }
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Recovery::rebuild_server_rs(const pvfs::OpenFile& f,
                                                    Scheme sch,
                                                    std::uint32_t failed,
                                                    std::uint64_t file_size,
                                                    const RebuildOptions& opt) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t m = spec.m;
  // Servers unreadable during this pass: the rebuild target itself plus any
  // concurrent outages — decodes route around all of them (any k live
  // fragments suffice, up to m may be gone).
  std::vector<std::uint32_t> down = opt.also_down;
  if (!contains(down, failed)) down.push_back(failed);
  std::sort(down.begin(), down.end());

  // 1. Data units the failed server held: decode each from k live fragments
  //    of its group and write the replacement, pipelined like the classic
  //    pass.
  const std::uint32_t dn = layout.data_servers();
  {
    constexpr std::uint32_t kWindow = 16;
    sim::Semaphore window(client_->cluster().sim(), kWindow);
    sim::WaitGroup wg(client_->cluster().sim());
    bool error = false;
    Error first_error;
    const std::uint64_t u0 =
        (failed + dn - layout.base % dn) % dn;  // first unit on `failed`
    for (std::uint64_t u = u0; u * su < file_size; u += dn) {
      const std::uint64_t len = std::min<std::uint64_t>(su, file_size - u * su);
      if (opt.delta && !opt.delta->intersects(u * su, u * su + len)) continue;
      if (opt.throttle) {
        // k fragment reads + one replacement write, all unit-sized.
        co_await opt.throttle->take(std::uint64_t{k + 1} * len);
      }
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, Scheme scheme,
             std::uint32_t fsrv, std::uint64_t unit, std::uint64_t len,
             std::vector<std::uint32_t> down, sim::Semaphore* sem,
             sim::WaitGroup* done, bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            const std::uint32_t kk = scheme.code(lay).k;
            auto piece = co_await self->reconstruct_rs(
                file, scheme, lay.rs_group_of_unit(unit, kk),
                static_cast<std::uint32_t>(unit % kk), 0, len, down,
                /*for_rebuild=*/true);
            if (!piece.ok()) {
              if (!*err) *ferr = piece.error();
              *err = true;
            } else {
              Request w;
              w.op = Op::write_data;
              w.handle = file.handle;
              w.off = lay.local_unit(unit) * lay.su();
              w.payload = std::move(piece.value());
              w.su = lay.stripe_unit;
              auto resp = co_await self->client_->rpc(fsrv, std::move(w));
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "rs rebuild data write"};
                *err = true;
              }
            }
            sem->release();
            done->done();
          }(this, f, sch, failed, u, len, down, &window, &wg, &error,
            &first_error));
    }
    co_await wg.wait();
    if (error) co_return first_error;
  }

  // 2. Coding fragments whose placement lands on the failed server: same
  //    decode machinery, targeting fragment k+j instead of a data fragment.
  {
    constexpr std::uint32_t kWindow = 16;
    sim::Semaphore window(client_->cluster().sim(), kWindow);
    sim::WaitGroup wg(client_->cluster().sim());
    bool error = false;
    Error first_error;
    const std::uint64_t ngroups =
        div_ceil(file_size, layout.rs_group_width(k));
    for (std::uint64_t g = 0; g < ngroups; ++g) {
      for (std::uint32_t j = 0; j < m; ++j) {
        if (layout.rs_coding_server(g, k, j) != failed) continue;
        if (opt.delta &&
            !opt.delta->intersects(
                layout.rs_group_start(g, k),
                std::min(layout.rs_group_end(g, k), file_size))) {
          continue;
        }
        if (opt.throttle) {
          co_await opt.throttle->take(std::uint64_t{k + 1} * su);
        }
        co_await window.acquire();
        wg.add();
        client_->cluster().sim().spawn(
            [](Recovery* self, pvfs::OpenFile file, Scheme scheme,
               std::uint32_t fsrv, std::uint64_t group, std::uint32_t frag,
               std::vector<std::uint32_t> down, sim::Semaphore* sem,
               sim::WaitGroup* done, bool* err,
               Error* ferr) -> sim::Task<void> {
              const StripeLayout& lay = file.layout;
              auto piece = co_await self->reconstruct_rs(
                  file, scheme, group, frag, 0, lay.su(), down,
                  /*for_rebuild=*/true);
              if (!piece.ok()) {
                if (!*err) *ferr = piece.error();
                *err = true;
              } else {
                Request w;
                w.op = Op::write_red;
                w.handle = file.handle;
                w.off = lay.rs_coding_local_off(group);
                w.payload = std::move(piece.value());
                w.su = lay.stripe_unit;
                w.red_gen = self->red_gen_of(file);
                auto wr = co_await self->client_->rpc(fsrv, std::move(w));
                if (!wr.ok) {
                  if (!*err) *ferr = Error{wr.err, "rs rebuild coding write"};
                  *err = true;
                }
              }
              sem->release();
              done->done();
            }(this, f, sch, failed, g, k + j, down, &window, &wg, &error,
              &first_error));
      }
    }
    co_await wg.wait();
    if (error) co_return first_error;
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Recovery::build_redundancy(const pvfs::OpenFile& f,
                                                   Scheme to,
                                                   std::uint32_t red_gen,
                                                   std::uint64_t file_size,
                                                   const IntervalSet* delta,
                                                   sim::TokenBucket* throttle) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t su = layout.su();
  if (file_size == 0) co_return Result<void>::success();
  if (to == Scheme::raid0 || to == Scheme::raid4) {
    // RAID0 has no redundancy to build; RAID4's fixed parity placement does
    // not transpose onto a file laid out with rotating placement.
    co_return Error{Errc::invalid_argument, "unsupported migration target"};
  }

  constexpr std::uint32_t kWindow = 16;
  sim::Semaphore window(client_->cluster().sim(), kWindow);
  sim::WaitGroup wg(client_->cluster().sim());
  bool error = false;
  Error first_error;

  if (to == Scheme::raid1) {
    // One mirror unit per data unit of *every* server: raw read from the
    // owner, write into the successor's generation-`red_gen` file at the
    // owner's local offset.
    for (std::uint64_t u = 0; u * su < file_size; ++u) {
      const std::uint64_t len = std::min<std::uint64_t>(su, file_size - u * su);
      if (delta && !delta->intersects(u * su, u * su + len)) continue;
      if (throttle) co_await throttle->take(2 * len);
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, std::uint64_t unit,
             std::uint64_t len, std::uint32_t gen, sim::Semaphore* sem,
             sim::WaitGroup* done, bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            const std::uint32_t owner = lay.server_of_unit(unit);
            Request r;
            r.op = Op::read_data_raw;
            r.handle = file.handle;
            r.off = lay.local_unit(unit) * lay.su();
            r.len = len;
            auto resp = co_await self->client_->rpc(owner, std::move(r));
            if (!resp.ok) {
              if (!*err) *ferr = Error{resp.err, "migrate mirror read"};
              *err = true;
            } else {
              Request w;
              w.op = Op::write_red;
              w.handle = file.handle;
              w.off = lay.local_unit(unit) * lay.su();
              w.payload = std::move(resp.data);
              w.su = lay.stripe_unit;
              w.red_gen = gen;
              auto wr = co_await self->client_->rpc((owner + 1) % lay.n(),
                                                    std::move(w));
              if (!wr.ok) {
                if (!*err) *ferr = Error{wr.err, "migrate mirror write"};
                *err = true;
              }
            }
            sem->release();
            done->done();
          }(this, f, u, len, red_gen, &window, &wg, &error, &first_error));
    }
  } else if (to.kind == SchemeKind::rs) {
    // rs(k,m) target: per group, read the k raw data units and write the m
    // coding fragments into the generation-`red_gen` redundancy files of
    // their placement servers. Overflow stays excluded, exactly like the
    // parity branch.
    const CodeSpec spec = to.code(layout);
    if (spec.fragments() > n) {
      co_return Error{Errc::invalid_argument,
                      "rs placement needs k+m <= N servers"};
    }
    const std::uint64_t ngroups =
        div_ceil(file_size, layout.rs_group_width(spec.k));
    for (std::uint64_t g = 0; g < ngroups; ++g) {
      if (delta && !delta->intersects(
                       layout.rs_group_start(g, spec.k),
                       std::min(layout.rs_group_end(g, spec.k), file_size))) {
        continue;
      }
      if (throttle) {
        co_await throttle->take(std::uint64_t{spec.fragments()} * su);
      }
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, Scheme scheme,
             std::uint64_t group, std::uint32_t gen, sim::Semaphore* sem,
             sim::WaitGroup* done, bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            const CodeSpec sp = scheme.code(lay);
            const std::uint64_t unit_sz = lay.su();
            std::vector<std::pair<std::uint32_t, Request>> reads;
            for (std::uint32_t i = 0; i < sp.k; ++i) {
              Request r;
              r.op = Op::read_data_raw;
              r.handle = file.handle;
              r.off = lay.local_unit(group * sp.k + i) * unit_sz;
              r.len = unit_sz;
              reads.emplace_back(lay.rs_data_server(group, sp.k, i),
                                 std::move(r));
            }
            auto resps = co_await self->client_->rpc_all(std::move(reads));
            bool bad = false;
            bool mat = true;
            for (const auto& resp : resps) {
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "migrate rs read"};
                *err = true;
                bad = true;
                break;
              }
              if (!resp.data.materialized()) mat = false;
            }
            if (!bad) {
              std::vector<std::pair<std::uint32_t, Request>> writes;
              for (std::uint32_t j = 0; j < sp.m; ++j) {
                Buffer coding =
                    mat ? Buffer::real(unit_sz) : Buffer::phantom(unit_sz);
                if (mat) {
                  auto dst = coding.mutable_bytes();
                  for (std::uint32_t i = 0; i < sp.k; ++i) {
                    gf_muladd_region(dst, resps[i].data,
                                     rs_coeff(sp, j, i));
                  }
                }
                Request w;
                w.op = Op::write_red;
                w.handle = file.handle;
                w.off = lay.rs_coding_local_off(group);
                w.payload = std::move(coding);
                w.su = lay.stripe_unit;
                w.red_gen = gen;
                writes.emplace_back(lay.rs_coding_server(group, sp.k, j),
                                    std::move(w));
              }
              if (self->policy_ != nullptr) {
                self->policy_->note_ec_encode(std::uint64_t{sp.k} * unit_sz *
                                              sp.m);
              }
              auto wrs = co_await self->client_->rpc_all(std::move(writes));
              for (const auto& wr : wrs) {
                if (!wr.ok) {
                  if (!*err) *ferr = Error{wr.err, "migrate rs coding write"};
                  *err = true;
                  break;
                }
              }
            }
            sem->release();
            done->done();
          }(this, f, to, g, red_gen, &window, &wg, &error, &first_error));
    }
  } else {
    // Parity target (RAID5 variants / Hybrid): fresh parity per group from
    // the raw data units — partial-write overflow deliberately excluded, so
    // the new parity is consistent with the data files just like Hybrid's.
    const std::uint64_t ngroups = div_ceil(file_size, layout.stripe_width());
    for (std::uint64_t g = 0; g < ngroups; ++g) {
      if (delta && !delta->intersects(layout.group_start(g),
                                      std::min(layout.group_end(g),
                                               file_size))) {
        continue;
      }
      if (throttle) co_await throttle->take(std::uint64_t{n} * su);
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, std::uint64_t group,
             std::uint32_t gen, sim::Semaphore* sem, sim::WaitGroup* done,
             bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            const std::uint64_t unit_sz = lay.su();
            std::vector<std::pair<std::uint32_t, Request>> reads;
            for (std::uint64_t u = group * (lay.n() - 1);
                 u < (group + 1) * (lay.n() - 1); ++u) {
              Request r;
              r.op = Op::read_data_raw;
              r.handle = file.handle;
              r.off = lay.local_unit(u) * unit_sz;
              r.len = unit_sz;
              reads.emplace_back(lay.server_of_unit(u), std::move(r));
            }
            auto resps = co_await self->client_->rpc_all(std::move(reads));
            Buffer parity = Buffer::real(unit_sz);
            bool bad = false;
            for (auto& resp : resps) {
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "migrate parity read"};
                *err = true;
                bad = true;
                break;
              }
              if (parity.materialized() && resp.data.materialized()) {
                parity.xor_with(resp.data);
              } else {
                parity = Buffer::phantom(unit_sz);
              }
            }
            if (!bad) {
              Request w;
              w.op = Op::write_red;
              w.handle = file.handle;
              w.off = lay.parity_local_off(group);
              w.payload = std::move(parity);
              w.su = lay.stripe_unit;
              w.red_gen = gen;
              auto wr = co_await self->client_->rpc(lay.parity_server(group),
                                                    std::move(w));
              if (!wr.ok) {
                if (!*err) *ferr = Error{wr.err, "migrate parity write"};
                *err = true;
              }
            }
            sem->release();
            done->done();
          }(this, f, g, red_gen, &window, &wg, &error, &first_error));
    }
  }
  co_await wg.wait();
  if (error) co_return first_error;
  co_return Result<void>::success();
}

}  // namespace csar::raid
