#include "raid/scrub.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/buffer_map.hpp"
#include "common/units.hpp"

namespace csar::raid {

namespace {
using pvfs::Op;
using pvfs::Request;
using pvfs::StripeLayout;
}  // namespace

sim::Task<Result<Scrubber::Report>> Scrubber::run(const pvfs::OpenFile& f,
                                                  std::uint64_t file_size,
                                                  bool repair) {
  Report report;
  if (file_size == 0) co_return report;
  const Scheme sch = scheme_of(f);
  switch (sch.kind) {
    case SchemeKind::raid0:
      co_return report;  // nothing to audit
    case SchemeKind::raid1: {
      auto r = co_await scrub_mirrors(f, file_size, repair, report);
      if (!r.ok()) co_return r.error();
      break;
    }
    case SchemeKind::raid4:
    case SchemeKind::raid5:
    case SchemeKind::raid5_nolock:
    case SchemeKind::raid5_npc:
    case SchemeKind::hybrid:
    case SchemeKind::rs: {
      auto r = co_await scrub_coded(f, file_size, repair, report);
      if (!r.ok()) co_return r.error();
      break;
    }
  }
  // Overflow entries outlive a migration away from Hybrid (the overlay stays
  // authoritative over the new base redundancy), so the pairwise overflow
  // audit runs for every file that may still carry entries — not just files
  // whose current base scheme is Hybrid.
  if (sch != Scheme::raid0 && overlay_overflow(f)) {
    auto o = co_await scrub_overflow(f, file_size, repair, report);
    if (!o.ok()) co_return o.error();
  }
  // Latent-sector findings are exactly the early-warning signal the adaptive
  // engine watches: feed them back so sustained media pressure can tip a
  // scheme recommendation before a whole server dies.
  if (policy_ != nullptr && report.media_errors > 0) {
    policy_->note_media_errors(report.media_errors);
  }
  if (repair && report.repaired > 0) {
    // Repairs only count once they are durable: a rewrite that rebuilds a
    // latent-sector unit must reach the disk (that is what remaps the bad
    // sectors), not sit dirty in a page cache that may be dropped.
    auto fl = co_await client_->flush(f);
    if (!fl.ok()) co_return Error{fl.error().code, "scrub flush"};
  }
  co_return report;
}

sim::Task<Result<void>> Scrubber::scrub_coded(const pvfs::OpenFile& f,
                                              std::uint64_t file_size,
                                              bool repair, Report& report) {
  // Per group, read the k data units and all m coding units; recompute
  // each coding unit and compare. Up to m latent-sector losses per group
  // decode from k live fragments; more is unrepairable.
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint32_t gen = red_gen_of(f);
  const CodeSpec spec = scheme_of(f).code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t m = spec.m;
  auto& node = client_->cluster().node(client_->node_id());
  const sim::Duration encode_time = sim::transfer_time(
      su * (k + 1), node.params().xor_bytes_per_sec);
  const std::uint64_t ngroups = div_ceil(file_size, layout.group_width(k));
  for (std::uint64_t g = 0; g < ngroups; ++g) {
    std::vector<std::pair<std::uint32_t, Request>> reads;
    for (std::uint32_t i = 0; i < k; ++i) {
      Request r;
      r.op = Op::read_data_raw;
      r.handle = f.handle;
      r.off = layout.local_unit(g * k + i) * su;
      r.len = su;
      reads.emplace_back(layout.data_server(g, k, i), std::move(r));
    }
    for (std::uint32_t j = 0; j < m; ++j) {
      Request r;
      r.op = Op::read_red;
      r.handle = f.handle;
      r.off = layout.coding_off(g, k, m, j);
      r.len = su;
      r.su = layout.stripe_unit;
      r.red_gen = gen;
      reads.emplace_back(layout.coding_server(g, k, j), std::move(r));
    }
    auto resps = co_await client_->rpc_all(std::move(reads));
    std::vector<std::uint32_t> lost;  // fragment indexes, data then coding
    for (std::size_t i = 0; i < resps.size(); ++i) {
      if (resps[i].ok) continue;
      if (resps[i].err == Errc::media_error) {
        // A latent sector error is a per-range finding, not a dead server.
        ++report.media_errors;
        lost.push_back(static_cast<std::uint32_t>(i));
        continue;
      }
      co_return Error{resps[i].err, "scrub read", resps[i].server};
    }
    ++report.groups_checked;
    bool materialized = true;
    for (const auto& resp : resps) {
      if (resp.ok && !resp.data.materialized()) materialized = false;
    }
    if (lost.size() > m) {
      report.unrepairable += lost.size();
      continue;
    }
    if (!lost.empty()) {
      if (!repair) continue;  // verify-only: the findings are recorded
      // Decode each lost fragment from the first k live fragments and
      // rewrite it in place, which clears the bad sectors underneath.
      std::vector<std::uint32_t> present;
      std::vector<Buffer> srcs;
      for (std::uint32_t frag = 0;
           frag < spec.fragments() && present.size() < k; ++frag) {
        if (std::find(lost.begin(), lost.end(), frag) != lost.end()) continue;
        present.push_back(frag);
        srcs.push_back(resps[frag].data);
      }
      for (const std::uint32_t bad : lost) {
        Buffer rebuilt = Buffer::phantom(su);
        if (materialized) {
          rebuilt = gf_combine(srcs, rs_reconstruct_coeffs(spec, present, bad));
          co_await node.tx().occupy(encode_time);
        }
        Request w;
        w.handle = f.handle;
        w.payload = std::move(rebuilt);
        w.su = layout.stripe_unit;
        std::uint32_t target;
        if (bad >= k) {
          w.op = Op::write_red;
          w.off = layout.coding_off(g, k, m, bad - k);
          w.red_gen = gen;
          target = layout.coding_server(g, k, bad - k);
        } else {
          w.op = Op::write_data;
          w.off = layout.local_unit(g * k + bad) * su;
          target = layout.data_server(g, k, bad);
        }
        auto wr = co_await client_->rpc(target, std::move(w));
        if (!wr.ok) co_return Error{wr.err, "scrub media rewrite", wr.server};
        ++report.repaired;
      }
      continue;
    }
    if (!materialized) continue;  // phantom content: nothing to compare
    std::vector<Buffer> units;
    for (std::uint32_t i = 0; i < k; ++i) units.push_back(resps[i].data);
    for (std::uint32_t j = 0; j < m; ++j) {
      Buffer expect = gf_combine(units, rs_row(spec, j));
      // Charge the audit encode on the scrubbing client.
      co_await node.tx().occupy(encode_time);
      if (resps[k + j].data == expect) continue;
      ++report.parity_mismatches;
      if (repair) {
        Request w;
        w.op = Op::write_red;
        w.handle = f.handle;
        w.off = layout.coding_off(g, k, m, j);
        w.payload = std::move(expect);
        w.su = layout.stripe_unit;
        w.red_gen = gen;
        auto wr = co_await client_->rpc(layout.coding_server(g, k, j),
                                        std::move(w));
        if (!wr.ok) co_return Error{wr.err, "scrub coding rewrite"};
        ++report.repaired;
      }
    }
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Scrubber::scrub_mirrors(const pvfs::OpenFile& f,
                                                std::uint64_t file_size,
                                                bool repair, Report& report) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint32_t gen = red_gen_of(f);
  for (std::uint64_t u = 0; u * su < file_size; ++u) {
    const std::uint32_t s = layout.server_of_unit(u);
    const std::uint64_t local = layout.local_unit(u) * su;
    const std::uint64_t len = std::min<std::uint64_t>(su, file_size - u * su);
    Request rd;
    rd.op = Op::read_data_raw;
    rd.handle = f.handle;
    rd.off = local;
    rd.len = len;
    Request rm;
    rm.op = Op::read_red;
    rm.handle = f.handle;
    rm.off = local;
    rm.len = len;
    rm.su = layout.stripe_unit;
    rm.red_gen = gen;
    std::vector<std::pair<std::uint32_t, Request>> reads;
    reads.emplace_back(s, std::move(rd));
    reads.emplace_back((s + 1) % layout.n(), std::move(rm));
    auto resps = co_await client_->rpc_all(std::move(reads));
    bool primary_lost = false;
    bool mirror_lost = false;
    for (std::size_t i = 0; i < resps.size(); ++i) {
      if (resps[i].ok) continue;
      if (resps[i].err == Errc::media_error) {
        ++report.media_errors;
        (i == 0 ? primary_lost : mirror_lost) = true;
        continue;
      }
      co_return Error{resps[i].err, "scrub mirror read", resps[i].server};
    }
    ++report.mirror_units_checked;
    if (primary_lost && mirror_lost) {
      report.unrepairable += 2;  // both copies of the unit are unreadable
      continue;
    }
    if (primary_lost || mirror_lost) {
      if (!repair) continue;
      // Restore the unreadable copy from its healthy twin.
      Request w;
      w.handle = f.handle;
      w.off = local;
      w.su = layout.stripe_unit;
      w.op = primary_lost ? Op::write_data : Op::write_red;
      if (!primary_lost) w.red_gen = gen;
      w.payload = std::move(resps[primary_lost ? 1 : 0].data);
      auto wr = co_await client_->rpc(
          primary_lost ? s : (s + 1) % layout.n(), std::move(w));
      if (!wr.ok) {
        co_return Error{wr.err, "scrub mirror media rewrite", wr.server};
      }
      ++report.repaired;
      continue;
    }
    if (!resps[0].data.materialized() || !resps[1].data.materialized()) {
      continue;
    }
    if (resps[0].data == resps[1].data) continue;
    ++report.mirror_mismatches;
    if (repair) {
      Request w;
      w.op = Op::write_red;
      w.handle = f.handle;
      w.off = local;
      w.payload = std::move(resps[0].data);
      w.su = layout.stripe_unit;
      w.red_gen = gen;
      auto wr = co_await client_->rpc((s + 1) % layout.n(), std::move(w));
      if (!wr.ok) co_return Error{wr.err, "scrub mirror rewrite"};
      ++report.repaired;
    }
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Scrubber::scrub_overflow(const pvfs::OpenFile& f,
                                                 std::uint64_t file_size,
                                                 bool repair,
                                                 Report& report) {
  const StripeLayout& layout = f.layout;
  for (std::uint32_t s = 0; s < layout.n(); ++s) {
    // Primary entries on s must match the mirrors on s+1.
    Request ro;
    ro.op = Op::read_own_overflow;
    ro.handle = f.handle;
    ro.off = 0;
    ro.len = file_size;
    auto own = co_await client_->rpc(s, std::move(ro));
    if (!own.ok && own.err == Errc::media_error) {
      // The owner's overflow region has latent sector errors: restore its
      // entries from the successor's mirror copies.
      ++report.media_errors;
      if (!repair) continue;
      Request rr;
      rr.op = Op::read_mirror;
      rr.handle = f.handle;
      rr.off = 0;
      rr.len = file_size;
      rr.owner = s;
      auto surv = co_await client_->rpc((s + 1) % layout.n(), std::move(rr));
      if (!surv.ok) {
        ++report.unrepairable;  // mirror unreadable too
        continue;
      }
      for (auto& piece : surv.pieces) {
        Request w;
        w.op = Op::write_overflow;
        w.handle = f.handle;
        w.off = piece.local_off;
        w.payload = std::move(piece.data);
        w.owner = s;
        w.su = layout.stripe_unit;
        auto wr = co_await client_->rpc(s, std::move(w));
        if (!wr.ok) {
          co_return Error{wr.err, "scrub overflow media rewrite", wr.server};
        }
        ++report.repaired;
      }
      continue;
    }
    if (!own.ok) co_return Error{own.err, "scrub overflow read", own.server};
    if (own.pieces.empty()) continue;

    Request rm;
    rm.op = Op::read_mirror;
    rm.handle = f.handle;
    rm.off = 0;
    rm.len = file_size;
    rm.owner = s;
    auto mirror = co_await client_->rpc((s + 1) % layout.n(), std::move(rm));
    if (!mirror.ok && mirror.err == Errc::media_error) {
      // Mirror side unreadable: rewrite every primary entry's mirror copy.
      ++report.media_errors;
      if (repair) {
        for (const auto& piece : own.pieces) {
          ++report.overflow_pairs_checked;
          Request w;
          w.op = Op::write_overflow;
          w.handle = f.handle;
          w.off = piece.local_off;
          w.payload = piece.data.slice(0, piece.data.size());
          w.owner = s;
          w.mirror = true;
          w.su = layout.stripe_unit;
          auto wr =
              co_await client_->rpc((s + 1) % layout.n(), std::move(w));
          if (!wr.ok) {
            co_return Error{wr.err, "scrub mirror-table media rewrite",
                            wr.server};
          }
          ++report.repaired;
        }
      }
      continue;
    }
    if (!mirror.ok) {
      co_return Error{mirror.err, "scrub mirror-table read", mirror.server};
    }

    BufferMap mirror_map;
    bool mirror_materialized = true;
    for (auto& piece : mirror.pieces) {
      if (!piece.data.materialized()) mirror_materialized = false;
      const std::uint64_t end = piece.local_off + piece.data.size();
      mirror_map.insert(piece.local_off, end, std::move(piece.data));
    }
    for (const auto& piece : own.pieces) {
      ++report.overflow_pairs_checked;
      const std::uint64_t start = piece.local_off;
      const std::uint64_t end = start + piece.data.size();
      bool match = true;
      if (!piece.data.materialized() || !mirror_materialized) {
        // Phantom: compare coverage only.
        match = mirror_map.covered_bytes() > 0 || mirror_map.intersects(
                                                      start, end);
      } else {
        std::uint64_t covered = 0;
        for (const auto& chunk : mirror_map.query(start, end)) {
          covered += chunk.end - chunk.start;
        }
        match = covered == end - start &&
                read_range(mirror_map, start, end) == piece.data;
      }
      if (match) continue;
      ++report.overflow_mismatches;
      if (repair) {
        Request w;
        w.op = Op::write_overflow;
        w.handle = f.handle;
        w.off = start;
        w.payload = piece.data.slice(0, piece.data.size());
        w.owner = s;
        w.mirror = true;
        w.su = layout.stripe_unit;
        auto wr =
            co_await client_->rpc((s + 1) % layout.n(), std::move(w));
        if (!wr.ok) co_return Error{wr.err, "scrub overflow rewrite"};
        ++report.repaired;
      }
    }
  }
  co_return Result<void>::success();
}

}  // namespace csar::raid
