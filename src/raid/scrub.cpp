#include "raid/scrub.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/buffer_map.hpp"
#include "common/units.hpp"
#include "raid/recovery.hpp"

namespace csar::raid {

namespace {
using pvfs::Request;
using pvfs::StripeLayout;
}  // namespace

sim::Task<Result<Scrubber::Report>> Scrubber::run(const pvfs::OpenFile& f,
                                                  std::uint64_t file_size,
                                                  bool repair) {
  Report report;
  if (file_size == 0) co_return report;
  const Scheme sch = policy_->scheme_of(f);
  if (!uses_group_coding(sch)) co_return report;  // RAID0: nothing to audit
  auto r = co_await scrub_coded(f, file_size, repair, report);
  if (!r.ok()) co_return r.error();
  // Overflow entries outlive a migration away from Hybrid (the overlay stays
  // authoritative over the new base redundancy), so the pairwise overflow
  // audit runs for every file that may still carry entries — not just files
  // whose current base scheme is Hybrid.
  if (policy_->overflow_possible(f)) {
    auto o = co_await scrub_overflow(f, file_size, repair, report);
    if (!o.ok()) co_return o.error();
  }
  // Latent-sector findings are exactly the early-warning signal the adaptive
  // engine watches: feed them back so sustained media pressure can tip a
  // scheme recommendation before a whole server dies.
  if (report.media_errors > 0) {
    policy_->note_media_errors(report.media_errors);
  }
  if (repair && report.repaired > 0) {
    // Repairs only count once they are durable: a rewrite that rebuilds a
    // latent-sector unit must reach the disk (that is what remaps the bad
    // sectors), not sit dirty in a page cache that may be dropped.
    auto fl = co_await client_->flush(f);
    if (!fl.ok()) {
      co_return Error{fl.error().code, "scrub flush", fl.error().server};
    }
  }
  co_return report;
}

sim::Task<Result<void>> Scrubber::scrub_coded(const pvfs::OpenFile& f,
                                              std::uint64_t file_size,
                                              bool repair, Report& report) {
  // Per group, read the k data units and all m coding units over the
  // group's columns inside the file; recompute each coding unit and
  // compare. Up to m latent-sector losses per group decode from k live
  // fragments (fragment_decode), paid like a rebuild's decode; more is
  // unrepairable. The audit's encode is paid like a full-stripe write's:
  // k·cols per coding row that is not a copy (RAID1's mirror), phantom
  // groups included, nothing for RAID5-npc (charge_encode).
  const StripeLayout& layout = f.layout;
  const std::uint64_t su = layout.su();
  const std::uint32_t gen = policy_->red_gen_of(f);
  const Scheme sch = policy_->scheme_of(f);
  const CodeSpec spec = sch.code(layout);
  const std::uint32_t k = spec.k;
  const std::uint32_t m = spec.m;
  std::uint32_t encoded_rows = 0;
  for (std::uint32_t j = 0; j < m; ++j) {
    if (k != 1 || rs_coeff(spec, j, 0) != 1) ++encoded_rows;
  }
  const std::uint64_t ngroups = div_ceil(file_size, layout.group_width(k));
  for (std::uint64_t g = 0; g < ngroups; ++g) {
    const std::uint64_t cols =
        std::min(su, file_size - layout.group_start(g, k));
    std::vector<std::pair<std::uint32_t, Request>> reads;
    for (std::uint32_t frag = 0; frag < spec.fragments(); ++frag) {
      reads.push_back(fragment_read(f, spec, gen, g, frag, 0, cols));
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
    if (lost.size() > m) {
      report.unrepairable += lost.size();
      continue;
    }
    if (!lost.empty()) {
      if (!repair) continue;  // verify-only: the findings are recorded
      // Decode each lost fragment and rewrite it in place, which clears
      // the bad sectors underneath.
      std::vector<Buffer> frags(spec.fragments());
      for (std::size_t i = 0; i < resps.size(); ++i) {
        if (resps[i].ok) frags[i] = std::move(resps[i].data);
      }
      co_await charge_decode(*client_, fragment_decode(spec, frags, lost));
      for (const std::uint32_t bad : lost) {
        auto w = fragment_write(f, spec, gen, g, bad, std::move(frags[bad]));
        auto wr = co_await client_->rpc(w.first, std::move(w.second));
        if (!wr.ok) co_return Error{wr.err, "scrub media rewrite", wr.server};
        ++report.repaired;
      }
      continue;
    }
    co_await charge_encode(*client_, sch,
                           std::uint64_t{encoded_rows} * k * cols);
    bool materialized = true;
    for (const auto& resp : resps) {
      if (!resp.data.materialized()) materialized = false;
    }
    if (!materialized) continue;  // phantom content: nothing to compare
    std::vector<Buffer> units;
    for (std::uint32_t i = 0; i < k; ++i) units.push_back(resps[i].data);
    for (std::uint32_t j = 0; j < m; ++j) {
      Buffer expect = gf_combine(units, rs_row(spec, j));
      if (resps[k + j].data == expect) continue;
      ++report.parity_mismatches;
      if (repair) {
        auto w = fragment_write(f, spec, gen, g, k + j, std::move(expect));
        auto wr = co_await client_->rpc(w.first, std::move(w.second));
        if (!wr.ok) co_return Error{wr.err, "scrub coding rewrite", wr.server};
        ++report.repaired;
      }
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
    const std::uint32_t succ = (s + 1) % layout.n();
    // Primary entries on s must match the mirrors on s+1, window by window.
    for (std::uint64_t w0 = 0; w0 < file_size; w0 += kOverflowWindow) {
      auto own = co_await client_->rpc(
          s, overflow_window_read(f, /*mirror=*/false, s, w0, file_size));
      if (!own.ok && own.err == Errc::media_error) {
        // The owner's overflow region has latent sector errors: restore its
        // entries from the successor's mirror copies.
        ++report.media_errors;
        if (!repair) continue;
        auto surv = co_await client_->rpc(
            succ, overflow_window_read(f, /*mirror=*/true, s, w0, file_size));
        if (!surv.ok) {
          ++report.unrepairable;  // mirror unreadable too
          continue;
        }
        for (auto& piece : surv.pieces) {
          auto wr = co_await client_->rpc(
              s, overflow_write(f, /*mirror=*/false, s, piece.local_off,
                                std::move(piece.data)));
          if (!wr.ok) {
            co_return Error{wr.err, "scrub overflow media rewrite", wr.server};
          }
          ++report.repaired;
        }
        continue;
      }
      if (!own.ok) co_return Error{own.err, "scrub overflow read", own.server};
      if (own.pieces.empty()) continue;

      auto mirror = co_await client_->rpc(
          succ, overflow_window_read(f, /*mirror=*/true, s, w0, file_size));
      if (!mirror.ok && mirror.err == Errc::media_error) {
        // Mirror side unreadable: rewrite every primary entry's mirror copy.
        ++report.media_errors;
        if (repair) {
          for (const auto& piece : own.pieces) {
            ++report.overflow_pairs_checked;
            auto wr = co_await client_->rpc(
                succ, overflow_write(f, /*mirror=*/true, s, piece.local_off,
                                     piece.data));
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
          match = mirror_map.covered_bytes() > 0 ||
                  mirror_map.intersects(start, end);
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
          auto wr = co_await client_->rpc(
              succ, overflow_write(f, /*mirror=*/true, s, piece.local_off,
                                   piece.data));
          if (!wr.ok) {
            co_return Error{wr.err, "scrub overflow rewrite", wr.server};
          }
          ++report.repaired;
        }
      }
    }
  }
  co_return Result<void>::success();
}

}  // namespace csar::raid
