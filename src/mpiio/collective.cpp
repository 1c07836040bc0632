#include "mpiio/collective.hpp"

#include <algorithm>
#include <cassert>

#include "common/units.hpp"

namespace csar::mpiio {

CollectiveFile::CollectiveFile(raid::Rig& rig, pvfs::OpenFile file,
                               std::uint32_t nprocs, CollectiveParams params)
    : rig_(&rig),
      file_(file),
      nprocs_(nprocs),
      p_(params),
      barrier_(rig.sim, nprocs),
      writes_(nprocs),
      reads_(nprocs),
      write_status_(nprocs, Result<void>::success()) {
  assert(rig.p.nclients >= nprocs && "one rig client per rank");
  if (p_.cb_nodes == 0) {
    p_.cb_nodes = std::min(nprocs, rig.p.nservers);
  }
  p_.cb_nodes = std::min(p_.cb_nodes, nprocs);
}

sim::Task<Result<void>> CollectiveFile::write_at(std::uint32_t rank,
                                                 std::uint64_t off,
                                                 Buffer data) {
  co_return co_await rig_->client_fs(rank).write(file_, off,
                                                 std::move(data));
}

sim::Task<Result<Buffer>> CollectiveFile::read_at(std::uint32_t rank,
                                                  std::uint64_t off,
                                                  std::uint64_t len) {
  co_return co_await rig_->client_fs(rank).read(file_, off, len);
}

sim::Task<void> CollectiveFile::barrier(std::uint32_t /*rank*/) {
  co_await barrier_.arrive_and_wait();
}

Interval CollectiveFile::aggregator_range(std::uint64_t lo, std::uint64_t hi,
                                          std::uint32_t a) const {
  // ROMIO partitions the merged extent evenly among the aggregators, on
  // file-domain boundaries.
  const std::uint64_t span = hi - lo;
  const std::uint64_t per = div_ceil(span, p_.cb_nodes);
  const std::uint64_t start = std::min(hi, lo + a * per);
  const std::uint64_t end = std::min(hi, start + per);
  return {start, end};
}

sim::Task<Result<void>> CollectiveFile::write_at_all(std::uint32_t rank,
                                                     std::uint64_t off,
                                                     Buffer data) {
  std::vector<Piece> pieces;
  if (!data.empty()) pieces.push_back(Piece{off, std::move(data)});
  co_return co_await write_at_all_v(rank, std::move(pieces));
}

sim::Task<Result<void>> CollectiveFile::write_at_all_v(
    std::uint32_t rank, std::vector<Piece> pieces) {
  writes_[rank] = PendingWrite{std::move(pieces), true};
  co_await barrier_.arrive_and_wait();

  // Every rank sees all requests now; compute the merged extent.
  std::uint64_t lo = ~0ULL;
  std::uint64_t hi = 0;
  for (const auto& w : writes_) {
    if (!w.present) continue;
    for (const auto& piece : w.pieces) {
      if (piece.data.empty()) continue;
      lo = std::min(lo, piece.off);
      hi = std::max(hi, piece.off + piece.data.size());
    }
  }

  if (hi > 0 && rank < p_.cb_nodes) {
    // Phase 1+2 for this aggregator: pull overlapping bytes from their
    // owner ranks over the fabric, then issue large contiguous writes.
    const Interval range = aggregator_range(lo, hi, rank);
    BufferMap content;
    for (std::uint32_t src = 0; src < nprocs_; ++src) {
      const auto& w = writes_[src];
      if (!w.present) continue;
      std::uint64_t wire_bytes = 0;
      for (const auto& piece : w.pieces) {
        const std::uint64_t s = std::max(range.start, piece.off);
        const std::uint64_t e =
            std::min(range.end, piece.off + piece.data.size());
        if (s >= e) continue;
        wire_bytes += e - s;
        content.insert(s, e, piece.data.slice(s - piece.off, e - s));
      }
      if (src != rank && wire_bytes > 0) {
        // One coalesced exchange message per (source, aggregator) pair.
        co_await rig_->fabric.transfer(rank_node(src), rank_node(rank),
                                       wire_bytes);
      }
    }
    // Write each covered run in cb_buffer pieces (the exchange rounds).
    std::vector<Interval> runs;
    content.for_each([&](std::uint64_t s, std::uint64_t e, const Buffer&) {
      if (!runs.empty() && runs.back().end == s) {
        runs.back().end = e;
      } else {
        runs.push_back({s, e});
      }
    });
    for (const auto& run : runs) {
      for (std::uint64_t pos = run.start; pos < run.end;
           pos += p_.cb_buffer) {
        const std::uint64_t n = std::min(p_.cb_buffer, run.end - pos);
        auto wr = co_await rig_->client_fs(rank).write(
            file_, pos, read_range(content, pos, pos + n));
        if (!wr.ok()) {
          write_status_[rank] = wr;
          failed_ = true;
        }
      }
    }
  }

  co_await barrier_.arrive_and_wait();
  const bool ok = !failed_;
  writes_[rank] = PendingWrite{};
  co_await barrier_.arrive_and_wait();
  if (rank == 0) failed_ = false;
  if (!ok) co_return Error{Errc::io_error, "collective write failed"};
  co_return Result<void>::success();
}

sim::Task<Result<Buffer>> CollectiveFile::read_at_all(std::uint32_t rank,
                                                      std::uint64_t off,
                                                      std::uint64_t len) {
  reads_[rank] = PendingRead{off, len, true};
  co_await barrier_.arrive_and_wait();

  std::uint64_t lo = ~0ULL;
  std::uint64_t hi = 0;
  for (const auto& r : reads_) {
    if (!r.present || r.len == 0) continue;
    lo = std::min(lo, r.off);
    hi = std::max(hi, r.off + r.len);
  }

  // Aggregators read their partition; results land in the shared member.
  BufferMap* content = &read_content_;

  if (hi > 0 && rank < p_.cb_nodes) {
    const Interval range = aggregator_range(lo, hi, rank);
    if (range.end > range.start) {
      auto rd = co_await rig_->client_fs(rank).read(file_, range.start,
                                                    range.end - range.start);
      if (rd.ok()) {
        content->insert(range.start, range.end, std::move(rd.value()));
      } else {
        failed_ = true;
      }
    }
  }
  co_await barrier_.arrive_and_wait();

  Result<Buffer> out = Buffer::real(0);
  if (failed_) {
    out = Error{Errc::io_error, "collective read failed"};
  } else if (len > 0) {
    // Pull this rank's bytes back from the aggregators over the fabric.
    for (const auto& c : content->query(off, off + len)) {
      const std::uint32_t agg = [&] {
        for (std::uint32_t a = 0; a < p_.cb_nodes; ++a) {
          const Interval range = aggregator_range(lo, hi, a);
          if (c.start >= range.start && c.start < range.end) return a;
        }
        return 0u;
      }();
      if (agg != rank) {
        co_await rig_->fabric.transfer(rank_node(agg), rank_node(rank),
                                       c.end - c.start);
      }
    }
    out = read_range(*content, off, off + len);
  }

  co_await barrier_.arrive_and_wait();  // everyone done extracting
  reads_[rank] = PendingRead{};
  co_await barrier_.arrive_and_wait();
  if (rank == 0) {
    failed_ = false;
    read_content_.clear();
  }
  co_return out;
}

}  // namespace csar::mpiio
