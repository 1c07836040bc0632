// A ROMIO-like MPI-IO layer over CSAR: independent and collective file I/O
// with two-phase collective buffering.
//
// Every application the paper evaluates reaches PVFS through ROMIO ("ROMIO
// optimizes small, non-contiguous accesses by merging them into large
// requests when possible... for the BTIO benchmark, the PVFS layer sees
// large writes, most of which are about 4 MB", §6.5). This module provides
// that substrate: in a collective write, the ranks' requests are merged,
// the covered file range is partitioned among `cb_nodes` aggregator ranks,
// data is exchanged rank->aggregator over the fabric, and each aggregator
// issues large contiguous writes in `cb_buffer` pieces — exactly ROMIO's
// generalized two-phase algorithm.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/buffer_map.hpp"
#include "common/interval_set.hpp"
#include "raid/rig.hpp"
#include "sim/sync.hpp"

namespace csar::mpiio {

struct CollectiveParams {
  /// Aggregator count (ROMIO's cb_nodes). 0 = min(nprocs, nservers).
  std::uint32_t cb_nodes = 0;
  /// Collective buffer size per aggregator per exchange round
  /// (ROMIO's cb_buffer_size; 4 MiB default, like the paper's era).
  std::uint64_t cb_buffer = 4ull << 20;
};

/// A file opened by an `nprocs`-rank communicator whose rank r runs on the
/// rig's client r. Collective calls must be made by every rank.
class CollectiveFile {
 public:
  CollectiveFile(raid::Rig& rig, pvfs::OpenFile file, std::uint32_t nprocs,
                 CollectiveParams params = {});

  const pvfs::OpenFile& handle() const { return file_; }
  std::uint32_t nprocs() const { return nprocs_; }
  std::uint32_t cb_nodes() const { return p_.cb_nodes; }

  // --- independent I/O (plain pass-through to the rank's client) ---
  sim::Task<Result<void>> write_at(std::uint32_t rank, std::uint64_t off,
                                   Buffer data);
  sim::Task<Result<Buffer>> read_at(std::uint32_t rank, std::uint64_t off,
                                    std::uint64_t len);

  /// One piece of a (possibly non-contiguous) rank request — what an MPI
  /// derived datatype flattens to.
  struct Piece {
    std::uint64_t off = 0;
    Buffer data;
  };

  // --- collective two-phase I/O ---
  /// Every rank calls with its own (possibly empty) request; completes for
  /// all ranks when the merged region has been written by the aggregators.
  sim::Task<Result<void>> write_at_all(std::uint32_t rank, std::uint64_t off,
                                       Buffer data);

  /// Non-contiguous collective write: each rank contributes any number of
  /// pieces (an MPI datatype's flattened offset/length list). This is where
  /// two-phase I/O shines — interleaved per-rank records merge into large
  /// contiguous aggregator writes (§6.5).
  sim::Task<Result<void>> write_at_all_v(std::uint32_t rank,
                                         std::vector<Piece> pieces);
  /// Every rank calls; aggregators read the merged region and the fabric
  /// redistributes each rank's bytes back to it.
  sim::Task<Result<Buffer>> read_at_all(std::uint32_t rank,
                                        std::uint64_t off, std::uint64_t len);

  /// Collective barrier (MPI_Barrier over the communicator).
  sim::Task<void> barrier(std::uint32_t rank);

 private:
  struct PendingWrite {
    std::vector<Piece> pieces;
    bool present = false;
  };
  struct PendingRead {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    bool present = false;
  };

  /// The file range [start, end) aggregator `a` owns for this collective.
  Interval aggregator_range(std::uint64_t lo, std::uint64_t hi,
                            std::uint32_t a) const;
  hw::NodeId rank_node(std::uint32_t rank) const {
    return rig_->client(rank).node_id();
  }

  raid::Rig* rig_;
  pvfs::OpenFile file_;
  std::uint32_t nprocs_;
  CollectiveParams p_;
  sim::Barrier barrier_;
  // Collective-call shared state (valid between the two barriers).
  std::vector<PendingWrite> writes_;
  std::vector<PendingRead> reads_;
  std::vector<Result<void>> write_status_;
  BufferMap read_content_;
  bool failed_ = false;
};

}  // namespace csar::mpiio
