// LocalFs: the local file system on each I/O server.
//
// PVFS I/O daemons store their portion of every PVFS file as a plain file in
// the server's local file system (ext2 on the paper's testbed). This module
// models that layer: sparse files addressed by name, with content held in an
// interval map and all timing charged through the node's PageCache/Disk.
//
// Two behaviours from §5.2 of the paper live here:
//
//  - write_stream() applies a payload the way the iod's non-blocking network
//    receive loop does: in receive-chunk-sized pieces whose boundaries are
//    unrelated to file-system blocks. Without write buffering, nearly every
//    block of a preexisting uncached file is therefore written partially and
//    must be pre-read from disk.
//  - With write buffering enabled (the paper's fix), arriving chunks are
//    accumulated in a per-request buffer that is a multiple of the block
//    size, so the file sees block-aligned writes except at the request
//    edges.
//
// Files are reached by name (cold callers: the manager's journal, tests)
// or through a FileRef, a shared reference the I/O server resolves once
// per handle and caches. The name table is one owner among several:
// remove() and wipe() only unlink a file, and every operation holds its own
// reference while it is parked on the page cache. A write racing a removal
// therefore lands in the unlinked file and disappears with it, and a read
// racing one finishes against the content it started on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/buffer.hpp"
#include "common/buffer_map.hpp"
#include "common/interval_set.hpp"
#include "hw/page_cache.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace csar::localfs {

struct LocalFsParams {
  /// §5.2 fix: accumulate network chunks into block-aligned writes.
  bool write_buffering = true;
  /// Write-buffer size; a multiple of the cache page size.
  std::uint32_t write_buffer_bytes = 64 * 1024;
  /// §6.5 padding experiment: pad partial block writes to full blocks,
  /// suppressing pre-reads at the cost of writing garbage padding.
  bool pad_partial_blocks = false;
  /// Model dirty-page volatility: on crash(), content covered only by dirty
  /// (never written back) pages is destroyed with the cache — the ranges
  /// read as holes afterwards and are recorded for delta-rebuild (see
  /// take_crash_losses). Off by default: the legacy model treats every
  /// applied write as durable.
  bool volatile_dirty_pages = false;
};

class LocalFs {
 public:
  LocalFs(sim::Simulation& sim, hw::PageCache& cache,
          const LocalFsParams& params)
      : sim_(&sim), cache_(&cache), p_(params) {}
  LocalFs(const LocalFs&) = delete;
  LocalFs& operator=(const LocalFs&) = delete;

  /// One local file. `linked` is false once remove() or wipe() took it out
  /// of the name table; holders of a stale reference re-resolve by name.
  struct File {
    std::uint64_t fid;  ///< page-cache file id
    BufferMap content;
    bool linked = true;
  };
  using FileRef = std::shared_ptr<File>;

  /// The file named `name`, or null if there is none.
  FileRef lookup(const std::string& name) const {
    auto it = files_.find(name);
    return it == files_.end() ? nullptr : it->second;
  }
  /// The file named `name`, created (with the next file id) if absent.
  FileRef open(const std::string& name);

  bool exists(const std::string& name) const { return files_.contains(name); }
  void create(const std::string& name);
  void remove(const std::string& name);

  /// Delete every file (a fresh blank disk; used when simulating disk
  /// replacement before a rebuild). The page cache is dropped too.
  void wipe();

  /// Logical size (largest written offset) of a file; 0 if absent.
  std::uint64_t size(const std::string& name) const;

  /// Apply `payload` at `off` as a single aligned write (used for
  /// server-internal writes such as recovery). Creates the file if needed;
  /// an empty payload is a no-op that creates nothing.
  sim::Task<void> write(const std::string& name, std::uint64_t off,
                        Buffer payload) {
    return write(payload.empty() ? nullptr : open(name), off,
                 std::move(payload));
  }
  /// write() into a resolved file (`f` may be null only for an empty
  /// payload).
  sim::Task<void> write(FileRef f, std::uint64_t off, Buffer payload);

  /// Apply `payload` at `off` as it would arrive from the network, in
  /// `net_chunk`-byte pieces (see file comment). Creates the file if needed;
  /// an empty payload is a no-op that creates nothing.
  sim::Task<void> write_stream(const std::string& name, std::uint64_t off,
                               Buffer payload, std::uint32_t net_chunk) {
    return write_stream(payload.empty() ? nullptr : open(name), off,
                        std::move(payload), net_chunk);
  }
  sim::Task<void> write_stream(FileRef f, std::uint64_t off, Buffer payload,
                               std::uint32_t net_chunk);

  /// Read `len` bytes at `off`; holes read as zeros. The returned buffer is
  /// materialized iff the stored content at that range is (phantom files
  /// yield phantom reads).
  sim::Task<Buffer> read(const std::string& name, std::uint64_t off,
                         std::uint64_t len, bool materialized_hint = true);

  /// Result of a checked read: the data plus whether the underlying disk
  /// reported a latent sector error anywhere in the range.
  struct ReadOutcome {
    Buffer data;
    bool media_error = false;
  };

  /// Like read(), but surfaces media errors instead of swallowing them.
  /// The data buffer is still populated (the content layer is logical);
  /// callers that care about fault semantics must honour the flag.
  sim::Task<ReadOutcome> read_checked(const std::string& name,
                                      std::uint64_t off, std::uint64_t len,
                                      bool materialized_hint = true) {
    return read_checked(lookup(name), off, len, materialized_hint);
  }
  /// read_checked() of a resolved file; null reads as an absent file.
  sim::Task<ReadOutcome> read_checked(FileRef f, std::uint64_t off,
                                      std::uint64_t len,
                                      bool materialized_hint = true);

  /// Simulate a server crash: all page-cache state (including dirty pages)
  /// vanishes. By default content is kept — the model treats applied writes
  /// as durable and charges the timing cost of re-reading everything cold.
  /// With volatile_dirty_pages, byte ranges whose only copy was a dirty page
  /// are erased from content and recorded as crash losses.
  void crash() {
    if (p_.volatile_dirty_pages) {
      for (auto& [name, f] : files_) {
        for (auto [lo, hi] : cache_->dirty_ranges(f->fid)) {
          const std::uint64_t end =
              hi < f->content.upper_bound() ? hi : f->content.upper_bound();
          if (lo >= end) continue;
          f->content.erase(lo, end);
          crash_losses_[name].insert(lo, end);
        }
      }
    }
    cache_->drop_all();
  }

  /// Local byte ranges destroyed by crashes since the last call (per file
  /// name, ordered). A rebuild coordinator folds these into its delta set:
  /// the lost bytes must be re-reconstructed from redundancy even though the
  /// restart kept the disk.
  std::map<std::string, IntervalSet> take_crash_losses() {
    return std::exchange(crash_losses_, {});
  }

  /// Page-cache file id of `name`, or 0 if the file does not exist. The
  /// disk address of byte `off` is then fid * 2^40 + off (see
  /// PageCache::page_addr); fault injectors use this to plant latent
  /// sector errors under real file extents.
  std::uint64_t fid_of(const std::string& name) const {
    auto it = files_.find(name);
    return it == files_.end() ? 0 : it->second->fid;
  }

  /// fsync every file: push all dirty pages to disk.
  sim::Task<void> flush();

  /// Drop the page cache (used between experiment phases); flush first.
  void drop_caches();

  /// Sum of logical file sizes — the paper's Table 2 metric ("sum of the
  /// file sizes at the I/O servers").
  std::uint64_t total_content_bytes() const;

  /// Content equality helper for tests: materialized bytes at a range.
  sim::Task<Buffer> peek(const std::string& name, std::uint64_t off,
                         std::uint64_t len) {
    return read(name, off, len);
  }

  const hw::PageCache& cache() const { return *cache_; }
  const LocalFsParams& params() const { return p_; }

 private:
  sim::Simulation* sim_;
  hw::PageCache* cache_;
  LocalFsParams p_;
  std::unordered_map<std::string, FileRef> files_;
  std::map<std::string, IntervalSet> crash_losses_;
  std::uint64_t next_fid_ = 1;
};

}  // namespace csar::localfs
