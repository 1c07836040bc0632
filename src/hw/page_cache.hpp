// PageCache: a Linux-buffer-cache-like model of per-server file caching.
//
// The cache is timing/metadata only: it decides which accesses hit memory,
// which go to the Disk, and when dirty write-back stalls the writer. File
// *contents* live in the LocalFs layer; the cache tracks (file, page)
// residency and dirtiness with LRU replacement.
//
// Behaviours reproduced from the paper:
//  - §5.2: a write covering only part of a page whose old content exists and
//    is not cached forces a pre-read of the page from disk (the
//    "partial writes to preexisting files" problem; the write-buffering fix
//    lives in the I/O server, which then issues block-aligned writes).
//  - §6.5 (Class C): once dirty data exceeds capacity, each new page write
//    stalls on evicting an old dirty page to disk, collapsing to disk rate.
//  - §6.5 (overwrite runs): drop_all() models "contents removed from the
//    cache" between the initial-write and overwrite phases.
//
// Hot-path layout: pages live in a slot pool (std::vector<Page>) threaded
// into an intrusive doubly-linked LRU by 32-bit slot indices. A FlatIndex
// (common/flat_index.hpp) of slot indices finds a page by (file, page):
// linear probing over a power-of-two table kept at most half full, keys
// read back from the pool, deletion by backward shift (no tombstones, so
// probe chains never rot under eviction churn). A write probes once per
// page: the probe that misses also yields the insert position.
// Insert/touch/evict move no memory and allocate nothing in steady state
// (slots recycle through a free list; the table only doubles on real
// growth and drop_all() clears it in place).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"
#include "hw/disk.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace csar::hw {

struct CacheParams {
  std::uint64_t capacity_bytes = 768ULL << 20;
  std::uint32_t page_size = 4096;
  /// Pages reclaimed per write-back burst once the cache is full. Batching
  /// models write-back clustering; large bursts keep eviction sequential.
  std::uint32_t evict_batch = 64;
};

class PageCache {
 public:
  /// `mem` is the node's copy engine: every cached read/write charges it for
  /// the moved bytes.
  PageCache(sim::Simulation& sim, Disk& disk, sim::BandwidthServer& mem,
            const CacheParams& params)
      : sim_(&sim),
        disk_(&disk),
        mem_(&mem),
        p_(params),
        index_(2 * kInitialReserve) {
    pool_.reserve(kInitialReserve);
  }
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Predicate telling whether a file has any on-disk content in a byte
  /// range. Sparse holes (never-written ranges) must return false — on ext2
  /// they have no allocated blocks and reading them costs no disk I/O.
  using ContentPred =
      std::function<bool(std::uint64_t start, std::uint64_t end)>;

  /// A predicate for a dense file of the given size (tests, simple callers).
  static ContentPred dense(std::uint64_t content_size) {
    return [content_size](std::uint64_t start, std::uint64_t) {
      return start < content_size;
    };
  }

  /// Read `len` bytes at `off` of file `fid`. Pages that are holes under
  /// `has_content` cost no disk I/O. Returns media_error if any miss run hit
  /// a latent sector error (cached pages never error).
  sim::Task<IoStatus> read(std::uint64_t fid, std::uint64_t off,
                           std::uint64_t len, const ContentPred& has_content);

  /// Write `len` bytes at `off`. A page only partially covered by the write,
  /// whose old content exists under `has_content` and is not cached, is
  /// pre-read from disk first. `pad_partial` disables the pre-read by
  /// treating every touched page as fully written (the paper's padding
  /// experiment in §6.5).
  sim::Task<void> write(std::uint64_t fid, std::uint64_t off,
                        std::uint64_t len, const ContentPred& has_content,
                        bool pad_partial = false);

  /// Write every dirty page to disk (fsync of the whole cache). Pages stay
  /// resident and become clean.
  sim::Task<void> flush_all();

  /// Drop every page. Dirty pages are discarded, so callers flush first;
  /// models `echo 3 > drop_caches` between experiment phases.
  void drop_all();

  struct Stats {
    std::uint64_t hits = 0;              ///< resident pages read or written
    std::uint64_t misses = 0;            ///< pages a read fetched from disk
    std::uint64_t write_allocs = 0;      ///< pages a write allocated without
                                         ///< reading (fresh or whole-page)
    std::uint64_t miss_runs = 0;         ///< contiguous disk reads issued for
                                         ///< misses (batched adjacent server
                                         ///< reads show up as fewer runs)
    std::uint64_t prereads = 0;          ///< partial-write pre-reads (§5.2)
    std::uint64_t dirty_evictions = 0;
    std::uint64_t clean_evictions = 0;

    template <class Fn>
    void for_each(Fn fn) const {
      fn("hits", hits);
      fn("misses", misses);
      fn("write_allocs", write_allocs);
      fn("miss_runs", miss_runs);
      fn("prereads", prereads);
      fn("dirty_evictions", dirty_evictions);
      fn("clean_evictions", clean_evictions);
    }
  };
  const Stats& stats() const { return stats_; }

  std::uint64_t resident_bytes() const {
    return static_cast<std::uint64_t>(index_.count()) * p_.page_size;
  }
  std::uint64_t dirty_pages() const { return dirty_count_; }
  /// Whether page `page` of file `fid` is cached (tests, diagnostics).
  bool resident(std::uint64_t fid, std::uint64_t page) const {
    return find(fid, page) != kNil;
  }
  const CacheParams& params() const { return p_; }

  /// Coalesced byte ranges of file `fid` currently covered only by dirty
  /// (never written back) pages — the data a crash destroys when the host
  /// models volatile page caches. Sorted by offset, deterministic.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dirty_ranges(
      std::uint64_t fid) const {
    std::vector<std::uint64_t> idx;
    for (const Page& page : pool_) {
      if (page.live && page.fid == fid && page.dirty) {
        idx.push_back(page.idx);
      }
    }
    std::sort(idx.begin(), idx.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::uint64_t i : idx) {
      const std::uint64_t lo = i * p_.page_size;
      const std::uint64_t hi = lo + p_.page_size;
      if (!out.empty() && out.back().second == lo) {
        out.back().second = hi;
      } else {
        out.emplace_back(lo, hi);
      }
    }
    return out;
  }

  /// Disk address of a page: files are spaced 1 TiB apart in the linear
  /// address space, so within-file sequential access is sequential on disk
  /// and cross-file access seeks — a reasonable stand-in for ext2 layout.
  static std::uint64_t page_addr(std::uint64_t fid, std::uint64_t page,
                                 std::uint32_t page_size) {
    return fid * (1ULL << 40) + page * page_size;
  }

 private:
  static constexpr std::uint32_t kNil = FlatIndex::kNil;
  static constexpr std::size_t kInitialReserve = 1024;

  struct Page {
    std::uint64_t fid;
    std::uint64_t idx;
    bool dirty;
    bool live;
    std::uint32_t prev;  // toward LRU end
    std::uint32_t next;  // toward MRU end
  };

  // --- page index (open addressing over pool slots) ---
  /// Home bucket of (fid, page): Fibonacci hashing, top bits of the product.
  std::size_t home(std::uint64_t fid, std::uint64_t page) const {
    return static_cast<std::size_t>(
        ((fid << 32 ^ page) * 0x9E3779B97F4A7C15ULL) >> index_.shift());
  }
  std::size_t home_of(std::uint32_t slot) const {
    return home(pool_[slot].fid, pool_[slot].idx);
  }
  /// Index bucket of the resident page (fid, page), or the empty bucket
  /// where it would be inserted.
  std::size_t probe(std::uint64_t fid, std::uint64_t page) const {
    return index_.probe(home(fid, page), [&](std::uint32_t s) {
      return pool_[s].idx == page && pool_[s].fid == fid;
    });
  }
  /// Slot of the resident page (fid, page), or kNil.
  std::uint32_t find(std::uint64_t fid, std::uint64_t page) const {
    return index_.slot_at(probe(fid, page));
  }

  // --- intrusive LRU plumbing (head_ = LRU victim, tail_ = most recent) ---
  void lru_unlink(std::uint32_t s);
  void lru_push_back(std::uint32_t s);
  void touch(std::uint32_t s) {
    lru_unlink(s);
    lru_push_back(s);
  }
  /// Make (fid, page) resident and most recently used; `dirty` marks it
  /// dirty (a clean insert never clears the bit).
  void insert(std::uint64_t fid, std::uint64_t page, bool dirty);
  /// Add the absent page (fid, page) at index bucket `bucket` (the empty
  /// bucket probe() just returned for it).
  void insert_at(std::size_t bucket, std::uint64_t fid, std::uint64_t page,
                 bool dirty);
  /// Mark resident `slot` dirty (if `dirty`) and most recently used.
  void hit(std::uint32_t slot, bool dirty);
  /// Evict LRU pages until a batch below capacity; dirty victims are written
  /// to disk in address-sorted, coalesced runs. Callers enter only when
  /// resident_bytes() exceeds the capacity.
  sim::Task<void> ensure_room();

  sim::Simulation* sim_;
  Disk* disk_;
  sim::BandwidthServer* mem_;
  CacheParams p_;
  std::vector<Page> pool_;
  FlatIndex index_;  // pool slot per bucket
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;  // least recently used
  std::uint32_t tail_ = kNil;  // most recently used
  std::uint64_t dirty_count_ = 0;
  Stats stats_;
};

}  // namespace csar::hw
