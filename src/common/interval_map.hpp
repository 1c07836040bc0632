// IntervalMap<V>: disjoint half-open ranges [start,end) each carrying a
// value. Inserting over existing ranges overwrites them, slicing partially
// covered entries via a user-supplied Slicer so that the surviving pieces
// keep consistent payloads.
//
// Used for sparse file content (V = Buffer) and for the Hybrid scheme's
// overflow tables (V = overflow location).
//
// Flat representation: entries live in a start-sorted std::vector, so every
// lookup is a binary search over contiguous memory and the per-entry
// node allocations of the old std::map layout are gone. Entry values move
// during splices; V must be cheaply movable (Buffer is).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/small_vec.hpp"

namespace csar {

/// Slicer concept: given a value covering `len_total` bytes, produce the
/// payload for the sub-range starting `offset` bytes in, `len` bytes long.
///   V operator()(const V& v, std::uint64_t offset, std::uint64_t len) const;
template <typename V, typename Slicer>
class IntervalMap {
 public:
  struct Chunk {
    std::uint64_t start;
    std::uint64_t end;
    const V* value;
  };

  IntervalMap() = default;
  explicit IntervalMap(Slicer slicer) : slicer_(std::move(slicer)) {}

  /// Map [start,end) to `value`, overwriting any previous contents.
  void insert(std::uint64_t start, std::uint64_t end, V value) {
    if (start >= end) return;
    erase(start, end);
    entries_.insert(
        entries_.begin() + static_cast<std::ptrdiff_t>(upper_idx(start)),
        Entry{start, end, std::move(value)});
  }

  /// Remove [start,end), splitting partially covered entries.
  void erase(std::uint64_t start, std::uint64_t end) {
    if (start >= end) return;
    std::size_t i = upper_idx(start);
    if (i > 0 && entries_[i - 1].end > start) --i;
    std::size_t j = i;
    bool have_head = false, have_tail = false;
    Entry head, tail;
    while (j < entries_.size() && entries_[j].start < end) {
      const std::uint64_t rs = entries_[j].start;
      const std::uint64_t re = entries_[j].end;
      V v = std::move(entries_[j].value);
      ++j;
      if (rs < start) {
        head = Entry{rs, start, slicer_(v, 0, start - rs)};
        have_head = true;
      }
      if (re > end) {
        tail = Entry{end, re, slicer_(v, end - rs, re - end)};
        have_tail = true;
        break;
      }
    }
    if (i == j) return;
    const std::size_t keep =
        (have_head ? 1u : 0u) + (have_tail ? 1u : 0u);
    if (keep == 2) {
      if (j - i == 1) {  // splitting one entry in two: make room
        entries_.insert(
            entries_.begin() + static_cast<std::ptrdiff_t>(i) + 1, Entry{});
        ++j;
      }
      entries_[i] = std::move(head);
      entries_[i + 1] = std::move(tail);
    } else if (keep == 1) {
      entries_[i] = have_head ? std::move(head) : std::move(tail);
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i + keep),
                   entries_.begin() + static_cast<std::ptrdiff_t>(j));
  }

  /// The mapped sub-ranges of [start,end), clipped, in order. The returned
  /// `value` pointers refer to the *whole* stored entry; `start - entry_start`
  /// gives the offset of the clipped chunk within it. To keep that
  /// arithmetic trivial for callers, each Chunk also records the entry start.
  /// Pointers are valid until the next mutation. Up to four chunks (the
  /// common request-sized query) come back without a heap allocation.
  struct Query {
    std::uint64_t start;        ///< clipped chunk start
    std::uint64_t end;          ///< clipped chunk end
    std::uint64_t entry_start;  ///< start of the stored entry
    const V* value;             ///< payload of the stored entry
  };
  SmallVec<Query, 4> query(std::uint64_t start, std::uint64_t end) const {
    SmallVec<Query, 4> out;
    if (start >= end) return out;
    std::size_t i = upper_idx(start);
    if (i > 0 && entries_[i - 1].end > start) --i;
    for (; i < entries_.size() && entries_[i].start < end; ++i) {
      out.push_back({std::max(entries_[i].start, start),
                     std::min(entries_[i].end, end), entries_[i].start,
                     &entries_[i].value});
    }
    return out;
  }

  /// True iff any byte of [start, end) is mapped.
  bool intersects(std::uint64_t start, std::uint64_t end) const {
    if (start >= end) return false;
    const std::size_t i = upper_idx(start);
    if (i > 0 && entries_[i - 1].end > start) return true;
    return i < entries_.size() && entries_[i].start < end;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// Total bytes covered by all entries.
  std::uint64_t covered_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& e : entries_) sum += e.end - e.start;
    return sum;
  }

  /// Largest mapped end offset, or 0 when empty.
  std::uint64_t upper_bound() const {
    return entries_.empty() ? 0 : entries_.back().end;
  }

  /// Visit every entry in order: f(start, end, const V&).
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& e : entries_) f(e.start, e.end, e.value);
  }

 private:
  struct Entry {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    V value{};
  };

  /// Index of the first entry with entry.start > start.
  std::size_t upper_idx(std::uint64_t start) const {
    return static_cast<std::size_t>(
        std::upper_bound(entries_.begin(), entries_.end(), start,
                         [](std::uint64_t v, const Entry& e) {
                           return v < e.start;
                         }) -
        entries_.begin());
  }

  std::vector<Entry> entries_;  // sorted by start, disjoint
  Slicer slicer_;
};

}  // namespace csar
