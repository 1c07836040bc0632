// FlatIndex: an open-addressing index of 32-bit slot ids, and FlatMap, a
// u64-keyed table built on it.
//
// The index is a power-of-two array of buckets, each empty (kNil) or
// holding the id of a record the owner keeps in its own pool; it never sees
// keys, only the owner's `home` bucket and match predicate. Linear probing,
// kept at most half full, deletion by backward shift (no tombstones, so
// probe chains never rot under churn). Insert, find and erase move no
// records and allocate nothing; the bucket array only doubles on real
// growth and clear() empties it in place.
//
// PageCache indexes its page pool with it directly (its keys are
// (file, page) pairs read back from the pool). FlatMap is the general
// case: records in a std::deque, so a value's address is stable for its
// whole life — across growth of the map and across inserts and erases of
// other keys — and slots recycle through a free list.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace csar {

class FlatIndex {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// `buckets` must be a power of two, at least 8.
  explicit FlatIndex(std::size_t buckets)
      : b_(buckets, kNil), shift_(64 - std::countr_zero(buckets)) {
    assert(buckets >= 8 && std::has_single_bit(buckets));
  }

  std::size_t mask() const { return b_.size() - 1; }
  /// 64 - log2(buckets): a 64-bit hash's top bits are `hash >> shift()`.
  int shift() const { return shift_; }
  /// Slots currently indexed.
  std::uint32_t count() const { return count_; }
  std::uint32_t slot_at(std::size_t bucket) const { return b_[bucket]; }

  /// The bucket of `home`'s probe chain holding a slot `is(slot)` accepts,
  /// or the empty bucket that ends the chain (the insert position).
  template <class Is>
  std::size_t probe(std::size_t home, Is is) const {
    for (std::size_t b = home;; b = (b + 1) & mask()) {
      const std::uint32_t s = b_[b];
      if (s == kNil || is(s)) return b;
    }
  }

  /// True when one more slot would take the index past half full; grow()
  /// first (which invalidates buckets returned by probe()).
  bool needs_grow() const {
    return 2 * (static_cast<std::size_t>(count_) + 1) > b_.size();
  }

  /// Store `slot` in the empty bucket probe() returned.
  void fill(std::size_t bucket, std::uint32_t slot) {
    assert(b_[bucket] == kNil);
    b_[bucket] = slot;
    ++count_;
  }

  /// Double the bucket array and re-place every slot; `home_of(slot)` must
  /// hash with the new shift().
  template <class HomeOf>
  void grow(HomeOf home_of) {
    std::vector<std::uint32_t> old(2 * b_.size(), kNil);
    old.swap(b_);
    --shift_;
    count_ = 0;
    for (const std::uint32_t s : old) {
      if (s != kNil) fill(probe(home_of(s), no_match), s);
    }
  }

  /// Remove `slot` (whose home bucket is home_of(slot)), pulling later
  /// members of its probe chain back into the hole whenever the hole lies
  /// between their home bucket and their position.
  template <class HomeOf>
  void erase(std::uint32_t slot, HomeOf home_of) {
    const std::size_t m = mask();
    std::size_t hole = home_of(slot);
    while (b_[hole] != slot) hole = (hole + 1) & m;
    for (std::size_t b = (hole + 1) & m; b_[b] != kNil; b = (b + 1) & m) {
      const std::size_t h = home_of(b_[b]);
      if (((b - h) & m) >= ((b - hole) & m)) {
        b_[hole] = b_[b];
        hole = b;
      }
    }
    b_[hole] = kNil;
    --count_;
  }

  /// Forget every slot; the bucket array keeps its size.
  void clear() {
    std::fill(b_.begin(), b_.end(), kNil);
    count_ = 0;
  }

 private:
  static bool no_match(std::uint32_t) { return false; }

  std::vector<std::uint32_t> b_;
  int shift_;
  std::uint32_t count_ = 0;
};

/// u64 -> V table over a FlatIndex (Fibonacci hashing of the key). Values
/// are default-constructed on first use and never move; erase() resets a
/// value in place and recycles its slot. for_each() visits live entries in
/// slot order, which depends only on the sequence of inserts and erases,
/// so iteration is deterministic.
template <class V>
class FlatMap {
 public:
  FlatMap() = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  /// The value at `key`, or null.
  V* find(std::uint64_t key) {
    const std::uint32_t s = slot_of(key);
    return s == FlatIndex::kNil ? nullptr : &pool_[s].value;
  }

  /// The value at `key`, default-constructed if absent.
  V& operator[](std::uint64_t key) {
    std::size_t b = index_.probe(home(key), matches(key));
    std::uint32_t s = index_.slot_at(b);
    if (s != FlatIndex::kNil) return pool_[s].value;
    if (index_.needs_grow()) {
      index_.grow([this](std::uint32_t x) { return home(pool_[x].key); });
      b = index_.probe(home(key), matches(key));
    }
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
      pool_[s].key = key;
    } else {
      s = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Entry{key, V{}});
    }
    pool_[s].live = true;
    index_.fill(b, s);
    return pool_[s].value;
  }

  /// Remove `key` (no-op if absent); its value is reset to V{}.
  void erase(std::uint64_t key) {
    const std::uint32_t s = slot_of(key);
    if (s != FlatIndex::kNil) erase_slot(s);
  }

  /// Remove every entry `pred(key, value)` accepts, in slot order.
  template <class Pred>
  void erase_if(Pred pred) {
    for (std::uint32_t s = 0; s < pool_.size(); ++s) {
      if (pool_[s].live && pred(pool_[s].key, pool_[s].value)) erase_slot(s);
    }
  }

  /// Visit every entry as fn(key, value), in slot order.
  template <class Fn>
  void for_each(Fn fn) {
    for (Entry& e : pool_) {
      if (e.live) fn(e.key, e.value);
    }
  }
  template <class Fn>
  void for_each(Fn fn) const {
    for (const Entry& e : pool_) {
      if (e.live) fn(e.key, e.value);
    }
  }

  void clear() {
    pool_.clear();
    free_.clear();
    index_.clear();
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    V value{};
    bool live = false;
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    index_.shift());
  }
  auto matches(std::uint64_t key) const {
    return [this, key](std::uint32_t s) { return pool_[s].key == key; };
  }
  std::uint32_t slot_of(std::uint64_t key) const {
    return index_.slot_at(index_.probe(home(key), matches(key)));
  }
  void erase_slot(std::uint32_t s) {
    index_.erase(s, [this](std::uint32_t x) { return home(pool_[x].key); });
    pool_[s].value = V{};
    pool_[s].live = false;
    free_.push_back(s);
  }

  std::deque<Entry> pool_;
  std::vector<std::uint32_t> free_;
  FlatIndex index_{16};
};

}  // namespace csar
