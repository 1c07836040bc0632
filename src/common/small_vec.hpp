// SmallVec<T, N>: a vector that keeps its first N elements inline.
//
// The request path builds many short per-op lists (a 16 KiB request's
// unit extents, a write's partial segments, an overflow-table query plan).
// With std::vector each list is a heap allocation; SmallVec holds up to N
// elements in the object itself and only spills to the heap beyond that.
// It offers the subset of the std::vector interface those lists use.
// Unlike std::vector, moving an inline SmallVec moves its elements, so
// pointers into a moved-from list are not carried over.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace csar {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "use std::vector for no inline capacity");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  SmallVec(const SmallVec& o) { append_copy(o); }
  SmallVec(SmallVec&& o) noexcept { take(std::move(o)); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      clear();
      append_copy(o);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      take(std::move(o));
    }
    return *this;
  }
  ~SmallVec() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  T* begin() { return ptr_; }
  T* end() { return ptr_ + size_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return ptr_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return ptr_[i];
  }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(2 * cap_);
    T* p = ::new (static_cast<void*>(ptr_ + size_))
        T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void clear() {
    std::destroy_n(ptr_, size_);
    size_ = 0;
  }

 private:
  T* inline_ptr() { return std::launder(reinterpret_cast<T*>(inline_)); }
  bool is_inline() const {
    return ptr_ == reinterpret_cast<const T*>(inline_);
  }

  void grow(std::size_t n) {
    T* p = std::allocator<T>().allocate(n);
    std::uninitialized_move_n(ptr_, size_, p);
    std::destroy_n(ptr_, size_);
    if (!is_inline()) std::allocator<T>().deallocate(ptr_, cap_);
    ptr_ = p;
    cap_ = n;
  }

  void release() {
    clear();
    if (!is_inline()) std::allocator<T>().deallocate(ptr_, cap_);
    ptr_ = inline_ptr();
    cap_ = N;
  }

  void append_copy(const SmallVec& o) {
    reserve(o.size_);
    std::uninitialized_copy_n(o.ptr_, o.size_, ptr_);
    size_ = o.size_;
  }

  /// Adopt `o`'s elements (this is empty and inline): steal a heap buffer,
  /// move inline elements one by one.
  void take(SmallVec&& o) {
    if (o.is_inline()) {
      std::uninitialized_move_n(o.ptr_, o.size_, ptr_);
      size_ = o.size_;
      o.clear();
    } else {
      ptr_ = std::exchange(o.ptr_, o.inline_ptr());
      cap_ = std::exchange(o.cap_, N);
      size_ = std::exchange(o.size_, 0);
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* ptr_ = inline_ptr();
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace csar
