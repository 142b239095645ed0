#pragma once

/// \file static_vector.h
/// Fixed-capacity inline vector.  The simulator uses it for tiny hot
/// collections (operand lists, steering candidate sets) where heap churn
/// would dominate; capacity overflow is a contract violation.

#include <algorithm>
#include <array>
#include <cstddef>

#include "util/assert.h"

namespace ringclu {

/// Vector with inline storage for up to N trivially-destructible elements.
template <typename T, std::size_t N>
class StaticVector {
 public:
  using value_type = T;

  constexpr StaticVector() = default;

  constexpr StaticVector(std::initializer_list<T> init) {
    RINGCLU_EXPECTS(init.size() <= N);
    for (const T& item : init) push_back(item);
  }

  constexpr void push_back(const T& value) {
    RINGCLU_EXPECTS(size_ < N);
    items_[size_++] = value;
  }

  constexpr void clear() { size_ = 0; }

  constexpr void pop_back() {
    RINGCLU_EXPECTS(size_ > 0);
    --size_;
  }

  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] static constexpr std::size_t capacity() { return N; }

  [[nodiscard]] constexpr T& operator[](std::size_t index) {
    RINGCLU_EXPECTS(index < size_);
    return items_[index];
  }
  [[nodiscard]] constexpr const T& operator[](std::size_t index) const {
    RINGCLU_EXPECTS(index < size_);
    return items_[index];
  }

  [[nodiscard]] constexpr T& back() {
    RINGCLU_EXPECTS(size_ > 0);
    return items_[size_ - 1];
  }

  [[nodiscard]] constexpr T* begin() { return items_.data(); }
  [[nodiscard]] constexpr T* end() { return items_.data() + size_; }
  [[nodiscard]] constexpr const T* begin() const { return items_.data(); }
  [[nodiscard]] constexpr const T* end() const { return items_.data() + size_; }

  [[nodiscard]] constexpr bool contains(const T& value) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (items_[i] == value) return true;
    }
    return false;
  }

  /// Compares the live elements only.
  friend constexpr bool operator==(const StaticVector& a,
                                   const StaticVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace ringclu
