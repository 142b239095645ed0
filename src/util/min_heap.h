#pragma once

/// \file min_heap.h
/// A binary min-heap over T::operator>, step for step what
/// std::priority_queue<T, std::vector<T>, std::greater<>> does, plus the
/// equality and checkpoint form a priority_queue lacks.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace ringclu {

template <class T>
class MinHeap {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const T& top() const { return heap_.front(); }

  void push(const T& item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }

  /// Checkpoint fields: the elements in pop order, at most \p max of at
  /// least \p min_bytes each.  The bytes do not depend on the heap layout
  /// because T::operator> is a total order on the contents; loading
  /// rebuilds the heap from that order, so every loaded heap of the same
  /// elements has the same layout.
  template <class Io>
  void transfer(Io& io, std::uint64_t max, std::size_t min_bytes) {
    std::vector<T> items;
    if constexpr (!Io::kLoading) {
      for (MinHeap copy = *this; !copy.empty(); copy.pop()) {
        items.push_back(copy.top());
      }
    }
    io.items(items, max, min_bytes);
    if constexpr (Io::kLoading) {
      heap_ = std::move(items);
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }

  friend bool operator==(const MinHeap&, const MinHeap&) = default;

 private:
  std::vector<T> heap_;
};

}  // namespace ringclu
