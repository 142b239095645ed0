#pragma once

/// \file scheduler.h
/// Per-client fair-share queue with priority classes: the order in which
/// SimService hands queued jobs to its workers.
///
/// One worker pool serves many clients (the daemon's, or the CLI's one),
/// and a plain FIFO would let one client's 500-point sweep starve
/// everyone else, so dequeue order is decided here:
///
///   1. Across priority classes: weighted round-robin (high=4, normal=2,
///      low=1).  Every non-empty class is visited each cycle, so low
///      priority means a smaller share, never starvation.
///   2. Within a class, across clients: round-robin in first-seen order —
///      each client gets one entry per turn regardless of how many it has
///      queued.
///   3. Within a client: FIFO by submission sequence number.
///
/// With one client in one class (every --sweep and bench/throughput) the
/// order is plain FIFO.  The queue is a single-threaded data structure
/// (SimService serializes access under its own mutex) and is fully
/// deterministic: the same enqueue sequence always produces the same
/// dequeue sequence, which is what makes the fair-share tests exact
/// rather than statistical.  See DESIGN.md §13.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.h"

namespace ringclu {

enum class PriorityClass { High, Normal, Low };

inline constexpr std::size_t kPriorityClassCount = 3;

/// Dequeue weight of \p cls per round-robin cycle.
[[nodiscard]] constexpr int priority_class_weight(PriorityClass cls) {
  switch (cls) {
    case PriorityClass::High: return 4;
    case PriorityClass::Normal: return 2;
    case PriorityClass::Low: return 1;
  }
  return 1;
}

/// "high" | "normal" | "low" -> class; nullopt on anything else.
[[nodiscard]] inline std::optional<PriorityClass> parse_priority_class(
    std::string_view name) {
  if (name == "high") return PriorityClass::High;
  if (name == "normal") return PriorityClass::Normal;
  if (name == "low") return PriorityClass::Low;
  return std::nullopt;
}

[[nodiscard]] constexpr std::string_view priority_class_name(
    PriorityClass cls) {
  switch (cls) {
    case PriorityClass::High: return "high";
    case PriorityClass::Normal: return "normal";
    case PriorityClass::Low: return "low";
  }
  return "normal";
}

/// One queued \p T with the identity fair share schedules it by.
template <typename T>
struct SchedEntry {
  T item;
  std::string client;
  PriorityClass priority = PriorityClass::Normal;
  /// Submission sequence: FIFO tie-break within one client.
  std::uint64_t seq = 0;
};

template <typename T>
class FairScheduler {
 public:
  /// Adds \p entry to its client's queue (creating the client's rotation
  /// slot on first sight).  \pre entry.seq exceeds every seq queued for
  /// the same client and class.
  void enqueue(SchedEntry<T> entry) {
    ClassQueue& cls = classes_[static_cast<std::size_t>(entry.priority)];
    const auto [it, inserted] = cls.clients.try_emplace(entry.client);
    if (inserted) cls.rotation.push_back(entry.client);
    // Per-client FIFO: entries arrive in seq order, so push_back keeps
    // the deque sorted by seq.
    RINGCLU_EXPECTS(it->second.empty() || it->second.back().seq < entry.seq);
    it->second.push_back(std::move(entry));
    ++size_;
  }

  /// Removes and returns the next entry per the policy above; nullopt
  /// when empty.
  [[nodiscard]] std::optional<SchedEntry<T>> dequeue() {
    if (size_ == 0) return std::nullopt;
    for (;;) {
      for (ClassQueue& cls : classes_) {
        if (cls.credits > 0 && !cls.rotation.empty()) {
          --cls.credits;
          --size_;
          return cls.take();
        }
      }
      // No class holds both credits and work: start a new WRR cycle.
      classes_[0].credits = priority_class_weight(PriorityClass::High);
      classes_[1].credits = priority_class_weight(PriorityClass::Normal);
      classes_[2].credits = priority_class_weight(PriorityClass::Low);
    }
  }

  /// Queued entries in \p cls.
  [[nodiscard]] std::size_t depth(PriorityClass cls) const {
    std::size_t total = 0;
    for (const auto& [client, queue] :
         classes_[static_cast<std::size_t>(cls)].clients) {
      total += queue.size();
    }
    return total;
  }
  /// Queued entries across all classes.
  [[nodiscard]] std::size_t depth() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  /// One priority class: per-client FIFOs plus the client rotation.
  struct ClassQueue {
    /// Client -> queued entries.  std::map: deterministic, and iterated
    /// only for depth accounting.
    std::map<std::string, std::deque<SchedEntry<T>>> clients;
    /// Clients with queued work, first-seen order; next points at the
    /// client whose turn is next.
    std::vector<std::string> rotation;
    std::size_t next = 0;
    /// Remaining dequeues this WRR cycle (refilled from the weight).
    int credits = 0;

    [[nodiscard]] SchedEntry<T> take() {
      if (next >= rotation.size()) next = 0;
      const std::string client = rotation[next];
      std::deque<SchedEntry<T>>& queue = clients.at(client);
      SchedEntry<T> entry = std::move(queue.front());
      queue.pop_front();
      if (queue.empty()) {
        // The client leaves the rotation; `next` now already points at
        // the following client (or wraps).
        clients.erase(client);
        rotation.erase(rotation.begin() + static_cast<std::ptrdiff_t>(next));
      } else {
        ++next;
      }
      if (next >= rotation.size()) next = 0;
      return entry;
    }
  };

  ClassQueue classes_[kPriorityClassCount];
  std::size_t size_ = 0;
};

}  // namespace ringclu
