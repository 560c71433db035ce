#pragma once
// Bounded lock-free multi-producer/multi-consumer ring (Dmitry Vyukov's
// sequence-numbered design). Each cell carries a sequence counter that
// encodes whose turn it is: producers claim a ticket from `head_`, wait
// for `seq == ticket`, write, then publish `seq = ticket + 1`; consumers
// claim from `tail_`, wait for `seq == ticket + 1`, read, then recycle
// the cell with `seq = ticket + capacity`. Both ends are wait-free in
// the uncontended case and never spin while the ring is full/empty —
// try_push/try_pop return false instead, which is exactly the admission
// behaviour a bounded ingest queue wants (the caller counts the bounce
// as a rejection).
//
// This is the producer→server handoff of the serving subsystem: client
// threads push requests concurrently with zero locks, and the (single- or
// multi-threaded) drain side pops them for the deterministic replay loop.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace glp {

template <typename T>
class MpmcRing {
 public:
  /// Capacity is rounded up to a power of two (index masking keeps the
  /// hot path branch-free); at least 2.
  explicit MpmcRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    GLP_REQUIRE(cap <= (std::size_t{1} << 31),
                "mpmc ring capacity too large: " << capacity);
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy (exact only when quiescent).
  std::size_t size_approx() const {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    return h >= t ? h - t : 0;
  }

  /// Enqueue a copy, or return false when the ring is full.
  bool try_push(const T& value) {
    T copy(value);
    return try_push(std::move(copy));
  }

  /// Enqueue, or return false when the ring is full. Binds by reference,
  /// so on failure the caller's value is NOT consumed — `while
  /// (!ring.try_push(std::move(v)))` retry loops are safe.
  bool try_push(T&& value) {
    Cell* cell;
    std::size_t ticket = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[ticket & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t delta = static_cast<std::intptr_t>(seq) -
                                  static_cast<std::intptr_t>(ticket);
      if (delta == 0) {
        if (head_.compare_exchange_weak(ticket, ticket + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (delta < 0) {
        return false;  // cell still owned by a consumer one lap behind: full
      } else {
        ticket = head_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(ticket + 1, std::memory_order_release);
    return true;
  }

  /// Dequeue into `out`, or return false when the ring is empty.
  bool try_pop(T& out) {
    Cell* cell;
    std::size_t ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[ticket & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t delta = static_cast<std::intptr_t>(seq) -
                                  static_cast<std::intptr_t>(ticket + 1);
      if (delta == 0) {
        if (tail_.compare_exchange_weak(ticket, ticket + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (delta < 0) {
        return false;  // producer has not published this cell yet: empty
      } else {
        ticket = tail_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->seq.store(ticket + mask_ + 1, std::memory_order_release);
    return true;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    T value;
  };

  // Head and tail on separate cache lines so producers and consumers do
  // not false-share their claim counters.
  static constexpr std::size_t kCacheLine = 64;
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
};

}  // namespace glp
