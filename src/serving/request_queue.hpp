#pragma once
// Bounded FIFO request queue with admission control and deadline expiry:
// one tenant shard's backlog. Requests leave either from the front, in
// arrival order, when the server cuts a batch, or at their deadline; the
// queue itself never reorders anything.
//
// Internals are built for load, not just correctness: requests live in a
// slot-map pool (stable indices, free-list reuse), a deque of handles
// keeps their arrival order, and deadlines sit in a lazily-invalidated
// min-heap. Expiry kills the slot but leaves its handle in the deque; the
// handle is reclaimed (and the slot recycled) when the deque front
// reaches it. That makes every hot operation cheap, amortized over the
// requests that flow through:
//
//   push                O(log n)   (heap insert when the request has a deadline)
//   pop(n)              O(n_popped)
//   oldest()            amortized O(1)
//   next_deadline()     amortized O(log n)
//   expire(now)         O(k log n) for k expired
//
// The seed implementation was a single std::deque with linear scans for
// all of the above — quadratic under sustained load and unusable as the
// reference queue for 100k req/s replays.

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <vector>

#include "serving/request.hpp"

namespace serving {

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Admission control: enqueue, or return false when the queue is full
  /// (the caller records the request as rejected).
  bool push(InferenceRequest r);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Oldest queued request, or nullptr when the queue is empty.
  const InferenceRequest* oldest();

  /// Remove and return (in arrival order) every request whose deadline
  /// passed at `now`. Downgraded requests never expire.
  std::vector<InferenceRequest> expire(gpusim::SimTime now);

  /// Earliest pending deadline, or +infinity when none.
  gpusim::SimTime next_deadline() const;

  /// Pop the oldest `max_n` requests, preserving their relative order.
  std::vector<InferenceRequest> pop(std::size_t max_n);

 private:
  struct Slot {
    InferenceRequest req;
    std::uint64_t seq = 0;  ///< insertion order; 0 = slot free
    bool live = false;
  };
  struct DeadlineEntry {
    gpusim::SimTime deadline = 0.0;
    std::uint64_t seq = 0;  ///< validity check against the slot
    std::uint32_t slot = 0;
  };
  struct DeadlineLater {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      // Min-heap on (deadline, seq): ties resolve to the older request.
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  std::uint32_t alloc_slot();
  /// Return a slot to the free list. Only legal once no handle in
  /// `fifo_` references it any more.
  void recycle_slot(std::uint32_t idx);
  /// Reclaim dead handles off the front of `fifo_`.
  void clean_front();
  /// Pop stale heap entries (request already popped or expired).
  void clean_heap() const;

  std::size_t capacity_;
  std::size_t size_ = 0;  ///< live requests
  std::uint64_t next_seq_ = 1;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::deque<std::uint32_t> fifo_;  ///< oldest first; may hold dead slots
  /// Lazily-invalidated min-heap over requests that carry deadlines;
  /// mutable so next_deadline() can shed stale entries.
  mutable std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                              DeadlineLater>
      deadlines_;
};

}  // namespace serving
