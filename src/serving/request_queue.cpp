#include "serving/request_queue.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace serving {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  GLP_REQUIRE(capacity_ >= 1, "request queue capacity must be positive");
}

std::uint32_t RequestQueue::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void RequestQueue::recycle_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.live = false;
  s.seq = 0;
  s.req = InferenceRequest{};  // drop any input payload eagerly
  free_.push_back(idx);
}

bool RequestQueue::push(InferenceRequest r) {
  if (size_ >= capacity_) return false;
  const std::uint32_t idx = alloc_slot();
  Slot& s = slots_[idx];
  s.seq = next_seq_++;
  s.live = true;
  const gpusim::SimTime deadline = r.downgraded ? 0.0 : r.deadline_ns;
  s.req = std::move(r);
  fifo_.push_back(idx);
  if (deadline > 0.0) deadlines_.push({deadline, s.seq, idx});
  ++size_;
  return true;
}

void RequestQueue::clean_front() {
  while (!fifo_.empty() && !slots_[fifo_.front()].live) {
    recycle_slot(fifo_.front());
    fifo_.pop_front();
  }
}

const InferenceRequest* RequestQueue::oldest() {
  if (size_ == 0) return nullptr;
  clean_front();
  GLP_CHECK(!fifo_.empty());
  return &slots_[fifo_.front()].req;
}

void RequestQueue::clean_heap() const {
  while (!deadlines_.empty()) {
    const DeadlineEntry& top = deadlines_.top();
    const Slot& s = slots_[top.slot];
    if (s.live && s.seq == top.seq) return;
    deadlines_.pop();
  }
}

gpusim::SimTime RequestQueue::next_deadline() const {
  clean_heap();
  if (deadlines_.empty()) {
    return std::numeric_limits<gpusim::SimTime>::infinity();
  }
  return deadlines_.top().deadline;
}

std::vector<InferenceRequest> RequestQueue::expire(gpusim::SimTime now) {
  std::vector<InferenceRequest> dropped;
  for (;;) {
    clean_heap();
    if (deadlines_.empty() || deadlines_.top().deadline > now) break;
    const DeadlineEntry top = deadlines_.top();
    deadlines_.pop();
    Slot& s = slots_[top.slot];
    // Kill the slot but leave its handle in `fifo_`; the handle is
    // reclaimed lazily when the deque front reaches it.
    s.live = false;
    GLP_CHECK(size_ > 0);
    --size_;
    dropped.push_back(std::move(s.req));
  }
  // Heap pop order is (deadline, seq), and a request's deadline need not
  // grow with its arrival, so enforce arrival order explicitly.
  std::sort(dropped.begin(), dropped.end(),
            [](const InferenceRequest& a, const InferenceRequest& b) {
              if (a.arrival_ns != b.arrival_ns) {
                return a.arrival_ns < b.arrival_ns;
              }
              return a.id < b.id;
            });
  return dropped;
}

std::vector<InferenceRequest> RequestQueue::pop(std::size_t max_n) {
  std::vector<InferenceRequest> out;
  while (out.size() < max_n && size_ > 0) {
    clean_front();
    const std::uint32_t idx = fifo_.front();
    fifo_.pop_front();
    Slot& s = slots_[idx];
    GLP_CHECK(s.live);
    s.live = false;
    out.push_back(std::move(s.req));
    recycle_slot(idx);
    --size_;
  }
  return out;
}

}  // namespace serving
