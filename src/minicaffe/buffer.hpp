#pragma once
// RAII device-memory buffer over scuda::Context. Memory is *not*
// initialised on allocation (like cudaMalloc), and timing-only runs issue
// their copies without a functor (the data and input layers included), so
// they never touch the pages; numeric code zero-fills explicitly where
// required.

#include <cstddef>
#include <utility>

#include "common/check.hpp"
#include "simcuda/context.hpp"

namespace mc {

template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(scuda::Context& ctx, std::size_t count) { allocate(ctx, count); }

  DeviceBuffer(DeviceBuffer&& other) noexcept
      : ctx_(other.ctx_), ptr_(other.ptr_), count_(other.count_) {
    other.ctx_ = nullptr;
    other.ptr_ = nullptr;
    other.count_ = 0;
  }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      ctx_ = std::exchange(other.ctx_, nullptr);
      ptr_ = std::exchange(other.ptr_, nullptr);
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer() { release(); }

  void allocate(scuda::Context& ctx, std::size_t count) {
    release();
    ctx_ = &ctx;
    count_ = count;
    ptr_ = static_cast<T*>(ctx.malloc(count * sizeof(T)));
  }

  /// Grow (never shrink) to at least `count` elements. Contents are lost.
  void ensure(scuda::Context& ctx, std::size_t count) {
    if (count > count_) allocate(ctx, count);
  }

  void release() {
    if (ptr_ != nullptr) {
      ctx_->free(ptr_);
      ptr_ = nullptr;
      count_ = 0;
    }
  }

  bool empty() const { return ptr_ == nullptr; }
  std::size_t count() const { return count_; }
  std::size_t bytes() const { return count_ * sizeof(T); }
  T* data() { return ptr_; }
  const T* data() const { return ptr_; }

 private:
  scuda::Context* ctx_ = nullptr;
  T* ptr_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace mc
