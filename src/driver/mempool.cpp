#include "driver/mempool.hpp"

#include <algorithm>

namespace ruru {

void MbufDeleter::operator()(Mbuf* m) const {
  if (m != nullptr && m->pool_ != nullptr) m->pool_->release(m);
}

Mempool::Mempool(std::size_t count, std::size_t buf_size)
    : count_(count),
      buf_size_(buf_size),
      storage_(std::make_unique_for_overwrite<std::uint8_t[]>(count * buf_size)) {
  mbufs_.reserve(count);
  free_list_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    mbufs_.push_back(Mbuf(&storage_[i * buf_size], buf_size));
    mbufs_.back().pool_ = this;
  }
  // Push in reverse so the first alloc returns the first buffer.
  for (std::size_t i = count; i > 0; --i) free_list_.push_back(&mbufs_[i - 1]);
}

Mempool::~Mempool() = default;

void Mempool::reset(Mbuf& m) {
  m.length_ = 0;
  m.timestamp = Timestamp{};
  m.rss_hash = 0;
  m.queue_id = 0;
  m.port_id = 0;
  m.trace_id = 0;
  m.ingest_ns = 0;
}

MbufPtr Mempool::alloc() {
  Mbuf* m = nullptr;
  {
    std::lock_guard lock(mu_);
    if (free_list_.empty()) {
      ++alloc_failures_;
      return nullptr;
    }
    m = free_list_.back();
    free_list_.pop_back();
  }
  reset(*m);
  return MbufPtr(m);
}

std::size_t Mempool::alloc_bulk(std::span<MbufPtr> out) {
  if (out.empty()) return 0;
  std::size_t n = 0;
  {
    std::lock_guard lock(mu_);
    n = std::min(out.size(), free_list_.size());
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = MbufPtr(free_list_.back());
      free_list_.pop_back();
    }
    alloc_failures_ += out.size() - n;
  }
  // Each descriptor's line is touched only now, with the lock released.
  for (std::size_t i = 0; i < n; ++i) reset(*out[i]);
  return n;
}

void Mempool::release(Mbuf* m) {
  std::lock_guard lock(mu_);
  free_list_.push_back(m);
}

void Mempool::free_bulk(std::span<MbufPtr> mbufs) {
  std::size_t i = 0;
  while (i < mbufs.size()) {
    if (!mbufs[i]) {
      ++i;
      continue;
    }
    Mempool* pool = mbufs[i]->pool_;
    std::lock_guard lock(pool->mu_);
    for (; i < mbufs.size(); ++i) {
      if (!mbufs[i]) continue;
      if (mbufs[i]->pool_ != pool) break;
      pool->free_list_.push_back(mbufs[i].release());
    }
  }
}

std::size_t Mempool::available() const {
  std::lock_guard lock(mu_);
  return free_list_.size();
}

std::uint64_t Mempool::alloc_failures() const {
  std::lock_guard lock(mu_);
  return alloc_failures_;
}

}  // namespace ruru
