#pragma once
// Lock-free subscription queue: MpmcRing + close semantics + HWM, and
// the eventcount that blocking receives park on.
//
// The bus publish path must take zero locks — a publisher's offer is a
// CAS ticket claim on the ring, a relaxed counter bump and an
// EventCount signal, never a mutex.  The queue itself never blocks; a
// consumer that runs out of work waits on an EventCount (a futex via
// std::atomic::wait), which a publisher signals after its push with one
// fence and one relaxed load, and with a syscall only when a consumer is
// actually parked.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "driver/ring.hpp"

namespace ruru {

/// Parks idle consumers until a producer changes the state they poll.
///
/// Why no wakeup is lost.  A parking consumer (1) snapshots `epoch_`,
/// (2) sets `parked_`, (3) issues a seq_cst fence, (4) re-checks its
/// queues and (5) waits for `epoch_` to leave the snapshot.  A producer
/// pushes, issues a seq_cst fence and loads `parked_`.  The two fences
/// are ordered one way or the other in the single total order of
/// seq_cst operations: either the consumer's re-check sees the push, or
/// the producer's load sees the flag (or a later write of it).  The
/// first producer that sees the flag clears it with an exchange, bumps
/// the epoch and notifies — one FUTEX_WAKE per park, not one per
/// publish.  An exchange that consumes a registration comes after that
/// consumer's snapshot, and so does the bump that follows it, so the
/// consumer's wait cannot sleep on the snapshot: atomic::wait returns at
/// once on a changed value, and notify_all wakes one already asleep.
/// A consumer that finds work at (4) leaves the flag set; the stale
/// flag costs the next producer one exchange and one notify that finds
/// no sleeper, which is cheaper than clearing it and racing another
/// parked consumer's registration.
class EventCount {
 public:
  /// Producer side, after the push it signals is visible.  With no
  /// consumer parked this is one fence and one relaxed load.
  void notify() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) != 0 &&
        parked_.exchange(0, std::memory_order_seq_cst) != 0) {
      wake_all();
    }
  }

  /// Unconditional wake (close): every parked consumer re-checks.
  void wake_all() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
  }

  /// Consumer side: returns the first value `poll()` yields, or an
  /// empty one once `done()` holds.  Polls with `pause` for kSpin
  /// first, so a consumer whose messages arrive less than kSpin apart
  /// never pays a park and a wake; then parks until a producer
  /// notifies.  A woken consumer polls before it registers again, so a
  /// real wake leaves no stale flag behind.
  template <typename Poll, typename Done>
  auto await(Poll&& poll, Done&& done) -> decltype(poll()) {
    const auto spin_until = std::chrono::steady_clock::now() + kSpin;
    while (true) {
      if (auto v = poll()) return v;
      if (done()) return {};
      if (std::chrono::steady_clock::now() < spin_until) {
        cpu_relax();
        continue;
      }
      const std::uint32_t snapshot = epoch_.load(std::memory_order_seq_cst);
      parked_.store(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (auto v = poll()) return v;
      if (done()) return {};
      epoch_.wait(snapshot, std::memory_order_seq_cst);
    }
  }

  /// A consumer has registered to park and no producer has woken it
  /// since (the flag may also be stale, see above).
  [[nodiscard]] bool parked() const noexcept {
    return parked_.load(std::memory_order_relaxed) != 0;
  }

  /// How long await() polls before it parks.  Chosen from the measured
  /// gaps between bus messages (EXPERIMENTS.md E15): it covers the
  /// gap between batches of a steady 300k frames/s feed, and polling
  /// costs a core for as long as the feed lasts.
  static constexpr std::chrono::microseconds kSpin{200};

 private:
  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  std::atomic<std::uint32_t> parked_{0};
  std::atomic<std::uint32_t> epoch_{0};
};

template <typename T>
class BusQueue {
 public:
  /// `hwm` is enforced exactly even when it is not a power of two (the
  /// backing ring rounds its capacity up; the extra slots stay unused).
  explicit BusQueue(std::size_t hwm) : ring_(hwm < 2 ? 2 : hwm), hwm_(hwm == 0 ? 1 : hwm) {}

  BusQueue(const BusQueue&) = delete;
  BusQueue& operator=(const BusQueue&) = delete;

  /// Non-blocking; false when at the HWM or closed. Lock-free.
  bool try_push(T value) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (ring_.size() >= hwm_) return false;
    return ring_.try_push_from(value);
  }

  /// Non-blocking pop. Lock-free.
  std::optional<T> try_pop() { return ring_.try_pop(); }

  /// After close(): pushes fail, pops drain the backlog.  Idempotent.
  /// Whoever waits for this queue is woken by its owner (an EventCount).
  void close() { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }

  /// Closed with nothing left to pop: nothing more can arrive.  A push
  /// that claimed its ticket before close() may still be publishing;
  /// size() already counts it, so only an empty ring means drained.
  [[nodiscard]] bool drained() const { return closed() && size() == 0; }

 private:
  MpmcRing<T> ring_;
  std::size_t hwm_;
  std::atomic<bool> closed_{false};
};

}  // namespace ruru
