#ifndef TEMPUS_SERVER_ADMISSION_H_
#define TEMPUS_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "common/status.h"

namespace tempus {

/// Query admission control: at most `max_active` queries execute at once,
/// at most `max_queued` more wait for a slot, and everything beyond that
/// is rejected immediately with Status::Unavailable — the clean REJECTED
/// response under overload. Capacity is a slot count, not a memory
/// estimate. The stream operators bound each query's workspace, but not
/// its result: the server materializes the whole result, and a
/// before-join over 3k x 3k tuples emits about 4.6M rows, so one admitted
/// query's memory is not bounded (ROADMAP item 4).
class AdmissionController {
 public:
  AdmissionController(size_t max_active, size_t max_queued)
      : max_active_(max_active == 0 ? 1 : max_active),
        max_queued_(max_queued) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Claims an execution slot, waiting in the bounded queue if necessary.
  /// Returns Unavailable when the queue is full or the controller was
  /// shut down. Every Ok() must be paired with Release().
  Status Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return Status::Unavailable("server is shutting down");
    if (active_ < max_active_) {
      ++active_;
      return Status::Ok();
    }
    if (queued_ >= max_queued_) {
      return Status::Unavailable("server overloaded: admission queue full");
    }
    ++queued_;
    cv_.wait(lock, [this] { return shutdown_ || active_ < max_active_; });
    --queued_;
    if (shutdown_) return Status::Unavailable("server is shutting down");
    ++active_;
    return Status::Ok();
  }

  /// Returns a slot claimed by Acquire().
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_.notify_one();
  }

  /// Fails all waiters and every future Acquire() with Unavailable.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

  size_t active() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
  }
  size_t queued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queued_;
  }

 private:
  const size_t max_active_;
  const size_t max_queued_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t active_ = 0;
  size_t queued_ = 0;
  bool shutdown_ = false;
};

}  // namespace tempus

#endif  // TEMPUS_SERVER_ADMISSION_H_
