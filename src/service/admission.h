// Admission control for the scan service: a bounded FIFO with backpressure.
//
// Scan requests are admitted only while the queue has room; a full queue
// rejects immediately (the session answers with a 429-style error) instead
// of buffering unboundedly — under fleet-scale load the daemon must shed
// work it cannot schedule, not OOM or silently stretch latency. Dispatcher
// threads block in next() until work arrives or the queue is closed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "service/protocol.h"

namespace patchecko::service {

/// Thread-safe response writer bound to the submitting session. May be
/// invoked from a dispatcher thread well after admission; implementations
/// swallow write failures (a vanished client must not kill the job).
using RespondFn = std::function<void(const std::string& payload)>;

/// One admitted scan, queued for a dispatcher.
struct PendingScan {
  std::uint64_t id = 0;
  Request request;
  RespondFn respond;
  /// Admission timestamp; the dispatcher derives the access-log queue-wait
  /// from it when the scan finally starts.
  std::chrono::steady_clock::time_point admitted_at{};
  /// Request payload size as read off the wire (access-log bytes_in).
  std::size_t bytes_in = 0;
  /// Running response byte count for this request (accepted frame + result
  /// frame). Shared because the session wrapper that counts writes outlives
  /// the queue entry.
  std::shared_ptr<std::atomic<std::uint64_t>> bytes_out;
};

struct AdmissionStats {
  std::size_t depth = 0;     ///< queued, not yet dispatched
  std::size_t active = 0;    ///< dispatched, still running
  std::size_t capacity = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity);

  /// False when the queue is full or closed (the caller sends the 429/503).
  bool try_admit(PendingScan scan);

  /// Blocks until a scan is available; nullopt once the queue is closed and
  /// empty (dispatcher shutdown).
  std::optional<PendingScan> next();

  /// Counts one finished scan in stats().completed. A dispatcher calls it
  /// before sending the scan's final frame, so a client holding its result
  /// already sees the scan counted.
  void count_completed();

  /// A dispatched scan finished and its final frame is sent (success or
  /// failure); releases wait_idle once nothing is queued or running.
  void job_done();

  /// Stops admission and wakes blocked dispatchers; queued scans still
  /// drain through next().
  void close();
  bool closed() const;

  /// Blocks until nothing is queued or running (drain barrier).
  void wait_idle();

  AdmissionStats stats() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable available_;  ///< signals dispatchers
  std::condition_variable idle_;       ///< signals wait_idle
  std::deque<PendingScan> queue_;
  std::size_t active_ = 0;
  bool closed_ = false;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace patchecko::service
