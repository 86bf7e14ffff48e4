#include "service/admission.h"

#include "obs/metrics.h"

namespace patchecko::service {

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

bool AdmissionQueue::try_admit(PendingScan scan) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) {
      ++rejected_;
      obs::Registry::global().counter("service.rejected").add();
      return false;
    }
    queue_.push_back(std::move(scan));
    ++admitted_;
    obs::Registry::global().counter("service.admitted").add();
    obs::Registry::global().gauge("service.queue_depth").add(1);
  }
  available_.notify_one();
  return true;
}

std::optional<PendingScan> AdmissionQueue::next() {
  std::unique_lock<std::mutex> lock(mutex_);
  available_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;
  PendingScan scan = std::move(queue_.front());
  queue_.pop_front();
  ++active_;
  obs::Registry::global().gauge("service.queue_depth").add(-1);
  return scan;
}

void AdmissionQueue::count_completed() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++completed_;
}

void AdmissionQueue::job_done() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ > 0) --active_;
  }
  idle_.notify_all();
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  available_.notify_all();
  idle_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

void AdmissionQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

AdmissionStats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AdmissionStats stats;
  stats.depth = queue_.size();
  stats.active = active_;
  stats.capacity = capacity_;
  stats.admitted = admitted_;
  stats.rejected = rejected_;
  stats.completed = completed_;
  return stats;
}

}  // namespace patchecko::service
