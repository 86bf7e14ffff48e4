// In-memory span log for the benchmark's traced run.
//
// The benchmark wraps its own calls into each layer's public functions in
// spans; nothing inside the program is instrumented. A span records its
// name, start, end, parent span, request id, thread, and the heap
// allocations its thread made while it was open (obs::thread_allocation_count,
// which counts only while obs::enabled() is true). Spans stay in memory
// until the run ends; summarize() derives each span's self time (duration
// minus the part of its interval covered by child spans) and self
// allocations (minus same-thread children), and write_jsonl() dumps them.
//
// The layer of a span is its name up to the first '.', so "dl.score" belongs
// to layer "dl". "bench.*" spans are the benchmark's own orchestration.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;      ///< 1-based, in start order
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  const char* name = "";     ///< string literal
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;  ///< since the log's epoch
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< thread allocations while open
};

/// Process-wide span log; disabled (no clock reads, no records) by default.
class SpanLog {
 public:
  static SpanLog& global();

  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void clear();

  std::uint64_t begin();  ///< reserves an id
  void finish(SpanRecord record);
  std::vector<SpanRecord> records() const;
  std::int64_t now_ns() const;

 private:
  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII span. Parent = innermost open span on this thread (or the parent a
/// ParentScope installed); request = the thread's RequestScope id.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  bool active_ = false;
};

/// Makes `parent` the enclosing span of spans opened on this thread, so
/// work handed to pool threads nests under the span that launched it.
class ParentScope {
 public:
  ParentScope(std::uint64_t parent, std::uint64_t request);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  std::size_t depth_;
  std::uint64_t previous_request_;
};

/// Tags spans opened on this thread with a request id.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t previous_;
};

std::uint64_t current_request();

/// Per-layer totals over a span set.
struct LayerTotals {
  double self_ns = 0.0;
  std::uint64_t self_allocs = 0;
  std::uint64_t count = 0;
};

struct SpanSummary {
  std::vector<std::int64_t> self_ns;  ///< index-aligned with the records
  std::vector<std::uint64_t> self_allocs;
  std::map<std::string, LayerTotals> by_name;
  std::map<std::string, LayerTotals> by_layer;
  std::size_t bad_parents = 0;        ///< parent id that names no span
  std::size_t escaping_children = 0;  ///< child interval outside its parent
};

SpanSummary summarize(const std::vector<SpanRecord>& records);

/// One JSON object per span, in id order, with self time and allocations.
bool write_jsonl(const std::string& path, const std::vector<SpanRecord>& records,
                 const SpanSummary& summary);

}  // namespace perfbench
