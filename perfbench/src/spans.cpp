#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "obs/resource.h"

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> t_stack;
thread_local std::uint64_t t_request = 0;

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

}  // namespace

SpanLog& SpanLog::global() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::set_enabled(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (records_.capacity() < (1u << 18)) records_.reserve(1u << 18);
  }
  enabled_.store(on, std::memory_order_relaxed);
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  next_id_.store(1);
  epoch_ns_ = steady_ns();
}

std::uint64_t SpanLog::begin() { return next_id_.fetch_add(1); }

void SpanLog::finish(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<SpanRecord> SpanLog::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out = records_;
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

std::int64_t SpanLog::now_ns() const { return steady_ns() - epoch_ns_; }

Span::Span(const char* name) {
  SpanLog& log = SpanLog::global();
  if (!log.enabled()) return;
  active_ = true;
  record_.id = log.begin();
  record_.parent = t_stack.empty() ? 0 : t_stack.back();
  record_.request = t_request;
  record_.name = name;
  record_.thread = thread_ordinal();
  record_.allocs = patchecko::obs::thread_allocation_count();
  t_stack.push_back(record_.id);
  record_.start_ns = log.now_ns();
}

Span::~Span() {
  if (!active_) return;
  SpanLog& log = SpanLog::global();
  record_.end_ns = log.now_ns();
  record_.allocs = patchecko::obs::thread_allocation_count() - record_.allocs;
  t_stack.pop_back();
  log.finish(record_);
}

ParentScope::ParentScope(std::uint64_t parent, std::uint64_t request)
    : depth_(t_stack.size()), previous_request_(t_request) {
  t_stack.push_back(parent);
  t_request = request;
}

ParentScope::~ParentScope() {
  t_stack.resize(depth_);
  t_request = previous_request_;
}

RequestScope::RequestScope(std::uint64_t request) : previous_(t_request) {
  t_request = request;
}

RequestScope::~RequestScope() { t_request = previous_; }

std::uint64_t current_request() { return t_request; }

SpanSummary summarize(const std::vector<SpanRecord>& records) {
  SpanSummary summary;
  const std::size_t n = records.size();
  summary.self_ns.assign(n, 0);
  summary.self_allocs.assign(n, 0);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index_of[records[i].id] = i;

  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (records[i].parent == 0) continue;
    const auto it = index_of.find(records[i].parent);
    if (it == index_of.end()) {
      ++summary.bad_parents;
      continue;
    }
    const SpanRecord& parent = records[it->second];
    if (records[i].start_ns < parent.start_ns ||
        records[i].end_ns > parent.end_ns)
      ++summary.escaping_children;
    children[it->second].push_back(i);
  }

  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& span = records[i];
    covered.clear();
    std::uint64_t child_allocs = 0;
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(records[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(records[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
      if (records[c].thread == span.thread) child_allocs += records[c].allocs;
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0, reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    // Never negative: the covered part is a union clipped to the span.
    const std::int64_t self = (span.end_ns - span.start_ns) - covered_ns;
    summary.self_ns[i] = self;
    summary.self_allocs[i] =
        span.allocs > child_allocs ? span.allocs - child_allocs : 0;

    for (auto* totals : {&summary.by_name[span.name],
                         &summary.by_layer[layer_of(span.name)]}) {
      totals->self_ns += static_cast<double>(self);
      totals->self_allocs += summary.self_allocs[i];
      ++totals->count;
    }
  }
  return summary;
}

bool write_jsonl(const std::string& path, const std::vector<SpanRecord>& records,
                 const SpanSummary& summary) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& span = records[i];
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"thread\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%lld,\"allocs\":%llu,"
                 "\"self_allocs\":%llu}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 span.thread, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(summary.self_ns[i]),
                 static_cast<unsigned long long>(span.allocs),
                 static_cast<unsigned long long>(summary.self_allocs[i]));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
