#include "obs/trace.h"

#include <map>

#include "obs/metrics.h"  // JsonEscape, stage histograms
#include "obs/request_context.h"
#include "common/string_util.h"

namespace vs::obs {

namespace {

/// Innermost live span id on this thread.
thread_local uint64_t tl_current_span = 0;

std::atomic<uint32_t> g_next_thread_id{0};

/// Stage-name → histogram handle, keyed by the literal's address (the
/// Span contract).  Amortized: each distinct stage registers once; later
/// lookups are one small map probe under a short-lived lock.
Histogram* StageHistogram(const char* stage) {
  static std::mutex mu;
  static std::map<const void*, Histogram*>* handles =
      new std::map<const void*, Histogram*>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = handles->find(stage);
    if (it != handles->end()) return it->second;
  }
  Histogram* histogram = MetricsRegistry::Default().GetHistogram(
      std::string("serve.stage_seconds.") + stage, DefaultLatencyBuckets(),
      "per-request stage latency (inclusive)");
  std::lock_guard<std::mutex> lock(mu);
  return handles->emplace(stage, histogram).first->second;
}

}  // namespace

uint32_t CurrentThreadId() {
  thread_local uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

TraceCollector::TraceCollector(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceCollector& TraceCollector::Default() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest first: [head_, end) then [0, head_) once wrapped.
  for (size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceCollector::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
        "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu",
        JsonEscape(e.name).c_str(), static_cast<long long>(e.start_us),
        static_cast<long long>(e.duration_us), e.thread_id,
        static_cast<unsigned long long>(e.id),
        static_cast<unsigned long long>(e.parent_id));
    if (!e.request_id.empty()) {
      out += ",\"request_id\":\"" + JsonEscape(e.request_id) + "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

Span::Span(const char* name)
    : name_(name),
      context_(CurrentRequestContext()),
      parent_stage_(nullptr),
      id_(TraceCollector::Default().NextSpanId()),
      parent_(tl_current_span) {
  tl_current_span = id_;
  if (context_ != nullptr) {
    parent_stage_ = context_->current_stage();
    context_->set_current_stage(name_);
  }
  start_us_ = MonotonicMicros();
}

Span::~Span() {
  const int64_t duration_us = MonotonicMicros() - start_us_;
  tl_current_span = parent_;
  TraceCollector& collector = TraceCollector::Default();
  TraceEvent event;
  event.name = name_;
  event.start_us = start_us_ - collector.epoch_us();
  event.duration_us = duration_us;
  event.thread_id = CurrentThreadId();
  event.id = id_;
  event.parent_id = parent_;
  if (context_ != nullptr) {
    event.request_id = context_->id();
    context_->set_current_stage(parent_stage_);
    context_->AddStage(name_, start_us_ - context_->epoch_us(), duration_us);
    StageHistogram(name_)->Observe(static_cast<double>(duration_us) * 1e-6);
  }
  collector.Record(std::move(event));
}

}  // namespace vs::obs
