#ifndef VS_OBS_TRACE_H_
#define VS_OBS_TRACE_H_

/// \file trace.h
/// \brief The one span primitive, obs::Span, and the bounded ring of
/// completed spans it records into, exportable as a Chrome trace (open
/// chrome://tracing or https://ui.perfetto.dev and load the JSON dump).
///
/// A Span times one named region: it reads the clock once at entry and
/// once at exit.  On exit it always records a TraceEvent (name, id,
/// parent, start, duration, thread, and the installed request's id) into
/// TraceCollector::Default().  Parenthood is tracked per thread: spans
/// nested on the same thread link to the innermost live span.  When a
/// RequestContext is installed on the thread (request_context.h), the
/// same span is also one of the request's stages: it appends a
/// StageRecord, publishes itself as the request's current stage for
/// /statusz while open, and observes `serve.stage_seconds.<name>`.  So the
/// ring, X-Request-Stages, wide events and the stage histograms all see
/// one region under one name with one duration.
///
/// When the ring is full the oldest events are overwritten and counted
/// as dropped — tracing is bounded memory by construction.
///
/// Span taxonomy (docs/ARCHITECTURE.md "Trace spans"): dot-separated,
/// subsystem-prefixed — http.dispatch, queue, session_manager.*,
/// fmcache.*, durability.*, reference_store.*, core.*.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace vs::obs {

class RequestContext;

/// \brief One completed span.
struct TraceEvent {
  std::string name;
  std::string request_id;   ///< installed request's id; "" outside one
  int64_t start_us = 0;     ///< relative to the collector's epoch
  int64_t duration_us = 0;
  uint32_t thread_id = 0;   ///< stable small id per OS thread
  uint64_t id = 0;          ///< unique per collector, 1-based
  uint64_t parent_id = 0;   ///< 0 = no parent (top-level span)
};

/// \brief Thread-safe bounded store of completed spans.
class TraceCollector {
 public:
  /// \p capacity caps retained events; older events are dropped first.
  explicit TraceCollector(size_t capacity = 16384);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// The process-wide collector every Span records into.
  static TraceCollector& Default();

  /// Appends one completed event (called by Span).
  void Record(TraceEvent event);

  /// MonotonicMicros() at the collector's construction; event start
  /// times are relative to it.
  int64_t epoch_us() const { return epoch_us_; }

  /// Next span id (unique, 1-based).
  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// Events overwritten because the ring was full.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const;
  void Clear();

  /// Chrome trace-event JSON ({"traceEvents":[...]}, "X" complete events,
  /// microsecond timestamps).
  std::string ToChromeTraceJson() const;

 private:
  const size_t capacity_;
  const int64_t epoch_us_ = MonotonicMicros();
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> dropped_{0};

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  ///< grows to capacity_, then wraps
  size_t head_ = 0;               ///< insertion slot once wrapped
};

/// \brief RAII span: times the enclosing scope and records it on exit
/// (see the file comment).  \p name must be a string literal: it is kept
/// by pointer, published cross-thread as the current stage, and used as
/// the stage histogram's key.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Id of this span in the collector (unique, 1-based).
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  RequestContext* context_;   ///< installed at entry; nullptr = none
  const char* parent_stage_;  ///< restored on exit (context only)
  uint64_t id_;
  uint64_t parent_;
  int64_t start_us_;          ///< MonotonicMicros() at entry
};

/// Stable small id of the calling thread (used for TraceEvent::thread_id).
uint32_t CurrentThreadId();

}  // namespace vs::obs

#endif  // VS_OBS_TRACE_H_
