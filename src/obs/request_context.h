#ifndef VS_OBS_REQUEST_CONTEXT_H_
#define VS_OBS_REQUEST_CONTEXT_H_

/// \file request_context.h
/// \brief Request-scoped observability: a RequestContext carries one
/// request's id and per-stage timing breakdown from the transport down
/// through every subsystem the request touches, without threading a
/// parameter through each signature.
///
/// Propagation model: the serving layer creates a RequestContext per
/// request (generating an id or accepting the client's `X-Request-Id`),
/// installs it in a thread-local slot with ScopedRequestContext, and
/// handles the request synchronously on that worker thread.  Every
/// obs::Span (trace.h) opened anywhere below on that thread
/// (SessionManager, FeatureMatrixCache, durability, the engine) is then
/// also one of the request's stages: on exit it appends a StageRecord to
/// the installed context.  Background threads (the TTL reaper, the
/// healer, thread-pool workers) have no context; their spans reach only
/// the trace ring.
///
/// Cross-thread reads: the in-flight table (/statusz) snapshots live
/// contexts from other threads.  RequestContext therefore guards its
/// mutable fields with a mutex and publishes the *current* stage as an
/// atomic pointer to a string literal, so a stalled request can be seen
/// mid-stage.
///
/// Stages nest (a label span contains its wal append); records keep
/// inclusive durations and emission order.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace vs::obs {

/// \brief One completed stage within a request (inclusive duration).
struct StageRecord {
  const char* stage = nullptr;  ///< string literal (the Span contract)
  int64_t start_us = 0;         ///< since the request began
  int64_t duration_us = 0;
};

/// \brief Everything observability knows about one in-flight request.
class RequestContext {
 public:
  RequestContext(std::string id, std::string method, std::string path);

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  const std::string& id() const { return id_; }
  const std::string& method() const { return method_; }
  const std::string& path() const { return path_; }

  /// Route name, known only after dispatch ("label", "create_session").
  void set_endpoint(const std::string& endpoint);
  std::string endpoint() const;

  /// MonotonicMicros() at construction: the request's private epoch.
  int64_t epoch_us() const { return epoch_us_; }

  /// Microseconds since construction.
  int64_t ElapsedMicros() const { return MonotonicMicros() - epoch_us_; }

  /// \name Request deadline — an absolute point relative to the request's
  /// private epoch, set once by the transport when the client supplied
  /// `X-Deadline-Ms`.  Subsystems below (admission, session manager,
  /// refinement) read the *remaining* budget; no deadline means infinite.
  /// @{
  /// Budgets tick in whole microseconds (the X-Deadline-Ms resolution);
  /// a positive budget below one tick is one tick, never "none".
  void set_deadline_ms(double ms) {
    deadline_us_.store(
        ms > 0.0 ? std::max<int64_t>(1, static_cast<int64_t>(ms * 1000.0))
                 : 0,
        std::memory_order_relaxed);
  }
  bool has_deadline() const {
    return deadline_us_.load(std::memory_order_relaxed) > 0;
  }
  /// Seconds left before the deadline; clamped at 0, +inf with none set.
  double remaining_seconds() const;
  /// True once less than one whole tick is left: a sub-microsecond
  /// remainder cannot be forwarded or spent, as at the router hop.
  bool deadline_expired() const {
    const int64_t d = deadline_us_.load(std::memory_order_relaxed);
    return d > 0 && ElapsedMicros() + 1 >= d;
  }
  /// @}

  /// \name Brownout hint — set by the admission layer when the server is
  /// saturated (or the remaining deadline is short), read by the engine
  /// to prefer a degraded α-sample / partially-refined answer over
  /// shedding the request.
  /// @{
  void set_brownout(bool on) {
    brownout_.store(on, std::memory_order_relaxed);
  }
  bool brownout() const { return brownout_.load(std::memory_order_relaxed); }
  /// @}

  /// \name Degraded marker — set by the engine when the answer it served
  /// came from a rough or partially-refined matrix; the transport stamps
  /// `X-Quality: degraded` from it.  refined_fraction is the share of
  /// exact feature rows backing the answer (1.0 = full quality).
  /// @{
  void MarkDegraded(double refined_fraction) {
    degraded_.store(true, std::memory_order_relaxed);
    refined_fraction_.store(refined_fraction, std::memory_order_relaxed);
  }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  double refined_fraction() const {
    return refined_fraction_.load(std::memory_order_relaxed);
  }
  /// @}

  /// Appends one completed stage (called by Span).
  void AddStage(const char* stage, int64_t start_us, int64_t duration_us);

  /// Stage records so far, in completion order.
  std::vector<StageRecord> stages() const;

  /// \name Current stage — written by Span on the serving thread,
  /// read by /statusz from any thread.  nullptr = between stages.
  /// @{
  const char* current_stage() const {
    return current_stage_.load(std::memory_order_relaxed);
  }
  void set_current_stage(const char* stage) {
    current_stage_.store(stage, std::memory_order_relaxed);
  }
  /// @}

 private:
  const std::string id_;
  const std::string method_;
  const std::string path_;
  const int64_t epoch_us_ = MonotonicMicros();
  std::atomic<const char*> current_stage_{nullptr};
  std::atomic<int64_t> deadline_us_{0};  ///< relative to epoch; <=0 = none
  std::atomic<bool> brownout_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<double> refined_fraction_{1.0};

  mutable std::mutex mu_;
  std::string endpoint_;
  std::vector<StageRecord> stages_;
};

/// The context installed on this thread, or nullptr.
RequestContext* CurrentRequestContext();

/// \brief RAII install/uninstall of the thread-local context.  Restores
/// the previous context on destruction, so nested installs compose.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext* context);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext* previous_;
};

/// \brief One row of the in-flight request table (/statusz).
struct InflightRequest {
  std::string id;
  std::string endpoint;   ///< route name, or "-" before dispatch
  std::string method;
  std::string path;
  double age_seconds = 0.0;
  const char* stage = nullptr;  ///< current stage, nullptr between stages
};

/// \brief Registry of requests currently being served, snapshottable from
/// any thread.  The serving layer registers a shared RequestContext at
/// entry and unregisters at exit; /statusz renders Snapshot().
class InflightRegistry {
 public:
  void Register(const std::shared_ptr<RequestContext>& context);
  void Unregister(const RequestContext* context);

  std::vector<InflightRequest> Snapshot() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<RequestContext>> inflight_;
};

}  // namespace vs::obs

#endif  // VS_OBS_REQUEST_CONTEXT_H_
