#include "traced.h"

/// The traced run.  Everything runs in this process so that spans can be
/// taken around each layer's public calls:
///
///  * the lane talks HTTP to an in-process `HttpServer` whose handler
///    wraps `ServeApp::Handle` (span `app.handle`, keyed by request id) —
///    the client span minus it is the transport;
///  * after each answered request, the same operation is replayed on a
///    twin `SessionManager` fed the identical session (span
///    `session_manager.<op>`), and the layers below it are replayed one
///    call at a time on the benchmark's own objects: filter selection,
///    cache key, `FeatureMatrixCache::GetOrBuild` around
///    `FeatureMatrix::Build`, the build's reference/target scans and
///    feature computation, the α-sample, `IncrementalRefiner`, the
///    `ViewSeeker` calls, and the journal append and snapshot write;
///  * a `ClusterRouter` in front of the same server gives the router hop
///    as paired round trips (router, then direct) on one session.
///
/// Each span has a name, start, end, parent and request id; spans stay in
/// memory and are written out at the end.  A layer's self time is its
/// span minus its children.  The twins must agree with the served
/// answers (same next view), which is checked alongside the usual
/// answer checks.

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/router_app.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/matrix_identity.h"
#include "core/refinement.h"
#include "core/seeker.h"
#include "core/session_io.h"
#include "data/groupby.h"
#include "data/predicate.h"
#include "data/query.h"
#include "data/sampler.h"
#include "lane.h"
#include "metrics.h"
#include "obs/request_context.h"
#include "oracle.h"
#include "serve/app.h"
#include "serve/durability.h"
#include "serve/json.h"
#include "serve/feature_matrix_cache.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "session.h"
#include "stats/histogram.h"

namespace pb {

namespace {

namespace serve = vs::serve;
namespace cluster = vs::cluster;

/// Rows refined per next/topk (SessionManagerOptions default).
constexpr size_t kRefineRows = 4;
/// Router-vs-direct round-trip pairs of the hop probe.
constexpr int kHopPairs = 200;

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::string request_id;
  double duration() const { return end_us - start_us; }
};

double NowUs() { return NowMs() * 1e3; }

/// The span store.  Server threads report `app.handle` by request id;
/// everything else is recorded on the driving thread.
class SpanLog {
 public:
  int Add(std::string name, double start_us, double end_us, int parent,
          std::string request_id) {
    spans_.push_back({std::move(name), start_us, end_us, parent,
                      std::move(request_id)});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Times \p fn as a span; returns its index.
  template <typename Fn>
  int Time(const std::string& name, int parent, const std::string& rid,
           Fn&& fn) {
    const double start = NowUs();
    fn();
    return Add(name, start, NowUs(), parent, rid);
  }

  void ServerSpan(const std::string& rid, double start_us, double end_us) {
    std::lock_guard<std::mutex> lock(mu_);
    server_[rid] = {start_us, end_us};
  }
  bool TakeServerSpan(const std::string& rid, double* start, double* end) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = server_.find(rid);
    if (it == server_.end()) return false;
    *start = it->second.first;
    *end = it->second.second;
    server_.erase(it);
    return true;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the children's durations.
  std::vector<double> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration();
    }
    return self;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%d,\"request_id\":\"%s\"}",
                    i ? "," : "", i, s.name.c_str(), s.start_us, s.end_us,
                    s.parent, s.request_id.c_str());
      out << line;
    }
    out << "\n]\n";
  }

 private:
  std::vector<Span> spans_;
  std::mutex mu_;
  std::map<std::string, std::pair<double, double>> server_;
};

/// The benchmark's replica of one session's engine state.
struct Replica {
  std::unique_ptr<core::FeatureMatrix> matrix;
  std::unique_ptr<core::ViewSeeker> seeker;
  std::unique_ptr<serve::WalWriter> wal;
};

class TracedStack {
 public:
  TracedStack(const WorkloadConfig& config, const Oracle& oracle,
              const std::string& table_path, const std::string& work_dir)
      : oracle_(oracle),
        table_path_(table_path),
        alpha_(config.alpha < 1.0 ? config.alpha : 0.25),
        cache_(serve::FeatureMatrixCacheOptions{}),
        durability_(DurabilityOptionsFor(work_dir + "/replica")) {
    manager_ = std::make_unique<serve::SessionManager>(
        ManagerOptions(work_dir + "/served"), table_path);
    twin_ = std::make_unique<serve::SessionManager>(
        ManagerOptions(work_dir + "/twin"), table_path);
    serve::ServeAppOptions app_options;
    app_options.admission_enabled = true;  // as `viewseeker serve` runs
    app_ = std::make_unique<serve::ServeApp>(manager_.get(), app_options);
    server_ = std::make_unique<serve::HttpServer>(
        serve::HttpServerOptions{},
        [this](const serve::HttpRequest& request) {
          const double start = NowUs();
          serve::HttpResponse response = app_->Handle(request);
          const double end = NowUs();
          if (const std::string* rid = request.FindHeader("x-request-id")) {
            spans_.ServerSpan(*rid, start, end);
          }
          return response;
        });
  }

  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  ~TracedStack() {
    if (router_server_) router_server_->Stop();
    if (router_) router_->Stop();
    if (server_) server_->Stop();
  }

  vs::Status Start() {
    VS_RETURN_IF_ERROR(manager_->PreloadDefaultTable());
    VS_RETURN_IF_ERROR(twin_->PreloadDefaultTable());
    VS_RETURN_IF_ERROR(durability_.Init());
    VS_RETURN_IF_ERROR(server_->Start());
    cluster::ClusterRouterOptions router_options;
    router_options.shards.push_back({"shard0", "127.0.0.1", server_->port()});
    router_options.probe_interval_seconds = 0.0;  // nothing timer-driven
    router_ = std::make_unique<cluster::ClusterRouter>(router_options);
    VS_RETURN_IF_ERROR(router_->Start());
    router_server_ = std::make_unique<serve::HttpServer>(
        serve::HttpServerOptions{},
        [this](const serve::HttpRequest& request) {
          return router_->Handle(request);
        });
    return router_server_->Start();
  }

  int port() const { return server_->port(); }
  int router_port() const { return router_server_->port(); }
  SpanLog& spans() { return spans_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const serve::FeatureMatrixCache& cache() const { return cache_; }

  /// Counters that are not durations.
  std::vector<double> reference_rows, target_rows, refine_views,
      refine_rows_scanned;

  /// Called after every answered request of a traced session.
  void OnStep(const SessionRecord& record, const Step& step) {
    const double end = NowUs();
    const int client = spans_.Add(std::string("client.") + OpName(step.op),
                                  end - step.ms * 1e3, end, -1,
                                  step.request_id);
    double app_start = 0.0, app_end = 0.0;
    if (!spans_.TakeServerSpan(step.request_id, &app_start, &app_end)) {
      errors_.push_back("no server span for " + step.request_id);
      return;
    }
    int app =
        spans_.Add("app.handle", app_start, app_end, client, step.request_id);
    const int expected = step.op == 'C' ? 201 : 200;
    if (step.status != expected) return;
    const std::string& rid = step.request_id;
    // The app layer is tens of microseconds, far below the run-to-run
    // noise of a separately replayed create, so Handle is split against
    // the served request's own session-manager stage (X-Request-Stages).
    const double served_us = StageMicros(
        step.stages, std::string("session_manager.") + OpName(step.op));
    if (served_us >= 0.0) {
      app = spans_.Add("served.session_manager", app_start,
                       app_start + served_us, app, rid);
    }
    switch (step.op) {
      case 'C': Create(record, step, app, rid); break;
      case 'N': Next(record, step, app, rid); break;
      case 'L': Label(record, app, rid); break;
      case 'T': TopK(record, app, rid); break;
      case 'D': Delete(record, app, rid); break;
      default: break;
    }
  }

 private:
  static const char* OpName(char op) {
    switch (op) {
      case 'C': return "create";
      case 'N': return "next";
      case 'L': return "label";
      case 'T': return "topk";
      default: return "delete";
    }
  }

  /// Micros of \p stage in an X-Request-Stages value ("a=12;b=34"), or
  /// -1 when absent.
  static double StageMicros(const std::string& stages,
                            const std::string& stage) {
    size_t pos = 0;
    while (pos < stages.size()) {
      size_t end = stages.find(';', pos);
      if (end == std::string::npos) end = stages.size();
      const size_t eq = stages.find('=', pos);
      if (eq < end && stages.compare(pos, eq - pos, stage) == 0) {
        return std::atof(stages.c_str() + eq + 1);
      }
      pos = end + 1;
    }
    return -1.0;
  }

  static serve::DurabilityOptions DurabilityOptionsFor(const std::string& dir) {
    serve::DurabilityOptions options;
    options.dir = dir;
    options.fsync = true;
    return options;
  }

  serve::SessionManagerOptions ManagerOptions(const std::string& dir) const {
    serve::SessionManagerOptions options;
    options.durability_dir = dir;
    options.durability_fsync = true;
    options.degraded_sample_rate = alpha_;
    options.heal_interval_seconds = 0.0;
    return options;
  }

  void Create(const SessionRecord& record, const Step& step, int app,
              const std::string& rid) {
    serve::CreateSpec spec;
    spec.filter = current_filter;
    spec.requested_id = record.id;
    spec.options.k = kTopK;
    vs::obs::RequestContext context(rid, "POST", "/sessions");
    context.set_brownout(step.degraded);
    int manager_span = -1;
    {
      vs::obs::ScopedRequestContext scope(&context);
      manager_span = spans_.Time("session_manager.create", app, rid, [&] {
        if (!twin_->Create(spec).ok()) errors_.push_back("twin create failed");
      });
    }
    // The layers below the session manager, one call at a time.
    const data::Table& table = oracle_.table();
    vs::Result<data::SelectionVector> selected =
        vs::Status::Internal("not run");
    spans_.Time("data.select", manager_span, rid, [&] {
      auto predicate = data::ParseFilter(spec.filter);
      if (predicate.ok()) selected = data::SelectRows(table, predicate->get());
    });
    if (!selected.ok()) {
      errors_.push_back("replica select failed: " +
                        selected.status().ToString());
      return;
    }
    const data::SelectionVector& selection = *selected;
    core::FeatureMatrixOptions build_options;
    if (step.degraded) build_options.sample_rate = alpha_;
    std::string key;
    spans_.Time("core.cache_key", manager_span, rid, [&] {
      key = core::FeatureMatrixCacheKey(
          table_path_ + "#" + std::to_string(table.num_rows()), selection,
          oracle_.views(), oracle_.registry(), build_options);
    });
    double build_start = 0.0, build_end = 0.0;
    vs::Result<std::shared_ptr<const core::FeatureMatrix>> canonical =
        vs::Status::Internal("not run");
    const int lookup = spans_.Time("fmcache.get_or_build", manager_span, rid,
                                   [&] {
      canonical = cache_.GetOrBuild(key, [&]() {
        build_start = NowUs();
        auto built = core::FeatureMatrix::Build(&table, oracle_.views(),
                                                selection, &oracle_.registry(),
                                                build_options);
        build_end = NowUs();
        return built;
      });
    });
    if (!canonical.ok()) {
      errors_.push_back("replica build failed: " +
                        canonical.status().ToString());
      return;
    }
    if (build_end > 0.0) {
      const int build =
          spans_.Add("core.build", build_start, build_end, lookup, rid);
      ReplayBuild(selection, build_options, build, rid);
    }
    Replica replica;
    replica.matrix = std::make_unique<core::FeatureMatrix>(**canonical);
    core::ViewSeekerOptions seeker_options;
    seeker_options.k = kTopK;
    auto seeker = core::ViewSeeker::Make(replica.matrix.get(), seeker_options);
    if (!seeker.ok()) {
      errors_.push_back("replica seeker failed: " + seeker.status().ToString());
      return;
    }
    replica.seeker = std::make_unique<core::ViewSeeker>(std::move(*seeker));
    spans_.Time("durability.snapshot", manager_span, rid, [&] {
      auto text = core::SaveSession(*replica.seeker);
      if (!text.ok() || !durability_.SaveSnapshot(record.id, *text).ok()) {
        errors_.push_back("replica snapshot failed");
      }
    });
    auto wal = durability_.OpenWal(record.id, 0);
    if (wal.ok()) {
      replica.wal = std::make_unique<serve::WalWriter>(std::move(*wal));
    } else {
      errors_.push_back("replica journal open failed");
    }
    replicas_[record.id] = std::move(replica);
  }

  /// The build's inner work, replayed group by group as Build does it:
  /// the α-sample, then per (dimension, bins) group a target and a
  /// reference pass and the features of every member view.
  void ReplayBuild(const data::SelectionVector& selection,
                   const core::FeatureMatrixOptions& options, int build,
                   const std::string& rid) {
    const data::Table& table = oracle_.table();
    data::SelectionVector ref_sample, target_sample;
    const data::SelectionVector* ref_sel = nullptr;
    const data::SelectionVector* target_sel = &selection;
    if (options.sample_rate < 1.0) {
      spans_.Time("data.sample", build, rid, [&] {
        vs::Rng rng(options.seed);
        ref_sample =
            data::BernoulliSample(table.num_rows(), options.sample_rate, &rng);
        std::set_intersection(selection.begin(), selection.end(),
                              ref_sample.begin(), ref_sample.end(),
                              std::back_inserter(target_sample));
      });
      if (!ref_sample.empty() && !target_sample.empty()) {
        ref_sel = &ref_sample;
        target_sel = &target_sample;
      }
    }
    reference_rows.push_back(
        static_cast<double>(ref_sel ? ref_sel->size() : table.num_rows()));
    target_rows.push_back(static_cast<double>(target_sel->size()));
    std::map<std::pair<std::string, int32_t>, std::vector<size_t>> groups;
    const auto& views = oracle_.views();
    for (size_t i = 0; i < views.size(); ++i) {
      groups[{views[i].dimension, views[i].num_bins}].push_back(i);
    }
    data::GroupByExecutor executor(&table);
    for (const auto& [group, members] : groups) {
      std::vector<data::GroupBySpec> specs;
      for (size_t i : members) specs.push_back(views[i].ToGroupBySpec());
      vs::Result<std::vector<data::GroupByResult>> targets =
          vs::Status::Internal("not run");
      vs::Result<std::vector<data::GroupByResult>> references = targets;
      spans_.Time("data.target_scan", build, rid,
                  [&] { targets = executor.ExecuteBatch(specs, target_sel); });
      spans_.Time("data.reference_scan", build, rid, [&] {
        references = executor.ExecuteBatch(specs, ref_sel);
      });
      if (!targets.ok() || !references.ok()) {
        errors_.push_back("replica group-by failed");
        return;
      }
      spans_.Time("core.features", build, rid, [&] {
        for (size_t k = 0; k < members.size(); ++k) {
          core::ViewMaterialization mat;
          mat.target = std::move((*targets)[k]);
          mat.reference = std::move((*references)[k]);
          auto target_dist = vs::stats::Normalize(mat.target.values);
          auto reference_dist = vs::stats::Normalize(mat.reference.values);
          if (!target_dist.ok() || !reference_dist.ok()) continue;
          mat.target_dist = std::move(*target_dist);
          mat.reference_dist = std::move(*reference_dist);
          oracle_.registry().ComputeAll(mat).ok();
        }
      });
    }
  }

  Replica* FindReplica(const std::string& id) {
    auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      errors_.push_back("no replica for session " + id);
      return nullptr;
    }
    return &it->second;
  }

  /// One refinement slice as the session manager takes it.
  void Refine(Replica& replica, int parent, const std::string& rid) {
    if (replica.matrix->AllExact()) return;
    std::vector<double> priorities;
    if (replica.seeker->num_labeled() > 0) {
      auto scores = replica.seeker->CurrentScores();
      if (scores.ok()) priorities = std::move(*scores);
    }
    vs::Deadline deadline = vs::Deadline::AfterUnits(
        static_cast<int64_t>(kRefineRows) *
        std::max<int64_t>(1, replica.matrix->RefineCostPerRow()));
    const int64_t cost = replica.matrix->RefineCostPerRow();
    core::IncrementalRefiner refiner(replica.matrix.get());
    int rows = 0;
    spans_.Time("core.refine", parent, rid, [&] {
      auto stats = refiner.RefineBatch(priorities, &deadline);
      if (stats.ok()) rows = stats->rows_refined;
    });
    refine_views.push_back(rows);
    refine_rows_scanned.push_back(static_cast<double>(rows) *
                                  static_cast<double>(cost));
  }

  void Next(const SessionRecord& record, const Step& step, int app,
            const std::string& rid) {
    Replica* found = FindReplica(record.id);
    if (found == nullptr) return;
    Replica& replica = *found;
    long long twin_view = -1;
    const int manager = spans_.Time("session_manager.next", app, rid, [&] {
      auto batch = twin_->Next(record.id);
      if (batch.ok() && !batch->views.empty()) {
        twin_view = static_cast<long long>(batch->views[0]);
      }
    });
    Refine(replica, manager, rid);
    long long replica_view = -1;
    spans_.Time("core.seeker_next", manager, rid, [&] {
      auto views = replica.seeker->NextQueries();
      if (views.ok() && !views->empty()) {
        replica_view = static_cast<long long>((*views)[0]);
      }
    });
    const long long served = step.views.empty() ? -2 : step.views[0];
    if (twin_view != served || replica_view != served) {
      errors_.push_back("next of " + record.id + ": served " +
                        std::to_string(served) + ", twin " +
                        std::to_string(twin_view) + ", replica " +
                        std::to_string(replica_view));
    }
  }

  void Label(const SessionRecord& record, int app, const std::string& rid) {
    Replica* found = FindReplica(record.id);
    if (found == nullptr) return;
    Replica& replica = *found;
    // The label in flight is for the view the last next picked; its value
    // is the one the labeler just handed out.
    const Step* next = nullptr;
    for (const Step& s : record.steps) {
      if (s.op == 'N') next = &s;
    }
    if (next == nullptr || next->views.empty()) {
      errors_.push_back("label without a replayed next in " + record.id);
      return;
    }
    const size_t v = static_cast<size_t>(next->views[0]);
    const double value = pending_label;
    const int manager = spans_.Time("session_manager.label", app, rid, [&] {
      if (!twin_->Label(record.id, v, value).ok()) {
        errors_.push_back("twin label failed");
      }
    });
    spans_.Time("core.seeker_label", manager, rid, [&] {
      replica.seeker->SubmitLabel(v, value).ok();
    });
    char payload[160];
    std::snprintf(payload, sizeof(payload), "label\t%s\t%.17g",
                  oracle_.views()[v].Id().c_str(), value);
    spans_.Time("durability.wal_append", manager, rid, [&] {
      if (replica.wal) replica.wal->Append(payload).ok();
    });
  }

  void TopK(const SessionRecord& record, int app, const std::string& rid) {
    Replica* found = FindReplica(record.id);
    if (found == nullptr) return;
    Replica& replica = *found;
    const int manager = spans_.Time("session_manager.topk", app, rid, [&] {
      twin_->TopK(record.id).ok();
    });
    Refine(replica, manager, rid);
    spans_.Time("core.seeker_topk", manager, rid, [&] {
      replica.seeker->RecommendTopK().ok();
      replica.seeker->CurrentScores().ok();
    });
  }

  void Delete(const SessionRecord& record, int app, const std::string& rid) {
    spans_.Time("session_manager.delete", app, rid,
                [&] { twin_->Delete(record.id).ok(); });
    replicas_.erase(record.id);
  }

 public:
  /// RunTraced sets these before each session and each label: the
  /// replays need the filter and the label value the served request got.
  std::string current_filter;
  double pending_label = 0.0;

 private:
  const Oracle& oracle_;
  const std::string table_path_;
  const double alpha_;
  SpanLog spans_;
  std::vector<std::string> errors_;
  serve::FeatureMatrixCache cache_;
  serve::DurabilityManager durability_;
  std::unique_ptr<serve::SessionManager> manager_;
  std::unique_ptr<serve::SessionManager> twin_;
  std::unique_ptr<serve::ServeApp> app_;
  std::unique_ptr<serve::HttpServer> server_;
  std::unique_ptr<cluster::ClusterRouter> router_;
  std::unique_ptr<serve::HttpServer> router_server_;
  std::map<std::string, Replica> replicas_;
};

}  // namespace

int RunTraced(const std::map<std::string, std::string>& flags,
              const WorkloadConfig& config, uint64_t seed, double seconds) {
  auto loaded = Oracle::Load(flags.at("table"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "trace: %s\n", loaded.status().ToString().c_str());
    return 3;
  }
  Oracle& oracle = **loaded;
  const Plan full = MakePlan(config, seed);
  // The traced run measures a few sessions; only their filters need an
  // exact matrix.
  const size_t traced_sessions =
      config.kind == Kind::kColdCreate ? 15
      : config.kind == Kind::kAlphaRefine ? 4 : 12;
  Plan plan = full;
  plan.sessions.resize(std::min(traced_sessions, full.sessions.size()));
  size_t max_filter = 0;
  for (const SessionPlan& s : plan.sessions) {
    max_filter = std::max(max_filter, s.filter);
  }
  plan.filters.resize(max_filter + 1);
  // The probe session (α build + refinement) uses a filter of its own.
  const std::string probe_filter = RangeFilter(0.9, 0.05);
  plan.filters.push_back(probe_filter);
  const size_t probe_index = plan.filters.size() - 1;
  if (!oracle.BuildExact(plan.filters, 4).ok()) {
    std::fprintf(stderr, "trace: oracle build failed\n");
    return 3;
  }

  TracedStack stack(config, oracle, flags.at("table"), flags.at("work-dir"));
  vs::Status started = stack.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "trace: %s\n", started.ToString().c_str());
    return 3;
  }
  Lane lane(stack.port());
  size_t request_counter = 0;
  auto traced_session = [&](const WorkloadConfig& session_config,
                            const std::string& filter, size_t filter_index,
                            int ustar) {
    stack.current_filter = filter;
    const std::string prefix = "t" + std::to_string(request_counter++);
    return RunSession(
        session_config, lane, filter,
        [&](size_t view) {
          stack.pending_label = oracle.Label(filter_index, ustar, view);
          return stack.pending_label;
        },
        oracle.num_views(),
        [&](const SessionRecord& r, const Step& s) { stack.OnStep(r, s); },
        prefix);
  };

  // Probe 1: the router hop, as paired round trips on one session.
  std::vector<double> hops;
  {
    Lane direct(stack.port());
    Lane routed(stack.router_port());
    auto created = direct.Call("POST", "/sessions",
                               "{\"filter\":\"" + probe_filter + "\"}");
    auto json = vs::serve::JsonValue::Parse(created.body);
    const std::string target =
        "/sessions/" + json->GetString("id", "") + "/topk";
    for (int i = 0; i < kHopPairs; ++i) {
      const double via_router = routed.Call("GET", target).ms;
      const double straight = direct.Call("GET", target).ms;
      hops.push_back((via_router - straight) * 1e3);
    }
    direct.Call("DELETE", "/sessions/" + json->GetString("id", ""));
  }
  // Probe 2: an α-sampled create refined to exact (every workload reports
  // the sample and refinement layers), then the same filter again, exact:
  // a miss, then a hit on the replica cache.
  {
    WorkloadConfig probe = config;
    probe.kind = Kind::kAlphaRefine;
    probe.iterations = 0;
    probe.topk_every = 0;
    probe.create_deadline_ms = 25.0;
    traced_session(probe, probe_filter, probe_index, 0);
    probe.kind = Kind::kColdCreate;
    probe.create_deadline_ms = 0.0;
    probe.iterations = 2;
    traced_session(probe, probe_filter, probe_index, 0);
    traced_session(probe, probe_filter, probe_index, 0);
  }
  // The workload's own sessions, as many as fit in the run length.
  const double start = NowMs();
  std::vector<SessionRecord> workload_records;
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    if (i > 0 && NowMs() - start >= seconds * 1e3) break;
    const SessionPlan& s = plan.sessions[i];
    SessionRecord r =
        traced_session(config, plan.filters[s.filter], s.filter, s.ustar);
    r.plan_index = i;
    workload_records.push_back(std::move(r));
  }

  // Answer checks on the traced sessions.
  std::vector<std::string> errors =
      CheckTranscript(config, plan, oracle, workload_records, kRefineRows);
  for (const std::string& e : stack.errors()) errors.push_back(e);
  size_t attempted = 0, failed = 0;
  for (const SessionRecord& r : workload_records) {
    for (const Step& step : r.steps) {
      ++attempted;
      if (step.status != (step.op == 'C' ? 201 : 200)) ++failed;
    }
  }

  // Self times, per span name.
  const std::vector<Span>& spans = stack.spans().spans();
  const std::vector<double> self = stack.spans().SelfTimes();
  auto root_of = [&](size_t i) {
    while (spans[i].parent >= 0) i = static_cast<size_t>(spans[i].parent);
    return i;
  };
  std::map<std::string, std::vector<double>> total_of, self_of;
  // Per-build sums of the replayed scans and features.
  std::map<int, std::map<std::string, double>> per_build;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string name = s.name;
    if (name == "app.handle") {
      // Qualified by the request's operation: "client.next" -> "app.next".
      name = "app." + spans[root_of(i)].name.substr(7);
    }
    total_of[name].push_back(s.duration());
    self_of[name].push_back(self[i]);
    if (name == "data.target_scan" || name == "data.reference_scan" ||
        name == "core.features") {
      per_build[s.parent][name] += s.duration();
    }
  }
  std::map<std::string, std::vector<double>> build_sums;
  for (const auto& [build, sums] : per_build) {
    for (const auto& [name, us] : sums) build_sums[name].push_back(us);
  }
  auto med = [&](std::map<std::string, std::vector<double>>& m,
                 const std::string& name) { return Quantile(m[name], 0.5); };

  // Coverage: the layers' medians summed, over the client's median.  A
  // layer that runs on fewer than half of the operations (builds on
  // cache-hit creates, refinement on exact nexts) has a median of zero.
  auto share = [&](const std::string& layer, const std::string& op) {
    return static_cast<double>(total_of[layer].size()) >=
                   0.5 * static_cast<double>(total_of[op].size())
               ? med(total_of, layer)
               : 0.0;
  };
  const double create_layers =
      med(self_of, "client.create") + med(self_of, "app.create") +
      med(self_of, "session_manager.create") + med(total_of, "data.select") +
      med(total_of, "core.cache_key") + med(total_of, "durability.snapshot") +
      med(self_of, "fmcache.get_or_build") +
      share("core.build", "client.create");
  const double iteration_layers =
      med(self_of, "client.next") + med(self_of, "app.next") +
      med(self_of, "session_manager.next") + med(total_of, "core.seeker_next") +
      share("core.refine", "client.next") + med(self_of, "client.label") +
      med(self_of, "app.label") + med(self_of, "session_manager.label") +
      med(total_of, "core.seeker_label") +
      med(total_of, "durability.wal_append");
  const double client_iteration =
      med(total_of, "client.next") + med(total_of, "client.label");
  const serve::FeatureMatrixCacheStats cache = stack.cache().stats();

  MetricSet m;
  m.Add("transport.next_us", med(self_of, "client.next"), "us");
  m.Add("transport.label_us", med(self_of, "client.label"), "us");
  m.Add("app.create_us", med(self_of, "app.create"), "us");
  m.Add("app.next_us", med(self_of, "app.next"), "us");
  m.Add("app.label_us", med(self_of, "app.label"), "us");
  m.Add("router.hop_us", Quantile(hops, 0.5), "us");
  m.Add("session_manager.create_self_ms",
        med(self_of, "session_manager.create") / 1e3, "ms");
  m.Add("session_manager.next_self_us", med(self_of, "session_manager.next"),
        "us");
  m.Add("session_manager.label_self_us", med(self_of, "session_manager.label"),
        "us");
  m.Add("fmcache.hit_ratio",
        static_cast<double>(cache.hits) /
            std::max<double>(1.0,
                             static_cast<double>(cache.hits + cache.misses)),
        "ratio");
  m.Add("fmcache.lookup_ms", med(self_of, "fmcache.get_or_build") / 1e3, "ms");
  m.Add("durability.wal_append_us", med(total_of, "durability.wal_append"),
        "us");
  m.Add("durability.snapshot_ms", med(total_of, "durability.snapshot") / 1e3,
        "ms");
  m.Add("data.select_ms", med(total_of, "data.select") / 1e3, "ms");
  m.Add("data.reference_scan_ms",
        Quantile(build_sums["data.reference_scan"], 0.5) / 1e3, "ms");
  m.Add("data.reference_rows", Quantile(stack.reference_rows, 0.5), "count");
  m.Add("data.target_scan_ms",
        Quantile(build_sums["data.target_scan"], 0.5) / 1e3, "ms");
  m.Add("data.target_rows", Quantile(stack.target_rows, 0.5), "count");
  m.Add("data.sample_ms", med(total_of, "data.sample") / 1e3, "ms");
  m.Add("core.cache_key_ms", med(total_of, "core.cache_key") / 1e3, "ms");
  m.Add("core.build_ms", med(total_of, "core.build") / 1e3, "ms");
  m.Add("core.features_ms", Quantile(build_sums["core.features"], 0.5) / 1e3,
        "ms");
  m.Add("core.refine_ms", med(total_of, "core.refine") / 1e3, "ms");
  m.Add("core.refine_views", Quantile(stack.refine_views, 0.5), "count");
  m.Add("core.refine_rows_scanned", Quantile(stack.refine_rows_scanned, 0.5),
        "count");
  m.Add("core.seeker_label_us", med(total_of, "core.seeker_label"), "us");
  m.Add("core.seeker_next_us", med(total_of, "core.seeker_next"), "us");
  m.Add("core.seeker_topk_us", med(total_of, "core.seeker_topk"), "us");
  m.Add("trace.coverage.create", create_layers / med(total_of, "client.create"),
        "ratio");
  m.Add("trace.coverage.iteration", iteration_layers / client_iteration,
        "ratio");

  if (flags.count("spans-out")) stack.spans().Write(flags.at("spans-out"));
  char info[256];
  std::snprintf(info, sizeof(info),
                "{\"sessions\":%zu,\"spans\":%zu,\"client_create_ms_p50\":%.3f,"
                "\"client_iteration_ms_p50\":%.4f}",
                workload_records.size(), spans.size(),
                med(total_of, "client.create") / 1e3, client_iteration / 1e3);
  PrintResult(errors.empty(), attempted, failed, m, errors, info);
  return 0;
}

}  // namespace pb
