/// Microbenchmarks (google-benchmark) for the substrate hot paths: grouped
/// aggregation, distance kernels, regression fits, sampling, and feature
/// computation.  Run in Release/RelWithDebInfo for meaningful numbers.
///
/// Two modes:
///
///   bench_micro [google-benchmark flags]
///       the usual registered microbenchmarks;
///
///   bench_micro --kernels [--rows=N] [--min-speedup=X] [--json-out=PATH]
///       the vectorized-kernel gate: per-kernel throughput counters
///       (group-by dense/hash/numeric-binned, fused utility features)
///       measured kernel-vs-scalar over a generated large-scale table,
///       plus the headline end-to-end feature-matrix build at N rows
///       (default 1M): default fast path (kernels + shared scans)
///       against the paper prototype's per-view scalar execution model,
///       with the shared-scan scalar oracle reported alongside.  Writes a
///       JSON report and exits nonzero when the gated build speedup falls
///       below --min-speedup — CI runs this with --min-speedup=4 as a
///       smoke gate, and the committed BENCH_PR9.json is regenerated the
///       same way (docs/TESTING.md).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/view_data.h"
#include "core/feature_matrix.h"
#include "core/view.h"
#include "data/generator.h"
#include "data/groupby.h"
#include "data/predicate.h"
#include "data/sampler.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "obs/metrics.h"
#include "stats/distance.h"

namespace {

const vs::data::Table& DiabTable() {
  static const vs::data::Table* table = [] {
    vs::data::DiabetesOptions options;
    options.num_rows = 50000;
    options.seed = 3;
    return new vs::data::Table(*vs::data::GenerateDiabetes(options));
  }();
  return *table;
}

void BM_GroupByCategorical(benchmark::State& state) {
  const auto& table = DiabTable();
  vs::data::GroupByExecutor executor(&table);
  vs::data::GroupBySpec spec{"race", "num_medications",
                             vs::data::AggregateFunction::kAvg, 0};
  for (auto _ : state) {
    auto r = executor.Execute(spec, nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table.num_rows()));
}
BENCHMARK(BM_GroupByCategorical);

void BM_GroupByWithSelection(benchmark::State& state) {
  const auto& table = DiabTable();
  vs::Rng rng(5);
  auto selection = vs::data::BernoulliSample(table.num_rows(), 0.1, &rng);
  vs::data::GroupByExecutor executor(&table);
  vs::data::GroupBySpec spec{"age_group", "time_in_hospital",
                             vs::data::AggregateFunction::kSum, 0};
  for (auto _ : state) {
    auto r = executor.Execute(spec, &selection);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(selection.size()));
}
BENCHMARK(BM_GroupByWithSelection);

void BM_GroupByBatchVsLoop(benchmark::State& state) {
  // The shared-scan batch (all 40 (measure, func) views of one dimension
  // in one pass) vs 40 separate Execute calls; arg 0 = loop, 1 = batch.
  const auto& table = DiabTable();
  vs::data::GroupByExecutor executor(&table);
  std::vector<vs::data::GroupBySpec> specs;
  for (const std::string& m :
       table.schema().NamesWithRole(vs::data::FieldRole::kMeasure)) {
    for (auto f : vs::data::AllAggregateFunctions()) {
      specs.push_back({"race", m, f, 0});
    }
  }
  const bool batch = state.range(0) == 1;
  for (auto _ : state) {
    if (batch) {
      auto r = executor.ExecuteBatch(specs, nullptr);
      benchmark::DoNotOptimize(r);
    } else {
      for (const auto& spec : specs) {
        auto r = executor.Execute(spec, nullptr);
        benchmark::DoNotOptimize(r);
      }
    }
  }
  state.SetLabel(batch ? "shared-scan" : "per-view");
}
BENCHMARK(BM_GroupByBatchVsLoop)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_PredicateSelection(benchmark::State& state) {
  const auto& table = DiabTable();
  auto predicate = vs::data::And(
      {vs::data::Compare("gender", vs::data::CompareOp::kEq,
                         vs::data::Value("Female")),
       vs::data::Compare("num_medications", vs::data::CompareOp::kGe,
                         vs::data::Value(10.0))});
  for (auto _ : state) {
    auto sel = vs::data::SelectRows(table, predicate);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table.num_rows()));
}
BENCHMARK(BM_PredicateSelection);

void BM_Distance(benchmark::State& state) {
  const auto kind = static_cast<vs::stats::DistanceKind>(state.range(0));
  vs::Rng rng(7);
  std::vector<double> p(64);
  std::vector<double> q(64);
  double ps = 0.0;
  double qs = 0.0;
  for (size_t i = 0; i < 64; ++i) {
    p[i] = rng.NextDouble() + 0.01;
    q[i] = rng.NextDouble() + 0.01;
    ps += p[i];
    qs += q[i];
  }
  for (size_t i = 0; i < 64; ++i) {
    p[i] /= ps;
    q[i] /= qs;
  }
  vs::stats::Distribution dp{p};
  vs::stats::Distribution dq{q};
  for (auto _ : state) {
    auto d = vs::stats::Distance(kind, dp, dq);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Distance)->DenseRange(0, 4)->ArgName("kind");

void BM_LinearRegressionFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  vs::Rng rng(9);
  vs::ml::Matrix x(n, 8);
  vs::ml::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 8; ++j) x(i, j) = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    vs::ml::LinearRegression model;
    auto s = model.Fit(x, y);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LinearRegressionFit)->Arg(16)->Arg(64)->Arg(256);

void BM_LogisticRegressionFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  vs::Rng rng(11);
  vs::ml::Matrix x(n, 8);
  vs::ml::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < 8; ++j) {
      x(i, j) = rng.NextDouble();
      z += x(i, j) - 0.5;
    }
    y[i] = z > 0.0 ? 1.0 : 0.0;
  }
  for (auto _ : state) {
    vs::ml::LogisticRegression model;
    auto s = model.Fit(x, y);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LogisticRegressionFit)->Arg(16)->Arg(64)->Arg(256);

void BM_BernoulliSample(benchmark::State& state) {
  vs::Rng rng(13);
  for (auto _ : state) {
    auto sel = vs::data::BernoulliSample(100000, 0.1, &rng);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_BernoulliSample);

void BM_FeatureMatrixBuild(benchmark::State& state) {
  const auto& table = DiabTable();
  auto query = *vs::data::SelectRows(
      table, vs::data::Compare("gender", vs::data::CompareOp::kEq,
                               vs::data::Value("Male")));
  auto views = *vs::core::EnumerateViews(table, {});
  auto registry = vs::core::UtilityFeatureRegistry::Default();
  vs::core::FeatureMatrixOptions options;
  options.sample_rate = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto matrix = vs::core::FeatureMatrix::Build(&table, views, query,
                                                 &registry, options);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetLabel("alpha=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_FeatureMatrixBuild)->Arg(100)->Arg(10)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_FeatureMatrixBuildObs(benchmark::State& state) {
  // The vs::obs metrics overhead: arg 0 runs with the metrics registry
  // disabled (each metric update costs one relaxed atomic load), arg 1
  // with it enabled (its default).  Trace spans record in both: a build
  // opens a handful of spans, each one ring append.  Both variants should
  // stay within noise (<3%) of BM_FeatureMatrixBuild/100 above.
  const bool instrumented = state.range(0) == 1;
  auto& registry = vs::obs::MetricsRegistry::Default();
  const bool metrics_were_enabled = registry.enabled();
  registry.set_enabled(instrumented);

  const auto& table = DiabTable();
  auto query = *vs::data::SelectRows(
      table, vs::data::Compare("gender", vs::data::CompareOp::kEq,
                               vs::data::Value("Male")));
  auto views = *vs::core::EnumerateViews(table, {});
  auto registry_features = vs::core::UtilityFeatureRegistry::Default();
  for (auto _ : state) {
    auto matrix = vs::core::FeatureMatrix::Build(&table, views, query,
                                                 &registry_features, {});
    benchmark::DoNotOptimize(matrix);
  }
  state.SetLabel(instrumented ? "metrics-enabled" : "metrics-disabled");

  registry.set_enabled(metrics_were_enabled);
}
BENCHMARK(BM_FeatureMatrixBuildObs)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel gate mode (--kernels): kernel-vs-scalar throughput counters and the
// feature-build speedup gate behind BENCH_PR9.json.
// ---------------------------------------------------------------------------

namespace kernel_gate {

struct GateConfig {
  size_t rows = 1'000'000;
  double min_speedup = 0.0;  ///< 0 = report only, no gate
  std::string json_out = "BENCH_PR9.json";
  int repeats = 3;
};

GateConfig ParseGateArgs(int argc, char** argv) {
  GateConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (!vs::StartsWith(arg, "--") || eq == std::string::npos) continue;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "rows") {
      config.rows = static_cast<size_t>(
          vs::ParseInt64(value).ValueOr(static_cast<int64_t>(config.rows)));
    } else if (key == "min-speedup") {
      config.min_speedup = vs::ParseDouble(value).ValueOr(config.min_speedup);
    } else if (key == "json-out") {
      config.json_out = value;
    } else if (key == "repeats") {
      config.repeats =
          static_cast<int>(vs::ParseInt64(value).ValueOr(config.repeats));
    }
  }
  return config;
}

/// Best-of-N wall time of `fn` in seconds (minimum filters scheduler
/// noise, which matters on the shared single-core CI runners).
template <typename Fn>
double BestOf(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    vs::Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// One kernel-vs-scalar measurement: seconds for each side plus derived
/// throughput (units = rows or feature evaluations per second).
struct Comparison {
  std::string name;
  double scalar_seconds = 0.0;
  double kernel_seconds = 0.0;
  double units = 0.0;
  double speedup() const { return scalar_seconds / kernel_seconds; }
  double kernel_per_sec() const { return units / kernel_seconds; }
  double scalar_per_sec() const { return units / scalar_seconds; }
};

Comparison CompareGroupBy(const std::string& name,
                          const vs::data::Table& table,
                          const vs::data::GroupBySpec& spec,
                          const vs::data::SelectionVector* selection,
                          int repeats, int32_t kernel_dense_bins_max) {
  vs::data::GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  vs::data::GroupByExecutor scalar(&table, scalar_options);
  vs::data::GroupByExecutorOptions kernel_options;
  kernel_options.dense_bins_max = kernel_dense_bins_max;
  vs::data::GroupByExecutor kernel(&table, kernel_options);

  Comparison c;
  c.name = name;
  c.units = static_cast<double>(selection != nullptr ? selection->size()
                                                     : table.num_rows());
  c.scalar_seconds = BestOf(repeats, [&] {
    auto r = scalar.Execute(spec, selection);
    if (!r.ok()) std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
  });
  c.kernel_seconds = BestOf(repeats, [&] {
    auto r = kernel.Execute(spec, selection);
    if (!r.ok()) std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
  });
  return c;
}

int RunKernelGate(int argc, char** argv) {
  const GateConfig config = ParseGateArgs(argc, argv);

  std::fprintf(stderr, "generating large-scale table (%zu rows)...\n",
               config.rows);
  vs::data::LargeScaleOptions table_options;
  table_options.num_rows = config.rows;
  auto table_or = vs::data::GenerateLargeScale(table_options);
  if (!table_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 table_or.status().ToString().c_str());
    return 1;
  }
  const vs::data::Table& table = *table_or;

  vs::Rng rng(17);
  const auto query =
      vs::data::BernoulliSample(table.num_rows(), 0.1, &rng);

  // --- Per-kernel counters -------------------------------------------------
  std::vector<Comparison> comparisons;
  comparisons.push_back(CompareGroupBy(
      "groupby_cat_dense",
      table, {"g1", "m0", vs::data::AggregateFunction::kAvg, 0}, nullptr,
      config.repeats, 1 << 14));
  comparisons.push_back(CompareGroupBy(
      "groupby_cat_hash",
      table, {"g2", "m1", vs::data::AggregateFunction::kSum, 0}, nullptr,
      config.repeats, /*kernel_dense_bins_max=*/16));
  comparisons.push_back(CompareGroupBy(
      "groupby_numeric_binned",
      table, {"d0", "m2", vs::data::AggregateFunction::kAvg, 32}, nullptr,
      config.repeats, 1 << 14));
  comparisons.push_back(CompareGroupBy(
      "groupby_selection",
      table, {"g0", "m3", vs::data::AggregateFunction::kMax, 0}, &query,
      config.repeats, 1 << 14));

  // Numeric range discovery (NumericBins): a fresh executor per repeat so
  // the range cache is cold and the scan itself is what gets timed.
  {
    Comparison c;
    c.name = "numeric_range_scan";
    c.units = static_cast<double>(table.num_rows());
    const vs::data::GroupBySpec spec{
        "d1", "m0", vs::data::AggregateFunction::kAvg, 4};
    vs::data::GroupByExecutorOptions scalar_options;
    scalar_options.use_kernel = false;
    c.scalar_seconds = BestOf(config.repeats, [&] {
      vs::data::GroupByExecutor cold(&table, scalar_options);
      auto s = cold.Prewarm(spec);
      if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
    });
    c.kernel_seconds = BestOf(config.repeats, [&] {
      vs::data::GroupByExecutor cold(&table);
      auto s = cold.Prewarm(spec);
      if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
    });
    comparisons.push_back(c);
  }

  // Fused utility features over one materialized view (g1: 96 bins).
  {
    vs::data::GroupByExecutor executor(&table);
    auto view = vs::core::MaterializeView(
        executor, {"g1", "m0", vs::data::AggregateFunction::kAvg, 0}, query);
    if (!view.ok()) {
      std::fprintf(stderr, "materialize: %s\n",
                   view.status().ToString().c_str());
      return 1;
    }
    auto scalar_registry = vs::core::UtilityFeatureRegistry::Default();
    scalar_registry.set_use_kernels(false);
    auto kernel_registry = vs::core::UtilityFeatureRegistry::Default();
    constexpr int kEvals = 20'000;
    Comparison c;
    c.name = "feature_compute_all";
    c.units = kEvals;
    c.scalar_seconds = BestOf(config.repeats, [&] {
      for (int i = 0; i < kEvals; ++i) {
        auto v = scalar_registry.ComputeAll(*view);
        benchmark::DoNotOptimize(v);
      }
    });
    c.kernel_seconds = BestOf(config.repeats, [&] {
      for (int i = 0; i < kEvals; ++i) {
        auto v = kernel_registry.ComputeAll(*view);
        benchmark::DoNotOptimize(v);
      }
    });
    comparisons.push_back(c);
  }

  // --- Headline: end-to-end feature-matrix build at config.rows ------------
  auto views_or = vs::core::EnumerateViews(table, {});
  if (!views_or.ok()) {
    std::fprintf(stderr, "views: %s\n", views_or.status().ToString().c_str());
    return 1;
  }
  auto scalar_registry = vs::core::UtilityFeatureRegistry::Default();
  scalar_registry.set_use_kernels(false);
  auto kernel_registry = vs::core::UtilityFeatureRegistry::Default();

  // The gated baseline is the per-view execution cost model of the
  // paper's prototype (shared_scan=false, scalar folds) — the cost the
  // fast path (SeeDB-style shared scans + typed kernels) replaces.  The
  // shared-scan scalar oracle is reported alongside so the kernel's own
  // contribution stays visible; it is NOT gated because on a single core
  // the typed batch fold already runs within ~2.5x of the scatter-update
  // floor (see docs/TESTING.md for the regen recipe and rationale).
  auto time_build = [&](bool use_kernels, bool shared_scan) {
    vs::core::FeatureMatrixOptions options;
    options.use_kernels = use_kernels;
    options.shared_scan = shared_scan;
    auto* registry = use_kernels ? &kernel_registry : &scalar_registry;
    return BestOf(config.repeats, [&] {
      auto m = vs::core::FeatureMatrix::Build(&table, *views_or, query,
                                              registry, options);
      if (!m.ok()) {
        std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
      }
    });
  };
  const double kernel_build_seconds =
      time_build(/*use_kernels=*/true, /*shared_scan=*/true);
  const double scalar_shared_seconds =
      time_build(/*use_kernels=*/false, /*shared_scan=*/true);

  Comparison build;
  build.name = "feature_matrix_build";
  build.units = static_cast<double>(table.num_rows());
  build.scalar_seconds =
      time_build(/*use_kernels=*/false, /*shared_scan=*/false);
  build.kernel_seconds = kernel_build_seconds;

  Comparison build_vs_shared;
  build_vs_shared.name = "feature_matrix_build_vs_shared_scalar";
  build_vs_shared.units = build.units;
  build_vs_shared.scalar_seconds = scalar_shared_seconds;
  build_vs_shared.kernel_seconds = kernel_build_seconds;

  // --- Report --------------------------------------------------------------
  std::printf("%-24s %14s %14s %9s\n", "kernel", "scalar/s", "kernel/s",
              "speedup");
  auto print_row = [](const Comparison& c) {
    std::printf("%-24s %14.3e %14.3e %8.2fx\n", c.name.c_str(),
                c.scalar_per_sec(), c.kernel_per_sec(), c.speedup());
  };
  for (const auto& c : comparisons) print_row(c);
  print_row(build_vs_shared);
  print_row(build);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"bench_micro --kernels\",\n";
  json +=
      "  \"claim\": \"the default build fast path (typed aggregation "
      "kernels + SeeDB-style shared scans) delivers >= 4x feature-build "
      "throughput at 1M rows over the paper prototype's per-view scalar "
      "execution model (shared_scan=false, use_kernels=false); the "
      "shared-scan scalar oracle is reported alongside, ungated\",\n";
  json += vs::StrFormat("  \"rows\": %llu,\n",
                        static_cast<unsigned long long>(table.num_rows()));
  json += vs::StrFormat("  \"views\": %zu,\n", views_or->size());
  json += vs::StrFormat("  \"repeats\": %d,\n", config.repeats);
  json += "  \"kernels\": {\n";
  for (size_t i = 0; i < comparisons.size(); ++i) {
    const auto& c = comparisons[i];
    json += vs::StrFormat(
        "    \"%s\": {\"scalar_per_sec\": %.0f, \"kernel_per_sec\": %.0f, "
        "\"speedup\": %.3f}%s\n",
        c.name.c_str(), c.scalar_per_sec(), c.kernel_per_sec(), c.speedup(),
        i + 1 < comparisons.size() ? "," : "");
  }
  json += "  },\n";
  json += vs::StrFormat(
      "  \"feature_build\": {\"scalar_per_view_seconds\": %.3f, "
      "\"scalar_shared_seconds\": %.3f, \"kernel_seconds\": %.3f, "
      "\"speedup_vs_per_view\": %.3f, \"speedup_vs_shared\": %.3f}\n",
      build.scalar_seconds, scalar_shared_seconds, build.kernel_seconds,
      build.speedup(), build_vs_shared.speedup());
  json += "}\n";

  if (!config.json_out.empty()) {
    std::FILE* f = std::fopen(config.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", config.json_out.c_str());
  }

  if (config.min_speedup > 0.0 && build.speedup() < config.min_speedup) {
    std::printf(
        "FAIL: feature-build speedup vs per-view scalar %.2fx < "
        "required %.2fx\n",
        build.speedup(), config.min_speedup);
    return 1;
  }
  if (config.min_speedup > 0.0) {
    std::printf(
        "PASS: feature-build speedup vs per-view scalar %.2fx >= %.2fx\n",
        build.speedup(), config.min_speedup);
  }
  return 0;
}

}  // namespace kernel_gate

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--kernels") {
      return kernel_gate::RunKernelGate(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
