/// perfbench_client — the benchmark's traffic and oracle process.
///
///   perfbench_client run   --workload=W --seed=N --seconds=S --table=F
///                          [--min-iterations=1000] [--perturb=KIND]
///   perfbench_client trace --workload=W --seed=N --seconds=S --table=F
///                          --work-dir=DIR [--spans-out=F.json]
///
/// `run` loads the table, checks sampled reference cells, builds the
/// oracle's exact matrices, prints `PREPARED`, then reads one line
/// `ports <front> <shard>...` from stdin (the servers run.py started),
/// warms them, drives the closed-loop lanes for the timed phase, checks
/// every answer and prints one JSON result line.  `trace` runs the
/// workload against an in-process stack with spans around each layer
/// (see traced.h).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "lane.h"
#include "metrics.h"
#include "oracle.h"
#include "plan.h"
#include "session.h"
#include "traced.h"

namespace pb {
namespace {

/// Rows the server refines per next/topk of a degraded session
/// (SessionManagerOptions::refine_rows_per_request).
constexpr size_t kRefinePerRequest = 4;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "true";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_client: %s\n", message.c_str());
  return 3;
}

/// Warms fresh servers: creates (direct to each shard) build the code
/// paths, and for the routed workload every pool filter lands in every
/// shard's FeatureMatrixCache so each timed create is a hit.
void WarmUp(const WorkloadConfig& config, const Plan& plan,
            const Oracle& oracle, const std::vector<int>& shard_ports,
            std::vector<std::unique_ptr<Lane>>& lanes) {
  auto alternating = [](size_t view) { return view % 2 == 0 ? 0.2 : 0.8; };
  std::vector<std::thread> threads;
  for (int port : shard_ports) {
    threads.emplace_back([&, port]() {
      Lane lane(port);
      WorkloadConfig warm = config;
      if (config.kind == Kind::kRoutedLabelLoop) warm.iterations = 2;
      for (const std::string& filter : plan.warm_filters) {
        RunSession(warm, lane, filter, alternating, oracle.num_views());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (config.kind == Kind::kRoutedLabelLoop) {
    // One short session per lane through the router.
    WorkloadConfig warm = config;
    warm.iterations = 4;
    for (auto& lane : lanes) {
      RunSession(warm, *lane, plan.filters[0], alternating, oracle.num_views());
    }
  }
}

int RunTimed(const std::map<std::string, std::string>& flags,
             const WorkloadConfig& config, uint64_t seed, double seconds) {
  const size_t min_iterations = static_cast<size_t>(
      std::atol(flags.count("min-iterations")
                    ? flags.at("min-iterations").c_str()
                    : "1000"));
  auto loaded = Oracle::Load(flags.at("table"));
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  Oracle& oracle = **loaded;
  auto cells = oracle.CheckReferenceCells();
  if (!cells.ok()) return Fail(cells.status().ToString());
  const Plan plan = MakePlan(config, seed);
  vs::Status built = oracle.BuildExact(plan.filters, 4);
  if (!built.ok()) return Fail(built.ToString());
  std::printf("PREPARED %zu reference cells checked, %zu exact matrices\n",
              *cells, plan.filters.size());
  std::fflush(stdout);

  std::string line;
  if (!std::getline(std::cin, line)) return Fail("no ports on stdin");
  std::istringstream ports_line(line);
  std::string word;
  int front = 0;
  ports_line >> word >> front;
  std::vector<int> shard_ports;
  for (int port; ports_line >> port;) shard_ports.push_back(port);
  if (word != "ports" || front <= 0 || shard_ports.empty()) {
    return Fail("bad ports line: " + line);
  }

  std::vector<std::unique_ptr<Lane>> lanes;
  for (int i = 0; i < config.lanes; ++i) {
    lanes.push_back(std::make_unique<Lane>(front));
  }
  WarmUp(config, plan, oracle, shard_ports, lanes);

  // Timed phase: closed-loop lanes pull sessions from the plan until the
  // run length has passed and enough iterations were measured.
  std::atomic<size_t> next_session{0};
  std::atomic<size_t> iterations{0};
  std::mutex mu;
  std::vector<SessionRecord> records;
  const double start = NowMs();
  auto lane_loop = [&](Lane* lane) {
    while (true) {
      if (NowMs() - start >= seconds * 1e3 && iterations >= min_iterations) {
        break;
      }
      const size_t index = next_session++;
      if (index >= plan.sessions.size()) break;
      const SessionPlan& session = plan.sessions[index];
      SessionRecord record = RunSession(
          config, *lane, plan.filters[session.filter],
          [&](size_t view) {
            return oracle.Label(session.filter, session.ustar, view);
          },
          oracle.num_views());
      record.plan_index = index;
      iterations += record.acked.size();
      std::lock_guard<std::mutex> lock(mu);
      records.push_back(std::move(record));
    }
  };
  std::vector<std::thread> threads;
  for (auto& lane : lanes) threads.emplace_back(lane_loop, lane.get());
  for (auto& thread : threads) thread.join();
  const double elapsed_s = (NowMs() - start) / 1e3;
  lanes.clear();

  std::sort(records.begin(), records.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.plan_index < b.plan_index;
            });
  if (flags.count("perturb") && !Perturb(flags.at("perturb"), &records)) {
    return Fail("unknown perturbation " + flags.at("perturb"));
  }

  size_t attempted = 0;
  size_t failed = 0;
  size_t completed = 0;
  std::vector<double> create_ms, iteration_ms, topk_ms, session_ms;
  double precision_sum = 0.0;
  for (const SessionRecord& s : records) {
    const Step* pending_next = nullptr;
    for (const Step& step : s.steps) {
      ++attempted;
      if (step.status != (step.op == 'C' ? 201 : 200)) ++failed;
      switch (step.op) {
        case 'C': create_ms.push_back(step.ms); break;
        case 'N': pending_next = &step; break;
        case 'L':
          if (pending_next != nullptr) {
            iteration_ms.push_back(pending_next->ms + step.ms);
          }
          pending_next = nullptr;
          break;
        case 'T': topk_ms.push_back(step.ms); break;
        default: break;
      }
    }
    if (s.session_ms > 0.0) {
      ++completed;
      session_ms.push_back(s.session_ms);
      const SessionPlan& p = plan.sessions[s.plan_index];
      const std::vector<size_t> truth = oracle.TrueTopK(p.filter, p.ustar);
      const Step* final_topk = nullptr;
      for (const Step& step : s.steps) {
        if (step.op == 'T') final_topk = &step;
      }
      size_t hits = 0;
      for (long long v : final_topk->views) {
        hits += std::count(truth.begin(), truth.end(), static_cast<size_t>(v));
      }
      precision_sum += static_cast<double>(hits) / kTopK;
    }
  }
  std::vector<std::string> errors =
      CheckTranscript(config, plan, oracle, records, kRefinePerRequest);
  // Status mismatches are failed operations, counted in `failed`; the
  // correctness verdict covers the answers of the operations that did not
  // fail.
  size_t answer_errors = 0;
  for (const std::string& e : errors) {
    if (e.find(": status ") == std::string::npos) ++answer_errors;
  }
  if (iteration_ms.size() < min_iterations) {
    errors.push_back("only " + std::to_string(iteration_ms.size()) +
                     " iterations measured");
    ++answer_errors;
  }

  MetricSet metrics;
  metrics.Add("create_ms.p50", Quantile(create_ms, 0.5), "ms");
  metrics.Add("create_ms.p90", Quantile(create_ms, 0.9), "ms");
  metrics.Add("session_ms.p50", Quantile(session_ms, 0.5), "ms");
  metrics.Add("sessions_per_s", static_cast<double>(completed) / elapsed_s,
              "1/s");
  metrics.Add("topk_precision",
              completed > 0 ? precision_sum / static_cast<double>(completed)
                            : 0.0,
              "ratio");
  char info[320];
  std::snprintf(info, sizeof(info),
                "{\"sessions\":%zu,\"iterations\":%zu,\"elapsed_s\":%.3f,"
                "\"plan_sessions\":%zu,\"iteration_ms.p50\":%.4f,"
                "\"iteration_ms.p99\":%.4f,\"topk_ms.p50\":%.4f}",
                completed, iteration_ms.size(), elapsed_s,
                plan.sessions.size(), Quantile(iteration_ms, 0.5),
                Quantile(iteration_ms, 0.99), Quantile(topk_ms, 0.5));
  PrintResult(answer_errors == 0, attempted, failed, metrics, errors, info);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  if (argc < 2) return Fail("usage: perfbench_client run|trace --key=value...");
  const std::string mode = argv[1];
  const auto flags = ParseFlags(argc, argv);
  for (const char* required : {"workload", "seed", "seconds", "table"}) {
    if (!flags.count(required)) {
      return Fail(std::string("--") + required + " is required");
    }
  }
  WorkloadConfig config;
  if (!FindWorkload(flags.at("workload"), &config)) {
    return Fail("unknown workload " + flags.at("workload"));
  }
  const uint64_t seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  const double seconds = std::atof(flags.at("seconds").c_str());
  if (mode == "run") return RunTimed(flags, config, seed, seconds);
  if (mode == "trace") return RunTraced(flags, config, seed, seconds);
  return Fail("unknown mode " + mode);
}
