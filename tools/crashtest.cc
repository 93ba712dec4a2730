/// Crash-recovery proof harness for the durable serving stack.
///
///   crashtest --kills=N [--seed=S] [--dir=D] [--fault-prob=P] [--keep]
///
/// Forks the server in-process N times over one durability directory and
/// SIGKILLs each child mid-stream — including cycles where the seeded
/// fault injector is tearing journal appends (wal.append_fail), failing
/// fsyncs (wal.fsync_fail) or failing snapshot renames
/// (snapshot.rename_fail) inside the child while the kill lands.  The
/// parent stays single-threaded (fork-safe under TSan) and keeps the
/// client-side ledger:
///
///   acked    label acknowledged with 200 — must be recovered, with the
///            exact value, by every later incarnation;
///   unknown  label attempted but the outcome is indeterminate (error
///            response, retried 409, or the request was in flight when
///            the SIGKILL landed) — may be recovered or not, but once
///            absent after a restart it must never reappear;
///   deleted  DELETE acknowledged — the id must stay gone.
///
/// After each restart the parent reconciles the ledger against
/// GET /sessions/{id}/labels *before* the child arms its fault plan (a
/// second pipe sequences this), so recovery itself always runs
/// fault-free, exactly as it would after a real crash.  The run ends
/// with a graceful SIGTERM drain cycle and one final restart that must
/// reproduce the ledger exactly.
///
/// Exit code: 0 = invariants hold, 1 = violation, 2 = harness error.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "args.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/generator.h"
#include "data/io.h"
#include "serve/app.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"

namespace {

using namespace vs;
using tools::Args;

struct Config {
  int kills = 25;
  uint64_t seed = 1;
  std::string dir;
  double fault_prob = 0.25;
  bool keep = false;
};

/// The per-cycle fault plans the child arms after recovery.  Cycle 0 of
/// every group runs clean so recovery-of-faulty-state is also exercised
/// against a well-behaved successor.
const char* FaultPointFor(int cycle) {
  switch (cycle % 4) {
    case 1: return "wal.append_fail";
    case 2: return "wal.fsync_fail";
    case 3: return "snapshot.rename_fail";
    default: return nullptr;
  }
}

// ---------------------------------------------------------------------------
// Child: the server process.  Never returns.
// ---------------------------------------------------------------------------

[[noreturn]] void RunChild(const Config& config, int cycle,
                           const std::string& table_path, int port_fd,
                           int go_fd) {
  // Block the shutdown signals before any server thread exists so every
  // thread inherits the mask and sigwait() below is the only receiver.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  serve::SessionManagerOptions manager_options;
  manager_options.max_sessions = 64;
  manager_options.session_ttl_seconds = 120.0;
  manager_options.durability_dir = config.dir + "/state";
  manager_options.snapshot_every_labels = 4;  // rotate constantly
  manager_options.seed = config.seed + static_cast<uint64_t>(cycle) * 1001;
  serve::SessionManager manager(manager_options, table_path);
  if (const auto status = manager.PreloadDefaultTable(); !status.ok()) {
    std::fprintf(stderr, "child %d: preload failed: %s\n", cycle,
                 status.ToString().c_str());
    std::_Exit(3);
  }
  if (const auto status = manager.RecoverFromDisk(); !status.ok()) {
    std::fprintf(stderr, "child %d: recovery failed: %s\n", cycle,
                 status.ToString().c_str());
    std::_Exit(3);
  }

  serve::ServeApp app(&manager);
  serve::HttpServerOptions server_options;
  server_options.worker_threads = 2;
  serve::HttpServer server(server_options,
                           [&app](const serve::HttpRequest& request) {
                             return app.Handle(request);
                           });
  if (const auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "child %d: server start failed: %s\n", cycle,
                 status.ToString().c_str());
    std::_Exit(3);
  }

  const uint32_t port = static_cast<uint32_t>(server.port());
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) std::_Exit(3);
  ::close(port_fd);

  // The parent reconciles the previous incarnation's ledger against a
  // fault-free server, then releases us to arm this cycle's plan.
  char go = 0;
  while (::read(go_fd, &go, 1) < 0 && errno == EINTR) {
  }
  ::close(go_fd);

  fault::FaultInjector injector(config.seed + static_cast<uint64_t>(cycle));
  const char* point = FaultPointFor(cycle);
  if (point != nullptr) injector.SetProbability(point, config.fault_prob);
  fault::InstallFaultInjector(point != nullptr ? &injector : nullptr);

  int sig = 0;
  sigwait(&set, &sig);

  // Graceful drain: stop accepting, snapshot every live session, exit
  // cleanly.  Faults are uninstalled first — a drain is an operator
  // action, not a crash.
  fault::InstallFaultInjector(nullptr);
  server.Stop();
  manager.PersistAllSessions();
  std::_Exit(0);
}

// ---------------------------------------------------------------------------
// Parent: ledger + verification.
// ---------------------------------------------------------------------------

struct KnownSession {
  std::map<size_t, double> acked;    ///< view -> value, 200-acknowledged
  std::map<size_t, double> unknown;  ///< attempted, outcome indeterminate
  size_t num_views = 0;
  bool deleted = false;         ///< DELETE acked: must stay gone
  bool delete_unknown = false;  ///< DELETE attempted, outcome unknown
};

struct Ledger {
  std::map<std::string, KnownSession> sessions;
  uint64_t creates_acked = 0;
  uint64_t labels_acked = 0;
  uint64_t labels_unknown = 0;
  uint64_t deletes_acked = 0;
  uint64_t violations = 0;
  uint64_t harness_errors = 0;
  uint64_t reconnect_retries = 0;
  uint64_t backoff_retries = 0;
  uint64_t inflight_kills = 0;
  /// Sums of the per-incarnation recovery counters (from /healthz).
  int64_t recovered_sessions = 0;
  int64_t replayed_labels = 0;
  int64_t torn_tails = 0;
  int64_t quarantined = 0;
};

/// Accumulates the child's recovery counters into the ledger; returns
/// the durability block (null value when unavailable).
void HarvestRecoveryStats(Ledger& ledger, serve::HttpClient& client) {
  auto health = client.Request("GET", "/healthz");
  if (!health.ok() || health->status != 200) return;
  auto parsed = serve::JsonValue::Parse(health->body);
  if (!parsed.ok()) return;
  const serve::JsonValue* durability = parsed->Find("durability");
  if (durability == nullptr || !durability->GetBool("enabled", false)) return;
  ledger.recovered_sessions += durability->GetInt("recovered_sessions", 0);
  ledger.replayed_labels += durability->GetInt("replayed_labels", 0);
  ledger.torn_tails += durability->GetInt("torn_tails", 0);
  ledger.quarantined += durability->GetInt("quarantined", 0);
}

bool ValuesMatch(double a, double b) {
  return std::fabs(a - b) <=
         1e-12 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

void Violation(Ledger& ledger, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "VIOLATION: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
  ++ledger.violations;
}

void ConfigureClient(serve::HttpClient& client, const Config& config,
                     int cycle) {
  serve::RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_seconds = 0.02;
  retry.deadline_seconds = 5.0;
  retry.jitter_seed = config.seed * 1000 + static_cast<uint64_t>(cycle);
  client.set_retry_options(retry);
}

/// Verifies the ledger against a freshly recovered (fault-free) server:
/// every acked label present with its exact value, nothing present that
/// was never attempted, deleted ids gone.  Unknown labels are settled
/// here — found ones become acked (they are durable now), absent ones
/// are removed (recovery dropped them; they can never reappear).
void Reconcile(Ledger& ledger, serve::HttpClient& client) {
  for (auto& [id, session] : ledger.sessions) {
    if (session.deleted) {
      auto response = client.Request("GET", "/sessions/" + id);
      if (!response.ok()) {
        std::fprintf(stderr, "harness: GET %s: %s\n", id.c_str(),
                     response.status().ToString().c_str());
        ++ledger.harness_errors;
        continue;
      }
      if (response->status != 404) {
        Violation(ledger, "deleted session %s resurrected (status %d)",
                  id.c_str(), response->status);
      }
      continue;
    }

    auto response = client.Request("GET", "/sessions/" + id + "/labels");
    if (!response.ok()) {
      std::fprintf(stderr, "harness: GET %s/labels: %s\n", id.c_str(),
                   response.status().ToString().c_str());
      ++ledger.harness_errors;
      continue;
    }
    if (response->status == 404) {
      if (session.delete_unknown) {
        // The indeterminate DELETE landed; from here on it must stay gone.
        session.deleted = true;
        session.acked.clear();
        session.unknown.clear();
        continue;
      }
      Violation(ledger, "acked session %s lost after restart", id.c_str());
      continue;
    }
    if (response->status != 200) {
      std::fprintf(stderr, "harness: GET %s/labels -> %d: %s\n", id.c_str(),
                   response->status, response->body.c_str());
      ++ledger.harness_errors;
      continue;
    }
    // The indeterminate DELETE did not land; the session is live again.
    session.delete_unknown = false;

    auto parsed = serve::JsonValue::Parse(response->body);
    if (!parsed.ok() || parsed->Find("labels") == nullptr ||
        !parsed->Find("labels")->is_array()) {
      std::fprintf(stderr, "harness: bad /labels body for %s\n", id.c_str());
      ++ledger.harness_errors;
      continue;
    }
    std::map<size_t, double> recovered;
    for (const auto& item : parsed->Find("labels")->array()) {
      const int64_t view = item.GetInt("view", -1);
      if (view < 0) continue;
      recovered[static_cast<size_t>(view)] = item.GetNumber("label", 0.0);
    }

    for (const auto& [view, value] : session.acked) {
      auto it = recovered.find(view);
      if (it == recovered.end()) {
        Violation(ledger, "session %s lost acked label view=%zu value=%.17g",
                  id.c_str(), view, value);
      } else if (!ValuesMatch(it->second, value)) {
        Violation(ledger,
                  "session %s label view=%zu recovered %.17g, acked %.17g",
                  id.c_str(), view, it->second, value);
      }
    }
    for (const auto& [view, value] : recovered) {
      if (session.acked.count(view) > 0) continue;
      auto it = session.unknown.find(view);
      if (it == session.unknown.end()) {
        Violation(ledger,
                  "session %s resurrected never-attempted label view=%zu",
                  id.c_str(), view);
      } else if (!ValuesMatch(it->second, value)) {
        Violation(ledger,
                  "session %s label view=%zu recovered %.17g, attempted %.17g",
                  id.c_str(), view, it->second, value);
      } else {
        // In-flight write turned out durable; it is now pinned forever.
        session.acked[view] = value;
      }
    }
    // Unknowns that did not survive recovery are gone for good — nothing
    // on disk can bring them back.
    session.unknown.clear();
  }
}

/// Drives a batch of creates / labels / deletes against the child,
/// updating the ledger with exactly what was acknowledged.
void DriveOps(Ledger& ledger, serve::HttpClient& client, const Config& config,
              int cycle, int ops) {
  Rng rng(config.seed * 2654435761ull + static_cast<uint64_t>(cycle) * 97);
  for (int op = 0; op < ops; ++op) {
    // Candidate sessions for label/delete traffic.
    std::vector<std::string> live;
    for (const auto& [id, session] : ledger.sessions) {
      if (!session.deleted && !session.delete_unknown) live.push_back(id);
    }

    const double dice = rng.NextDouble();
    if (live.size() < 3 || (dice < 0.15 && live.size() < 20)) {
      const std::string body =
          StrFormat("{\"k\":3,\"seed\":%d}", cycle * 100 + op);
      auto response = client.Request("POST", "/sessions", body);
      if (response.ok() && response->status == 201) {
        auto parsed = serve::JsonValue::Parse(response->body);
        if (parsed.ok()) {
          const std::string id = parsed->GetString("id", "");
          if (!id.empty() && ledger.sessions.count(id) == 0) {
            KnownSession session;
            session.num_views = static_cast<size_t>(
                parsed->GetInt("num_views", 0));
            ledger.sessions[id] = session;
            ++ledger.creates_acked;
          }
        }
      }
      // Unacked creates are simply unknown ids: the server may hold an
      // orphan session, which the invariant does not constrain.
      continue;
    }

    const std::string& id =
        live[static_cast<size_t>(rng.NextUint64() % live.size())];
    KnownSession& session = ledger.sessions[id];

    if (dice > 0.92 && !session.acked.empty()) {
      auto response = client.Request("DELETE", "/sessions/" + id);
      if (response.ok() && response->status == 200) {
        session.deleted = true;
        session.acked.clear();
        session.unknown.clear();
        ++ledger.deletes_acked;
      } else {
        session.delete_unknown = true;
      }
      continue;
    }

    // Pick a view this session has never attempted — re-labeling an
    // attempted view would make 409 ambiguous between "my retry landed"
    // and "my earlier failed attempt left it applied in memory".
    if (session.num_views == 0) continue;
    size_t view = static_cast<size_t>(rng.NextUint64() % session.num_views);
    bool found = false;
    for (size_t probe = 0; probe < session.num_views; ++probe) {
      const size_t candidate = (view + probe) % session.num_views;
      if (session.acked.count(candidate) == 0 &&
          session.unknown.count(candidate) == 0) {
        view = candidate;
        found = true;
        break;
      }
    }
    if (!found) continue;

    const double value = rng.NextDouble();
    const std::string body =
        StrFormat("{\"view\":%zu,\"label\":%.17g}", view, value);
    auto response = client.Request("POST", "/sessions/" + id + "/label", body);
    if (response.ok() && response->status == 200) {
      session.acked[view] = value;
      ++ledger.labels_acked;
    } else {
      // Error responses are indeterminate: the label may have been made
      // durable by the rotation-repair path even though the request
      // failed, and a retried request that answers 409 proves only that
      // *some* attempt was applied in memory, not that it was journaled.
      session.unknown[view] = value;
      ++ledger.labels_unknown;
    }
  }
}

/// Sends a label request and SIGKILLs the child without waiting for the
/// response — a genuinely in-flight write at kill time.
void KillInFlight(Ledger& ledger, const Config& config, int cycle, int port,
                  pid_t child) {
  Rng rng(config.seed ^ (0x9e3779b97f4a7c15ull + cycle));
  std::string victim;
  for (const auto& [id, session] : ledger.sessions) {
    if (!session.deleted && !session.delete_unknown &&
        session.num_views > 0) {
      victim = id;
      if (rng.NextDouble() < 0.5) break;
    }
  }
  if (victim.empty()) {
    ::kill(child, SIGKILL);
    return;
  }
  KnownSession& session = ledger.sessions[victim];
  size_t view = 0;
  bool found = false;
  for (size_t candidate = 0; candidate < session.num_views; ++candidate) {
    if (session.acked.count(candidate) == 0 &&
        session.unknown.count(candidate) == 0) {
      view = candidate;
      found = true;
      break;
    }
  }
  if (!found) {
    ::kill(child, SIGKILL);
    return;
  }

  const double value = rng.NextDouble();
  const std::string body =
      StrFormat("{\"view\":%zu,\"label\":%.17g}", view, value);
  const std::string request = StrFormat(
      "POST /sessions/%s/label HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: %zu\r\n\r\n%s",
      victim.c_str(), body.size(), body.c_str());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
      session.unknown[view] = value;
      ++ledger.labels_unknown;
      ++ledger.inflight_kills;
    }
  }
  ::kill(child, SIGKILL);
  if (fd >= 0) ::close(fd);
}

struct ChildHandle {
  pid_t pid = -1;
  int port = 0;
  int go_fd = -1;  ///< write one byte to release the child's fault plan
};

/// Forks the child server; returns its pid + bound port, or pid -1 on
/// harness failure.
ChildHandle SpawnChild(const Config& config, int cycle,
                       const std::string& table_path) {
  int port_pipe[2] = {-1, -1};
  int go_pipe[2] = {-1, -1};
  if (::pipe(port_pipe) != 0 || ::pipe(go_pipe) != 0) {
    std::perror("pipe");
    return {};
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return {};
  }
  if (pid == 0) {
    ::close(port_pipe[0]);
    ::close(go_pipe[1]);
    RunChild(config, cycle, table_path, port_pipe[1], go_pipe[0]);
  }
  ::close(port_pipe[1]);
  ::close(go_pipe[0]);

  uint32_t port = 0;
  ssize_t n;
  do {
    n = ::read(port_pipe[0], &port, sizeof(port));
  } while (n < 0 && errno == EINTR);
  ::close(port_pipe[0]);
  if (n != sizeof(port) || port == 0) {
    std::fprintf(stderr, "harness: child %d failed to report a port\n",
                 cycle);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ::close(go_pipe[1]);
    return {};
  }
  ChildHandle handle;
  handle.pid = pid;
  handle.port = static_cast<int>(port);
  handle.go_fd = go_pipe[1];
  return handle;
}

void ReleaseChild(ChildHandle& handle) {
  if (handle.go_fd >= 0) {
    const char go = 1;
    (void)!::write(handle.go_fd, &go, 1);
    ::close(handle.go_fd);
    handle.go_fd = -1;
  }
}

int Reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

void HarvestRetries(Ledger& ledger, const serve::HttpClient& client) {
  ledger.reconnect_retries += client.retries();
  ledger.backoff_retries += client.backoff_retries();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  if (args.Has("help")) {
    std::printf(
        "usage: crashtest --kills=N [--seed=S] [--dir=D] [--fault-prob=P] "
        "[--keep]\n");
    return 0;
  }
  Config config;
  config.kills = static_cast<int>(args.GetInt("kills", 25));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.fault_prob = args.GetDouble("fault-prob", 0.25);
  config.keep = args.Has("keep");
  config.dir = args.Get("dir");
  if (config.dir.empty()) {
    config.dir = "/tmp/vs_crashtest_" + std::to_string(::getpid());
  }
  ::signal(SIGPIPE, SIG_IGN);

  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  // One small table shared by every incarnation.
  data::DiabetesOptions table_options;
  table_options.num_rows = 400;
  table_options.seed = 11;
  auto table = data::GenerateDiabetes(table_options);
  if (!table.ok()) {
    std::fprintf(stderr, "table generation failed: %s\n",
                 table.status().ToString().c_str());
    return 2;
  }
  const std::string table_path = config.dir + "/table.vst";
  if (const auto status = data::WriteTableFile(*table, table_path);
      !status.ok()) {
    std::fprintf(stderr, "table write failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  std::printf("crashtest: %d SIGKILL cycles, seed %" PRIu64
              ", fault prob %.2f, dir %s\n",
              config.kills, config.seed, config.fault_prob,
              config.dir.c_str());

  Ledger ledger;
  Rng kill_rng(config.seed * 31 + 7);

  for (int cycle = 0; cycle < config.kills; ++cycle) {
    ChildHandle child = SpawnChild(config, cycle, table_path);
    if (child.pid < 0) return 2;

    serve::HttpClient client("127.0.0.1", child.port, 10.0);
    ConfigureClient(client, config, cycle);

    Reconcile(ledger, client);
    HarvestRecoveryStats(ledger, client);
    ReleaseChild(child);  // reconcile done: arm this cycle's fault plan

    const int ops = 25 + static_cast<int>(kill_rng.NextUint64() % 20);
    DriveOps(ledger, client, config, cycle, ops);
    HarvestRetries(ledger, client);
    client.Disconnect();

    if (kill_rng.NextDouble() < 0.7) {
      KillInFlight(ledger, config, cycle, child.port, child.pid);
    } else {
      ::kill(child.pid, SIGKILL);
    }
    Reap(child.pid);

    const char* point = FaultPointFor(cycle);
    std::printf(
        "  cycle %2d [%-20s]: sessions %zu, acked %" PRIu64
        ", unknown %" PRIu64 ", violations %" PRIu64 "\n",
        cycle, point != nullptr ? point : "no faults",
        ledger.sessions.size(), ledger.labels_acked, ledger.labels_unknown,
        ledger.violations);
  }

  // Graceful drain cycle: fault-free traffic, then SIGTERM — the child
  // must snapshot every live session and exit 0.
  {
    const int cycle = config.kills - config.kills % 4;  // mode "no faults"
    ChildHandle child = SpawnChild(config, cycle, table_path);
    if (child.pid < 0) return 2;
    serve::HttpClient client("127.0.0.1", child.port, 10.0);
    ConfigureClient(client, config, cycle);
    Reconcile(ledger, client);
    ReleaseChild(child);
    DriveOps(ledger, client, config, cycle, 15);
    HarvestRetries(ledger, client);
    client.Disconnect();
    ::kill(child.pid, SIGTERM);
    const int status = Reap(child.pid);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      Violation(ledger, "graceful drain exited abnormally (status 0x%x)",
                status);
    }
  }

  // Final restart: the drained state must reproduce the ledger exactly,
  // and the durability counters must account for it.
  {
    const int cycle = config.kills - config.kills % 4;
    ChildHandle child = SpawnChild(config, cycle, table_path);
    if (child.pid < 0) return 2;
    serve::HttpClient client("127.0.0.1", child.port, 10.0);
    ConfigureClient(client, config, cycle);
    Reconcile(ledger, client);

    size_t live_sessions = 0;
    for (const auto& [id, session] : ledger.sessions) {
      if (!session.deleted) ++live_sessions;
    }
    auto health = client.Request("GET", "/healthz");
    if (health.ok() && health->status == 200) {
      auto parsed = serve::JsonValue::Parse(health->body);
      const serve::JsonValue* durability =
          parsed.ok() ? parsed->Find("durability") : nullptr;
      if (durability == nullptr ||
          !durability->GetBool("enabled", false)) {
        Violation(ledger, "/healthz reports durability disabled");
      } else {
        const int64_t recovered =
            durability->GetInt("recovered_sessions", -1);
        if (recovered < static_cast<int64_t>(live_sessions)) {
          Violation(ledger,
                    "recovered_sessions=%" PRId64 " < %zu live sessions",
                    recovered, live_sessions);
        }
        std::printf(
            "  final recovery: sessions %" PRId64 ", replayed %" PRId64
            ", torn tails %" PRId64 ", quarantined %" PRId64 "\n",
            recovered, durability->GetInt("replayed_labels", 0),
            durability->GetInt("torn_tails", 0),
            durability->GetInt("quarantined", 0));
      }
    } else {
      std::fprintf(stderr, "harness: /healthz unavailable\n");
      ++ledger.harness_errors;
    }
    HarvestRetries(ledger, client);
    client.Disconnect();
    ReleaseChild(child);
    ::kill(child.pid, SIGTERM);
    Reap(child.pid);
  }

  std::printf(
      "crashtest: %zu sessions (%" PRIu64 " created, %" PRIu64
      " deleted), %" PRIu64 " labels acked, %" PRIu64
      " indeterminate, %" PRIu64 " in-flight kills\n",
      ledger.sessions.size(), ledger.creates_acked, ledger.deletes_acked,
      ledger.labels_acked, ledger.labels_unknown, ledger.inflight_kills);
  std::printf("crashtest: client retries: %" PRIu64 " backoff, %" PRIu64
              " reconnect\n",
              ledger.backoff_retries, ledger.reconnect_retries);
  std::printf("crashtest: recovery totals: %" PRId64 " sessions, %" PRId64
              " labels replayed, %" PRId64 " torn tails, %" PRId64
              " quarantined\n",
              ledger.recovered_sessions, ledger.replayed_labels,
              ledger.torn_tails, ledger.quarantined);
  // A run with in-flight kills and a tight snapshot cadence that never
  // replays a journal record is not exercising recovery at all — flag it
  // so a silently-degenerate harness cannot pass CI.
  if (config.kills >= 8 && ledger.replayed_labels == 0) {
    std::fprintf(stderr,
                 "harness: no journal records were ever replayed — the "
                 "workload did not reach the WAL path\n");
    ++ledger.harness_errors;
  }

  if (!config.keep) {
    std::error_code cleanup_ec;
    std::filesystem::remove_all(config.dir, cleanup_ec);
  }

  if (ledger.violations > 0) {
    std::printf("crashtest: FAIL — %" PRIu64 " invariant violations\n",
                ledger.violations);
    return 1;
  }
  if (ledger.harness_errors > 0) {
    std::printf("crashtest: harness errors: %" PRIu64 "\n",
                ledger.harness_errors);
    return 2;
  }
  std::printf("crashtest: PASS — every acked label recovered, nothing "
              "resurrected\n");
  return 0;
}
