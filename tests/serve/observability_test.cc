/// End-to-end request-scoped observability over the real HTTP stack: a
/// request with a known X-Request-Id is traceable in the response
/// headers, in its wide event's stage breakdown, and — during a
/// fault-injected stall — in the /statusz in-flight table.

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "serve/app.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"

namespace vs::serve {
namespace {

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 400;
    options.seed = 23;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_obs_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

/// Full stack with durability on (labels journal through the WAL) and a
/// capturing wide-event sink sampling every request.
class ObservabilityTest : public ::testing::Test {
 protected:
  void StartStack(ServeAppOptions app_options = DefaultAppOptions()) {
    SessionManagerOptions manager_options;
    manager_options.durability_dir =
        ::testing::TempDir() + "serve_obs_durability_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    manager_options.durability_fsync = false;  // speed; not under test
    // Rotate on every label so a traced label request spans the full
    // durability path (WAL append + snapshot) in one wide event.
    manager_options.snapshot_every_labels = 1;
    manager_ = std::make_unique<SessionManager>(manager_options,
                                                TestTablePath());
    app_ = std::make_unique<ServeApp>(manager_.get(), app_options);
    HttpServerOptions server_options;
    server_options.port = 0;
    server_ = std::make_unique<HttpServer>(
        server_options,
        [this](const HttpRequest& request) { return app_->Handle(request); });
    ASSERT_TRUE(server_->Start().ok());
  }

  static ServeAppOptions DefaultAppOptions() {
    ServeAppOptions options;
    options.wide_event_sink = &Sink();
    options.wide_event_sample = 1;  // every request
    options.slo_budget_ms = 1000.0;
    return options;
  }

  static obs::VectorEventSink& Sink() {
    static obs::VectorEventSink* sink = new obs::VectorEventSink;
    return *sink;
  }

  void SetUp() override { Sink().Clear(); }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  /// The wide event emitted for \p request_id, as JSON ("" when absent).
  static std::string WideEventFor(const std::string& request_id) {
    for (const obs::Event& event : Sink().events()) {
      const std::string json = event.ToJson();
      if (json.find("\"request_id\":\"" + request_id + "\"") !=
          std::string::npos) {
        return json;
      }
    }
    return "";
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeApp> app_;
  std::unique_ptr<HttpServer> server_;
};

TEST(SanitizeRequestIdTest, AcceptsSafeIdsRejectsTheRest) {
  EXPECT_EQ(SanitizeRequestId("abc-123_X.y:z"), "abc-123_X.y:z");
  EXPECT_EQ(SanitizeRequestId(""), "");
  EXPECT_EQ(SanitizeRequestId("has space"), "");
  EXPECT_EQ(SanitizeRequestId("quote\"inject"), "");
  EXPECT_EQ(SanitizeRequestId("newline\ninject"), "");
  EXPECT_EQ(SanitizeRequestId(std::string(64, 'a')), std::string(64, 'a'));
  EXPECT_EQ(SanitizeRequestId(std::string(65, 'a')), "");
}

TEST_F(ObservabilityTest, KnownRequestIdTraceableEndToEnd) {
  StartStack();
  HttpClient client = Client();

  // Create carries a caller-chosen id; the response must echo it.
  auto created = client.Request("POST", "/sessions", "{\"k\":3}",
                                {{"X-Request-Id", "trace-create-1"}});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string* echoed = created->FindHeader("x-request-id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "trace-create-1");
  const std::string* stages = created->FindHeader("x-request-stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->find("http.dispatch="), std::string::npos) << *stages;
  const std::string id = JsonValue::Parse(created->body)->GetString("id", "");
  ASSERT_FALSE(id.empty());

  // The create's wide event carries the id plus >= 4 distinct stage
  // spans: transport dispatch, session creation, and the matrix-cache
  // lookup + leader build underneath it.
  const std::string create_event = WideEventFor("trace-create-1");
  ASSERT_FALSE(create_event.empty());
  EXPECT_NE(create_event.find("\"endpoint\":\"create_session\""),
            std::string::npos)
      << create_event;
  for (const char* stage :
       {"stage_us.http.dispatch", "stage_us.session_manager.create",
        "stage_us.fmcache.lookup", "stage_us.fmcache.build"}) {
    EXPECT_NE(create_event.find(stage), std::string::npos)
        << stage << " missing in " << create_event;
  }

  // A durable label: its wide event reaches down into the WAL append.
  auto next = client.Request("GET", "/sessions/" + id + "/next");
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(next->status, 200) << next->body;
  const int64_t view =
      JsonValue::Parse(next->body)->Find("views")->array()[0].GetInt("view",
                                                                     -1);
  ASSERT_GE(view, 0);
  auto labeled = client.Request(
      "POST", "/sessions/" + id + "/label",
      "{\"view\":" + std::to_string(view) + ",\"label\":1}",
      {{"X-Request-Id", "trace-label-1"}});
  ASSERT_TRUE(labeled.ok());
  ASSERT_EQ(labeled->status, 200) << labeled->body;
  ASSERT_NE(labeled->FindHeader("x-request-id"), nullptr);
  EXPECT_EQ(*labeled->FindHeader("x-request-id"), "trace-label-1");

  // >= 4 distinct stage spans for one label: transport, session manager,
  // WAL append, and the cadence snapshot rotation.
  const std::string label_event = WideEventFor("trace-label-1");
  ASSERT_FALSE(label_event.empty());
  for (const char* stage :
       {"stage_us.http.dispatch", "stage_us.session_manager.label",
        "stage_us.durability.wal_append", "stage_us.durability.snapshot"}) {
    EXPECT_NE(label_event.find(stage), std::string::npos)
        << stage << " missing in " << label_event;
  }
}

/// name -> micros of an X-Request-Stages value ("a=12;b=34").
std::map<std::string, int64_t> ParseStages(const std::string& header) {
  std::map<std::string, int64_t> out;
  size_t pos = 0;
  while (pos < header.size()) {
    size_t end = header.find(';', pos);
    if (end == std::string::npos) end = header.size();
    const size_t eq = header.find('=', pos);
    if (eq < end) {
      out[header.substr(pos, eq - pos)] =
          std::atoll(header.substr(eq + 1, end - eq - 1).c_str());
    }
    pos = end + 1;
  }
  return out;
}

/// Checks that the trace ring's events tagged \p request_id are exactly
/// the request's stages: recorded on one thread, under the names of
/// \p stages_header with the same total micros per name, one event per
/// stage record (the wide event's stage_count).  Returns the events.
std::vector<obs::TraceEvent> ExpectRingMatchesStages(
    const std::string& request_id, const std::string& stages_header,
    const std::string& wide_event) {
  std::vector<obs::TraceEvent> events;
  for (obs::TraceEvent& event : obs::TraceCollector::Default().Snapshot()) {
    if (event.request_id == request_id) events.push_back(std::move(event));
  }
  EXPECT_FALSE(events.empty()) << request_id;
  std::map<std::string, int64_t> ring_us;
  for (const obs::TraceEvent& event : events) {
    EXPECT_EQ(event.thread_id, events.front().thread_id) << event.name;
    ring_us[event.name] += event.duration_us;
  }
  EXPECT_EQ(ring_us, ParseStages(stages_header)) << stages_header;
  EXPECT_NE(wide_event.find("\"stage_count\":" +
                            std::to_string(events.size()) + ","),
            std::string::npos)
      << events.size() << " ring events; " << wide_event;
  return events;
}

size_t CountNamed(const std::vector<obs::TraceEvent>& events,
                  const std::string& name) {
  size_t n = 0;
  for (const obs::TraceEvent& event : events) n += event.name == name;
  return n;
}

TEST_F(ObservabilityTest, RingEventsOfARequestAreItsStages) {
  StartStack();
  obs::TraceCollector::Default().Clear();
  HttpClient client = Client();

  auto created = client.Request("POST", "/sessions", "{\"k\":3}",
                                {{"X-Request-Id", "ring-create-1"}});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string* create_stages = created->FindHeader("x-request-stages");
  ASSERT_NE(create_stages, nullptr);
  const std::vector<obs::TraceEvent> create_events = ExpectRingMatchesStages(
      "ring-create-1", *create_stages, WideEventFor("ring-create-1"));
  // One span per region: no second event for the create or the build.
  EXPECT_EQ(CountNamed(create_events, "http.dispatch"), 1u);
  EXPECT_EQ(CountNamed(create_events, "session_manager.create"), 1u);
  EXPECT_EQ(CountNamed(create_events, "fmcache.build"), 1u);
  EXPECT_EQ(CountNamed(create_events, "core.build"), 1u);
  EXPECT_GE(CountNamed(create_events, "reference_store.fill"), 1u);

  const std::string id = JsonValue::Parse(created->body)->GetString("id", "");
  auto next = client.Request("GET", "/sessions/" + id + "/next");
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(next->status, 200) << next->body;
  const int64_t view =
      JsonValue::Parse(next->body)->Find("views")->array()[0].GetInt("view",
                                                                     -1);
  ASSERT_GE(view, 0);
  // Evicted, so the label restores the session from its snapshot first.
  ASSERT_EQ(manager_->EvictIdleOlderThan(0.0), 1u);
  auto labeled = client.Request(
      "POST", "/sessions/" + id + "/label",
      "{\"view\":" + std::to_string(view) + ",\"label\":1}",
      {{"X-Request-Id", "ring-label-1"}});
  ASSERT_TRUE(labeled.ok());
  ASSERT_EQ(labeled->status, 200) << labeled->body;
  const std::string* label_stages = labeled->FindHeader("x-request-stages");
  ASSERT_NE(label_stages, nullptr);
  const std::vector<obs::TraceEvent> label_events = ExpectRingMatchesStages(
      "ring-label-1", *label_stages, WideEventFor("ring-label-1"));
  EXPECT_EQ(CountNamed(label_events, "session_manager.restore"), 1u);
  EXPECT_EQ(CountNamed(label_events, "session_manager.label"), 1u);
  EXPECT_EQ(CountNamed(label_events, "core.seeker_label"), 1u);
  // http.dispatch is the request's root span.
  for (const obs::TraceEvent& event : label_events) {
    if (event.name == "http.dispatch") {
      EXPECT_EQ(event.parent_id, 0u);
    }
  }
}

TEST_F(ObservabilityTest, DeleteIsAttributedToTheSessionManager) {
  StartStack();
  HttpClient client = Client();
  auto created = client.Request("POST", "/sessions", "{\"k\":3}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string id = JsonValue::Parse(created->body)->GetString("id", "");
  // The durable files are removed before the ack; that time belongs to a
  // named stage, not to bare http.dispatch.
  auto deleted = client.Request("DELETE", "/sessions/" + id);
  ASSERT_TRUE(deleted.ok());
  ASSERT_EQ(deleted->status, 200) << deleted->body;
  const std::string* stages = deleted->FindHeader("x-request-stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->find("session_manager.delete="), std::string::npos)
      << *stages;
}

TEST_F(ObservabilityTest, ErrorResponsesEchoTheRequestId) {
  StartStack();
  HttpClient client = Client();

  // Routed handler error (unknown session -> 404).
  auto missing = client.Request("GET", "/sessions/nope", "",
                                {{"X-Request-Id", "trace-err-1"}});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  ASSERT_NE(missing->FindHeader("x-request-id"), nullptr);
  EXPECT_EQ(*missing->FindHeader("x-request-id"), "trace-err-1");

  // Unmatched route -> 404 with the id still attached.
  auto unmatched = client.Request("GET", "/no/such/route", "",
                                  {{"X-Request-Id", "trace-err-2"}});
  ASSERT_TRUE(unmatched.ok());
  EXPECT_EQ(unmatched->status, 404);
  ASSERT_NE(unmatched->FindHeader("x-request-id"), nullptr);
  EXPECT_EQ(*unmatched->FindHeader("x-request-id"), "trace-err-2");

  // An unusable id is replaced, not reflected verbatim.
  auto bad = client.Request("GET", "/healthz", "",
                            {{"X-Request-Id", "bad id with spaces"}});
  ASSERT_TRUE(bad.ok());
  const std::string* assigned = bad->FindHeader("x-request-id");
  ASSERT_NE(assigned, nullptr);
  EXPECT_EQ(assigned->compare(0, 4, "req-"), 0) << *assigned;
}

TEST_F(ObservabilityTest, GeneratedIdsAreAssignedWithoutHeader) {
  StartStack();
  HttpClient client = Client();
  auto response = client.Request("GET", "/healthz");
  ASSERT_TRUE(response.ok());
  const std::string* id = response->FindHeader("x-request-id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->compare(0, 4, "req-"), 0) << *id;
}

TEST_F(ObservabilityTest, StatuszShowsStalledRequestInFlight) {
  StartStack();

  fault::FaultInjector injector(7);
  injector.SetProbability("serve.handler_stall", 1.0);
  fault::ScopedFaultInjector scoped(&injector);

  // The stalled request: parks in the dispatch wrapper until the fault
  // is cleared, then resolves normally (404 for the unknown session).
  std::thread stalled([this] {
    HttpClient client = Client();
    auto response = client.Request("GET", "/sessions/zzz/next", "",
                                   {{"X-Request-Id", "stall-1"}});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 404);
    ASSERT_NE(response->FindHeader("x-request-id"), nullptr);
    EXPECT_EQ(*response->FindHeader("x-request-id"), "stall-1");
  });

  // /statusz (never stalled) must list the request by id, attributed to
  // its endpoint, while it is still parked.
  HttpClient prober = Client();
  std::string statusz;
  Stopwatch deadline;
  bool seen = false;
  while (deadline.ElapsedSeconds() < 10.0) {
    // The request is registered in flight before its endpoint is
    // stamped; it is parked (and stamped) once the stall has fired.
    const bool parked = injector.Stats("serve.handler_stall").fires > 0;
    auto response = prober.Request("GET", "/statusz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
    statusz = response->body;
    if (parked &&
        statusz.find("\"id\":\"stall-1\"") != std::string::npos) {
      seen = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  injector.Clear("serve.handler_stall");
  stalled.join();

  ASSERT_TRUE(seen) << statusz;
  EXPECT_NE(statusz.find("\"endpoint\":\"next\""), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"stage\":\"http.dispatch\""), std::string::npos)
      << statusz;
  // Once released, the in-flight table drains again.
  auto after = prober.Request("GET", "/statusz");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->body.find("\"id\":\"stall-1\""), std::string::npos);
}

TEST_F(ObservabilityTest, StatuszRendersIntrospectionSections) {
  StartStack();
  HttpClient client = Client();
  auto response = client.Request("GET", "/statusz");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  for (const char* field :
       {"\"build\"", "\"version\"", "\"uptime_seconds\"", "\"config\"",
        "\"inflight\"", "\"slo\"", "\"window_seconds\"", "\"matrix_cache\"",
        "\"active_sessions\"", "\"durability\""}) {
    EXPECT_NE(response->body.find(field), std::string::npos)
        << field << " missing in " << response->body;
  }
}

TEST_F(ObservabilityTest, MetricsExposeSloAndBuildInfoAndResponseCodes) {
  StartStack();
  HttpClient client = Client();
  ASSERT_EQ(client.Request("GET", "/healthz")->status, 200);
  auto metrics = client.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  for (const char* needle :
       {"viewseeker_build_info{", "slo_window_p50_ms_healthz",
        "http_responses_200", "serve_endpoint_seconds_healthz"}) {
    EXPECT_NE(metrics->body.find(needle), std::string::npos)
        << needle << " missing";
  }
}

TEST_F(ObservabilityTest, SlowTriggerEmitsWithoutSampling) {
  ServeAppOptions options = DefaultAppOptions();
  options.wide_event_sample = 0;       // sampling off
  options.slow_request_ms = 1e-6;      // everything counts as slow
  StartStack(options);
  HttpClient client = Client();
  ASSERT_EQ(client
                .Request("GET", "/healthz", "",
                         {{"X-Request-Id", "slow-1"}})
                ->status,
            200);
  const std::string event = WideEventFor("slow-1");
  ASSERT_FALSE(event.empty());
  EXPECT_NE(event.find("\"slow\":true"), std::string::npos) << event;
  EXPECT_NE(event.find("\"sampled\":false"), std::string::npos) << event;
}

}  // namespace
}  // namespace vs::serve
