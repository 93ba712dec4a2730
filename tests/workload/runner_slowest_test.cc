#include "workload/runner.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "serve/http.h"
#include "serve/json.h"
#include "serve/server.h"
#include "workload/plan.h"

namespace vs::workload {
namespace {

// Pins the slowest-requests diagnostic: the report lists the
// kSlowestRequests slowest answered requests, slowest first, each with the
// id the runner sent, its endpoint, status, client-observed time and the
// server's X-Request-Stages echo — in the text and in the JSON report.
//
// The stub answers the n-th next after (n + 1) * kStepMs and echoes a
// stage header naming n, so both the ranking and the id-to-stages pairing
// are known in advance.

constexpr int kNextOps = 8;
constexpr int kStepMs = 25;

class SlowStub {
 public:
  SlowStub() {
    server_ = std::make_unique<serve::HttpServer>(
        serve::HttpServerOptions{},
        [this](const serve::HttpRequest& request) {
          return Handle(request);
        });
  }

  vs::Status Start() { return server_->Start(); }
  void Stop() { server_->Stop(); }
  int port() const { return server_->port(); }

 private:
  serve::HttpResponse Handle(const serve::HttpRequest& request) {
    serve::HttpResponse response;
    if (request.method == "POST" && request.path == "/sessions") {
      response.status = 201;
      response.body = "{\"id\":\"s1\"}";
      return response;
    }
    if (request.method == "GET" && request.path == "/sessions/s1/next") {
      const int fetched = next_requests_.fetch_add(1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds((fetched + 1) * kStepMs));
      response.extra_headers.emplace_back(
          "X-Request-Stages", "stub.next" + std::to_string(fetched) + "=1");
      response.body = "{\"views\":[{\"view\":" + std::to_string(fetched) +
                      ",\"spec\":\"v\"}]}";
      return response;
    }
    if (request.method == "DELETE" && request.path == "/sessions/s1") {
      response.body = "{}";
      return response;
    }
    response.status = 404;
    response.body = "{\"error\":\"unexpected request\"}";
    return response;
  }

  std::unique_ptr<serve::HttpServer> server_;
  std::atomic<int> next_requests_{0};
};

WorkloadPlan NextOnlyPlan() {
  WorkloadPlan plan;
  plan.spec.name = "slowest-pin";
  plan.spec.arrival.mode = ArrivalMode::kOpen;
  plan.spec.arrival.max_concurrent = 1;
  plan.filters = {""};
  SessionPlan session;
  for (int i = 0; i < kNextOps; ++i) {
    PlannedOp op;
    op.kind = OpKind::kNext;
    session.ops.push_back(op);
  }
  plan.sessions.push_back(std::move(session));
  plan.total_ops = kNextOps;
  return plan;
}

TEST(RunnerSlowestTest, ReportsFiveSlowestWithStages) {
  SlowStub stub;
  ASSERT_TRUE(stub.Start().ok());
  RunnerOptions options;
  options.port = stub.port();
  auto report = RunWorkload(NextOnlyPlan(), options);
  stub.Stop();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u);

  // Request ids are wb<session>-<seq>-<what>; the create is seq 0, so the
  // n-th next (0-based) is seq n + 1 and the slowest five are n = 3..7.
  ASSERT_EQ(report->slowest.size(), kSlowestRequests);
  std::set<std::string> ids;
  for (size_t i = 0; i < report->slowest.size(); ++i) {
    const SlowRequest& r = report->slowest[i];
    if (i > 0) {
      EXPECT_GE(report->slowest[i - 1].client_ms, r.client_ms);
    }
    EXPECT_EQ(r.endpoint, "next");
    EXPECT_EQ(r.status, 200);
    const int n = std::stoi(r.id.substr(r.id.find('-') + 1)) - 1;
    EXPECT_EQ(r.id, "wb0-" + std::to_string(n + 1) + "-next");
    EXPECT_EQ(r.stages, "stub.next" + std::to_string(n) + "=1");
    EXPECT_GE(r.client_ms, (n + 1) * kStepMs);
    ids.insert(r.id);
  }
  EXPECT_EQ(ids, (std::set<std::string>{"wb0-4-next", "wb0-5-next",
                                        "wb0-6-next", "wb0-7-next",
                                        "wb0-8-next"}));

  const std::string text = report->FormatText();
  EXPECT_NE(text.find("slowest requests:"), std::string::npos) << text;
  EXPECT_NE(text.find("id=wb0-8-next  stages=stub.next7=1"),
            std::string::npos)
      << text;

  auto json = serve::JsonValue::Parse(report->ToJson());
  ASSERT_TRUE(json.ok()) << report->ToJson();
  const serve::JsonValue* slowest = json->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_TRUE(slowest->is_array());
  ASSERT_EQ(slowest->array().size(), kSlowestRequests);
  const serve::JsonValue& first = slowest->array()[0];
  EXPECT_EQ(first.GetString("id", ""), report->slowest[0].id);
  EXPECT_EQ(first.GetString("endpoint", ""), "next");
  EXPECT_EQ(first.GetInt("status", 0), 200);
  EXPECT_EQ(first.GetString("stages", ""), report->slowest[0].stages);
  ASSERT_NE(first.Find("client_ms"), nullptr);
}

TEST(RunnerSlowestTest, EmptyRunListsNothing) {
  RunReport report;
  EXPECT_EQ(report.FormatText().find("slowest"), std::string::npos);
  auto json = serve::JsonValue::Parse(report.ToJson());
  ASSERT_TRUE(json.ok()) << report.ToJson();
  const serve::JsonValue* slowest = json->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  EXPECT_TRUE(slowest->is_array());
  EXPECT_TRUE(slowest->array().empty());
}

}  // namespace
}  // namespace vs::workload
