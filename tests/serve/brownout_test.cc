/// Brownout end-to-end: requests forced into degraded-quality mode (via
/// the `brownout.force` fault point) still speak the full protocol —
/// valid JSON bodies, valid ids and views — but carry the `X-Quality:
/// degraded` header and a `quality` object naming the refinement
/// fraction; once the pressure is gone the healer refines the session
/// back to exact and the markers disappear.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/io.h"
#include "serve/app.h"
#include "serve/json.h"
#include "serve/session_manager.h"
#include "testing/fault_injection.h"

namespace vs::serve {
namespace {

const std::string& TestTablePath() {
  static const std::string path = [] {
    data::DiabetesOptions options;
    options.num_rows = 300;
    options.seed = 23;
    data::Table table = *data::GenerateDiabetes(options);
    std::string file = ::testing::TempDir() + "serve_brownout_test.vst";
    EXPECT_TRUE(data::WriteTableFile(table, file).ok());
    return file;
  }();
  return path;
}

HttpRequest Req(std::string method, const std::string& target,
                std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = target;
  const size_t q = target.find('?');
  request.path = q == std::string::npos ? target : target.substr(0, q);
  request.query = q == std::string::npos ? "" : target.substr(q + 1);
  request.body = std::move(body);
  return request;
}

const std::string* Header(const HttpResponse& response,
                          const std::string& name) {
  for (const auto& [key, value] : response.extra_headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

class BrownoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SessionManagerOptions manager_options;
    manager_options.max_sessions = 16;
    manager_options.degraded_sample_rate = 0.25;
    manager_ = std::make_unique<SessionManager>(manager_options,
                                                TestTablePath());
    app_ = std::make_unique<ServeApp>(manager_.get());
  }

  /// Creates one session while `brownout.force` is armed; returns its id.
  std::string CreateDegradedSession() {
    fault::FaultInjector injector(1);
    injector.SetProbability("brownout.force", 1.0);
    fault::ScopedFaultInjector scoped(&injector);
    HttpResponse created = app_->Handle(Req("POST", "/sessions", "{\"k\":3}"));
    EXPECT_EQ(created.status, 201) << created.body;
    EXPECT_NE(Header(created, "X-Quality"), nullptr);
    auto parsed = JsonValue::Parse(created.body);
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? parsed->GetString("id", "") : "";
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServeApp> app_;
};

TEST_F(BrownoutTest, ForcedBrownoutCreateIsDegradedButProtocolValid) {
  fault::FaultInjector injector(1);
  injector.SetProbability("brownout.force", 1.0);
  fault::ScopedFaultInjector scoped(&injector);

  HttpResponse created = app_->Handle(Req("POST", "/sessions", "{\"k\":3}"));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string* quality = Header(created, "X-Quality");
  ASSERT_NE(quality, nullptr);
  EXPECT_EQ(*quality, "degraded");

  auto parsed = JsonValue::Parse(created.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetString("id", "").empty());
  const JsonValue* quality_field = parsed->Find("quality");
  ASSERT_NE(quality_field, nullptr);
  EXPECT_TRUE(quality_field->GetBool("degraded", false));
  const double refined = quality_field->GetNumber("refined_fraction", -1.0);
  EXPECT_GE(refined, 0.0);
  EXPECT_LT(refined, 1.0);
  EXPECT_EQ(manager_->degraded_sessions(), 1u);
}

TEST_F(BrownoutTest, DegradedSessionSpeaksTheFullProtocol) {
  const std::string id = CreateDegradedSession();
  ASSERT_FALSE(id.empty());

  fault::FaultInjector injector(1);
  injector.SetProbability("brownout.force", 1.0);
  fault::ScopedFaultInjector scoped(&injector);

  HttpResponse next = app_->Handle(Req("GET", "/sessions/" + id + "/next"));
  ASSERT_EQ(next.status, 200) << next.body;
  EXPECT_NE(Header(next, "X-Quality"), nullptr);
  auto parsed = JsonValue::Parse(next.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* views = parsed->Find("views");
  ASSERT_NE(views, nullptr);
  ASSERT_FALSE(views->array().empty());
  const int64_t view = views->array()[0].GetInt("view", -1);
  ASSERT_GE(view, 0);

  HttpResponse labeled = app_->Handle(
      Req("POST", "/sessions/" + id + "/label",
          "{\"view\":" + std::to_string(view) + ",\"label\":1}"));
  EXPECT_EQ(labeled.status, 200) << labeled.body;

  HttpResponse topk =
      app_->Handle(Req("GET", "/sessions/" + id + "/topk?lambda=0.3"));
  ASSERT_EQ(topk.status, 200) << topk.body;
  EXPECT_TRUE(JsonValue::Parse(topk.body).ok());
}

TEST_F(BrownoutTest, HealerRestoresFullQuality) {
  const std::string id = CreateDegradedSession();
  ASSERT_FALSE(id.empty());
  ASSERT_EQ(manager_->degraded_sessions(), 1u);

  // Pressure gone (no fault armed): the healer refines the session back
  // to exact within a bounded number of passes.
  int passes = 0;
  while (manager_->degraded_sessions() > 0 && passes < 1000) {
    manager_->HealDegradedSessions(1'000'000);
    ++passes;
  }
  EXPECT_EQ(manager_->degraded_sessions(), 0u) << "still degraded after "
                                               << passes << " passes";

  // Healed sessions answer at full quality: no marker header, and the
  // body carries no quality object (byte-identical to the pre-brownout
  // protocol).
  HttpResponse next = app_->Handle(Req("GET", "/sessions/" + id + "/next"));
  ASSERT_EQ(next.status, 200) << next.body;
  EXPECT_EQ(Header(next, "X-Quality"), nullptr);
  EXPECT_EQ(next.body.find("\"quality\""), std::string::npos);
}

/// A `serve.handler_stall` schedule under which each of \p requests
/// consecutive dispatches stalls for \p fires × 2 ms between admission and
/// its handler: hits 1..fires fire, hit fires+1 releases the first
/// request, and so on.
std::vector<uint64_t> StallSchedule(int requests, int fires) {
  std::vector<uint64_t> hits;
  for (int r = 0; r < requests; ++r) {
    for (int f = 1; f <= fires; ++f) {
      hits.push_back(static_cast<uint64_t>(r * (fires + 1) + f));
    }
  }
  return hits;
}

HttpRequest CreateWithDeadline(double deadline_ms) {
  HttpRequest request = Req("POST", "/sessions", "{\"k\":3}");
  request.headers.emplace_back("x-deadline-ms",
                               std::to_string(deadline_ms));
  return request;
}

// A create whose deadline was already short at admission is put into
// brownout and answered 201 degraded.  Its deadline running out during
// that build is the client's budget, not queueing, so it must not cut the
// endpoint's AIMD limit: six such creates in a row leave the limit where
// it started.
TEST_F(BrownoutTest, ShortDeadlineBrownoutCreatesLeaveLimitAlone) {
  ServeAppOptions options;
  options.admission_enabled = true;
  ServeApp app(manager_.get(), options);
  constexpr int kCreates = 6;
  fault::FaultInjector injector(1);
  injector.SetSchedule("serve.handler_stall", StallSchedule(kCreates, 20));
  fault::ScopedFaultInjector scoped(&injector);
  for (int i = 0; i < kCreates; ++i) {
    HttpResponse created = app.Handle(CreateWithDeadline(25.0));
    ASSERT_EQ(created.status, 201) << created.body;
    EXPECT_NE(Header(created, "X-Quality"), nullptr);
  }
  EXPECT_EQ(app.admission().LimitFor("create_session"),
            options.admission.initial_limit);
}

// The other side of the same rule: a deadline that was not short at
// admission and still ran out while the request held its slot is
// congestion, and the limit backs off.
TEST_F(BrownoutTest, LongDeadlineExpiringInHandlerStillBacksOff) {
  ServeAppOptions options;
  options.admission_enabled = true;
  ServeApp app(manager_.get(), options);
  fault::FaultInjector injector(1);
  injector.SetSchedule("serve.handler_stall", StallSchedule(1, 50));
  fault::ScopedFaultInjector scoped(&injector);
  app.Handle(CreateWithDeadline(options.brownout_deadline_ms + 10.0));
  EXPECT_LT(app.admission().LimitFor("create_session"),
            options.admission.initial_limit);
}

}  // namespace
}  // namespace vs::serve
