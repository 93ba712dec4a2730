#include "session.h"

#include <cstdio>
#include <stdexcept>

#include "serve/json.h"

namespace pb {

namespace {

std::string LabelBody(size_t view, double label) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "{\"view\":%zu,\"label\":%.17g}", view,
                label);
  return buffer;
}

}  // namespace

SessionRecord RunSession(const WorkloadConfig& config, Lane& lane,
                         const std::string& filter, const Labeler& labeler,
                         size_t max_iterations, const StepHook& hook,
                         const std::string& request_id_prefix) {
  SessionRecord record;
  size_t sequence = 0;
  // Sends one request and records it; returns the recorded step, or
  // nullptr when the answer was not the expected one (the session ends).
  auto call = [&](char op, std::string_view method, const std::string& target,
                  const std::string& body,
                  std::vector<std::pair<std::string, std::string>> headers)
      -> Step* {
    Step step;
    step.op = op;
    if (!request_id_prefix.empty()) {
      step.request_id = request_id_prefix + "-" + std::to_string(sequence++);
      headers.emplace_back("X-Request-Id", step.request_id);
    }
    try {
      Reply reply = lane.Call(method, target, body, headers);
      step.status = reply.status;
      step.ms = reply.ms;
      const std::string* quality = reply.Header("x-quality");
      step.degraded = quality != nullptr && *quality == "degraded";
      if (!request_id_prefix.empty()) {
        if (const std::string* stages = reply.Header("x-request-stages")) {
          step.stages = *stages;
        }
      }
      if (step.status == (op == 'C' ? 201 : 200) &&
          !ParseStep(reply.body, &step)) {
        step.status = -1;  // answered, but not in the protocol's shape
      }
      if (op == 'C' && step.status == 201) {
        auto json = vs::serve::JsonValue::Parse(reply.body);
        record.id = json->GetString("id", "");
      }
    } catch (const std::exception&) {
      step.status = 0;
    }
    record.steps.push_back(std::move(step));
    Step* recorded = &record.steps.back();
    if (hook) hook(record, *recorded);
    return recorded->status == (op == 'C' ? 201 : 200) ? recorded : nullptr;
  };

  const double start = NowMs();
  std::vector<std::pair<std::string, std::string>> create_headers;
  if (config.create_deadline_ms > 0.0) {
    char deadline[32];
    std::snprintf(deadline, sizeof(deadline), "%.0f",
                  config.create_deadline_ms);
    create_headers.emplace_back("X-Deadline-Ms", deadline);
  }
  const std::string body =
      "{\"filter\":" + vs::serve::JsonQuote(filter) + ",\"k\":5}";
  if (call('C', "POST", "/sessions", body, create_headers) == nullptr) {
    return record;
  }
  const std::string base = "/sessions/" + record.id;
  const size_t iterations =
      config.iterations > 0 ? static_cast<size_t>(config.iterations)
                            : max_iterations;
  for (size_t i = 0; i < iterations; ++i) {
    const Step* next = call('N', "GET", base + "/next", "", {});
    if (next == nullptr || next->views.empty()) return record;
    const bool exact = !next->degraded;
    const size_t view = static_cast<size_t>(next->views[0]);
    const double label = labeler(view);
    const Step* ack =
        call('L', "POST", base + "/label", LabelBody(view, label), {});
    if (ack == nullptr) return record;
    record.acked.emplace_back(view, label);
    // alpha_refine: stop once the answers are exact.
    if (config.iterations == 0 && exact) break;
    const bool last = i + 1 == iterations;
    if (config.topk_every > 0 && !last &&
        (i + 1) % static_cast<size_t>(config.topk_every) == 0) {
      if (call('T', "GET", base + "/topk", "", {}) == nullptr) return record;
    }
  }
  if (call('T', "GET", base + "/topk", "", {}) == nullptr) return record;
  record.session_ms = NowMs() - start;
  call('D', "DELETE", base, "", {});
  return record;
}

}  // namespace pb
