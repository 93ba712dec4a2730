#include "checks.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "oracle.h"
#include "serve/json.h"

namespace pb {

namespace {

int ExpectedStatus(char op) { return op == 'C' ? 201 : 200; }

std::string Where(const SessionRecord& s, size_t step) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "session %zu (%s) step %zu: ",
                s.plan_index, s.id.c_str(), step);
  return buffer;
}

}  // namespace

bool ParseStep(const std::string& body, Step* step) {
  auto parsed = vs::serve::JsonValue::Parse(body);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const vs::serve::JsonValue& json = *parsed;
  switch (step->op) {
    case 'C':
      return json.Find("id") != nullptr;
    case 'L':
      step->count = json.GetInt("num_labeled", -1);
      return step->count >= 0;
    case 'N':
    case 'T': {
      const vs::serve::JsonValue* views = json.Find("views");
      if (views == nullptr || !views->is_array()) return false;
      for (const vs::serve::JsonValue& v : views->array()) {
        step->views.push_back(v.GetInt("view", -1));
        if (step->op == 'T') step->scores.push_back(v.GetNumber("score", NAN));
      }
      return true;
    }
    case 'D':
      return json.GetBool("deleted", false);
  }
  return false;
}

std::vector<std::string> CheckTranscript(
    const WorkloadConfig& config, const Plan& plan, const Oracle& oracle,
    const std::vector<SessionRecord>& sessions, size_t refine_per_request) {
  std::vector<std::string> errors;
  const long long num_views = static_cast<long long>(oracle.num_views());
  const size_t heal_within =
      (oracle.num_views() + refine_per_request - 1) / refine_per_request;
  for (const SessionRecord& s : sessions) {
    const size_t before = errors.size();
    std::set<long long> labeled;
    long long last_count = 0;
    size_t quality_requests = 0;  // next/topk answers after the create
    bool exact_seen = false;
    const Step* final_topk = nullptr;
    for (size_t i = 0; i < s.steps.size(); ++i) {
      const Step& step = s.steps[i];
      const std::string at = Where(s, i);
      if (step.status != ExpectedStatus(step.op)) {
        errors.push_back(at + "status " + std::to_string(step.status) +
                         " for op " + step.op);
        continue;
      }
      // Quality stamps.
      if (config.kind == Kind::kAlphaRefine) {
        if (step.op == 'C' && !step.degraded) {
          errors.push_back(at + "alpha create not stamped degraded");
        }
        if (step.op == 'N' || step.op == 'T') {
          ++quality_requests;
          if (!step.degraded) exact_seen = true;
          if (step.degraded && exact_seen) {
            errors.push_back(at + "degraded again after reaching exact");
          }
          if (step.degraded && quality_requests >= heal_within) {
            errors.push_back(at + "still degraded after " +
                             std::to_string(quality_requests) + " requests");
          }
        }
      } else if (step.degraded) {
        errors.push_back(at + "answer stamped degraded");
      }
      switch (step.op) {
        case 'N':
          if (step.views.size() != 1) {
            errors.push_back(at + "next returned " +
                             std::to_string(step.views.size()) + " views");
          }
          for (long long v : step.views) {
            if (v < 0 || v >= num_views) {
              errors.push_back(at + "next view out of range");
            } else if (labeled.count(v) > 0) {
              errors.push_back(at + "next view " + std::to_string(v) +
                               " is already labeled");
            }
          }
          if (!step.views.empty()) labeled.insert(step.views[0]);
          break;
        case 'L':
          if (step.count != last_count + 1) {
            errors.push_back(at + "label count " + std::to_string(step.count) +
                             " after " + std::to_string(last_count));
          }
          last_count = step.count;
          break;
        case 'T': {
          std::set<long long> distinct;
          if (step.views.size() != static_cast<size_t>(kTopK)) {
            errors.push_back(at + "topk returned " +
                             std::to_string(step.views.size()) + " views");
          }
          for (size_t j = 0; j < step.views.size(); ++j) {
            const long long v = step.views[j];
            if (v < 0 || v >= num_views || !distinct.insert(v).second) {
              errors.push_back(at + "topk view out of range or repeated");
            }
            if (j > 0 && !(step.scores[j] <= step.scores[j - 1])) {
              errors.push_back(at + "topk scores increase");
            }
          }
          final_topk = &step;
          break;
        }
        default:
          break;
      }
    }
    if (config.kind == Kind::kAlphaRefine && !exact_seen) {
      errors.push_back(Where(s, s.steps.size()) + "never reached exact");
    }
    if (errors.size() != before || final_topk == nullptr) {
      if (final_topk == nullptr) {
        errors.push_back(Where(s, s.steps.size()) + "no topk answer");
      }
      continue;
    }
    // The served answer against an in-process seeker fed the same labels
    // over the exact scalar matrix.
    auto replay = oracle.ReplaySession(plan.sessions[s.plan_index].filter,
                                       s.acked);
    if (!replay.ok()) {
      errors.push_back(Where(s, s.steps.size()) +
                       "replay failed: " + replay.status().ToString());
      continue;
    }
    bool same = replay->views.size() == final_topk->views.size();
    for (size_t j = 0; same && j < replay->views.size(); ++j) {
      same = static_cast<long long>(replay->views[j]) == final_topk->views[j] &&
             std::fabs(replay->scores[j] - final_topk->scores[j]) <=
                 kScoreTolerance;
    }
    if (!same) {
      std::string line = Where(s, s.steps.size()) + "served topk";
      for (size_t j = 0; j < final_topk->views.size(); ++j) {
        char cell[64];
        std::snprintf(cell, sizeof(cell), " %lld:%.17g", final_topk->views[j],
                      final_topk->scores[j]);
        line += cell;
      }
      line += " != replay";
      for (size_t j = 0; j < replay->views.size(); ++j) {
        char cell[64];
        std::snprintf(cell, sizeof(cell), " %zu:%.17g", replay->views[j],
                      replay->scores[j]);
        line += cell;
      }
      errors.push_back(line);
    }
  }
  return errors;
}

bool Perturb(const std::string& kind, std::vector<SessionRecord>* sessions) {
  if (sessions->empty()) return false;
  SessionRecord& s = sessions->front();
  auto find = [&](char op, size_t nth) -> Step* {
    for (Step& step : s.steps) {
      if (step.op == op && nth-- == 0) return &step;
    }
    return nullptr;
  };
  auto last_topk = [&]() -> Step* {
    for (auto it = s.steps.rbegin(); it != s.steps.rend(); ++it) {
      if (it->op == 'T') return &*it;
    }
    return nullptr;
  };
  Step* step = nullptr;
  if (kind == "topk_score") {
    if ((step = last_topk()) != nullptr) step->scores[0] += 1e-6;
  } else if (kind == "topk_order") {
    if ((step = last_topk()) != nullptr) {
      std::swap(step->views[0], step->views[1]);
      std::swap(step->scores[0], step->scores[1]);
    }
  } else if (kind == "next_repeat") {
    Step* first = find('N', 0);
    if ((step = find('N', 1)) != nullptr) step->views = first->views;
  } else if (kind == "label_count") {
    if ((step = find('L', 1)) != nullptr) step->count += 1;
  } else if (kind == "quality") {
    if ((step = find('C', 0)) != nullptr) step->degraded = !step->degraded;
  } else if (kind == "status") {
    if ((step = find('N', 0)) != nullptr) step->status = 500;
  }
  return step != nullptr;
}

}  // namespace pb
