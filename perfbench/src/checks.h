#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_
/// \file checks.h
/// \brief The answer transcript every lane records, and the checks run
/// over it after timing.  The checks depend only on the protocol and on
/// the oracle, never on what the server answered in an earlier run.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "plan.h"

namespace pb {

class Oracle;

/// One request of a session as the client saw it.
struct Step {
  char op = '?';  ///< 'C'reate, 'N'ext, 'L'abel, 'T'opk, 'D'elete
  int status = 0;
  bool degraded = false;          ///< stamped `X-Quality: degraded`
  std::vector<long long> views;   ///< next: picked views; topk: ranked views
  std::vector<double> scores;     ///< topk scores
  long long count = -1;           ///< label: acknowledged label count
  double ms = 0.0;
  std::string request_id;  ///< X-Request-Id sent (traced run only)
  std::string stages;      ///< X-Request-Stages answered (traced run only)
};

struct SessionRecord {
  size_t plan_index = 0;
  std::string id;
  std::vector<Step> steps;
  /// Labels the server acknowledged, in order (view, label).
  std::vector<std::pair<size_t, double>> acked;
  double session_ms = 0.0;  ///< create sent .. final topk answered
};

/// Parses the JSON body of one reply into \p step (views, scores, count).
/// Returns false when the body is not what the protocol promises.
bool ParseStep(const std::string& body, Step* step);

/// Runs every answer check over \p sessions; returns one line per failure.
std::vector<std::string> CheckTranscript(
    const WorkloadConfig& config, const Plan& plan, const Oracle& oracle,
    const std::vector<SessionRecord>& sessions, size_t refine_per_request);

/// Applies one named perturbation to the transcript (the self-test's
/// proof that the checks can fail).  Returns false for an unknown name.
bool Perturb(const std::string& kind, std::vector<SessionRecord>* sessions);

}  // namespace pb

#endif  // PERFBENCH_CHECKS_H_
