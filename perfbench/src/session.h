#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_
/// \file session.h
/// \brief One Algorithm 1 session over HTTP: create, next/label
/// iterations, top-k, delete — recorded step by step for the checks.

#include <functional>
#include <string>

#include "checks.h"
#include "lane.h"
#include "plan.h"

namespace pb {

/// Supplies the label of a view (the simulated user).
using Labeler = std::function<double(size_t view)>;

/// Called after every request with the step just recorded (the traced
/// run hangs its layer replays here); may be empty.
using StepHook = std::function<void(const SessionRecord&, const Step&)>;

/// Runs one session on \p lane.  Never throws: a transport failure is
/// recorded as a step with status 0 and ends the session.
SessionRecord RunSession(const WorkloadConfig& config, Lane& lane,
                         const std::string& filter, const Labeler& labeler,
                         size_t max_iterations, const StepHook& hook = {},
                         const std::string& request_id_prefix = {});

}  // namespace pb

#endif  // PERFBENCH_SESSION_H_
