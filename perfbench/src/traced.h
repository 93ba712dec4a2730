#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_
/// \file traced.h
/// \brief The traced run: per-layer numbers from spans the benchmark
/// records around each layer's public calls.

#include <cstdint>
#include <map>
#include <string>

#include "plan.h"

namespace pb {

int RunTraced(const std::map<std::string, std::string>& flags,
              const WorkloadConfig& config, uint64_t seed, double seconds);

}  // namespace pb

#endif  // PERFBENCH_TRACED_H_
