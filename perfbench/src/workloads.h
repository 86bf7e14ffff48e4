// The three workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fixtures.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< printed by untraced runs
  std::vector<Metric> per_layer;   ///< printed by traced runs
};

/// Sets up, measures for options.seconds, checks every output, and (traced
/// runs) replays the work through the layers. Throws on set-up failure.
RunOutcome run_workload(const Options& options);

}  // namespace perfbench
