// The three workloads. Each builds its environment from the seed (timed as
// set-up), drives it for the run's seconds, checks every output, and
// returns its end-to-end metrics — or, in a traced run, its per-layer
// metrics.
#ifndef DISCFSBENCH_SRC_WORKLOADS_H_
#define DISCFSBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "discfsbench/src/stats.h"

namespace discfsbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string trace_out;  // span dump path (traced runs)
};

struct RunResult {
  std::vector<Metric> metrics;
  // Percentiles left out because too few samples lay beyond them.
  std::vector<std::string> missing;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One line per failed correctness check (also counted in `failed`).
  std::vector<std::string> violations;
};

// Full set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

RunResult RunHotRead(const RunArgs& args);
RunResult RunPolicyChurn(const RunArgs& args);
RunResult RunSyncMixed(const RunArgs& args);

}  // namespace discfsbench

#endif  // DISCFSBENCH_SRC_WORKLOADS_H_
