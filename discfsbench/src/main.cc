// discfs-bench: runs one workload and prints its metrics.
//
//   discfsbench --workload hot_read|policy_churn|sync_mixed --seed N
//               --seconds S --trace 0|1 [--trace-out spans.jsonl]
//
// Every metric is printed on its own line with its unit and sample counts;
// the last line of standard output is the JSON result. The exit code is 1
// when a correctness check failed, 2 on bad arguments.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "discfsbench/src/stats.h"
#include "discfsbench/src/workloads.h"

namespace {

// A run that has not finished by then prints no result and fails, so the
// benchmark always ends inside its 180-second budget.
constexpr auto kWatchdog = std::chrono::seconds(170);

int Usage() {
  std::fprintf(stderr,
               "usage: discfsbench --workload hot_read|policy_churn|"
               "sync_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace discfsbench;
  std::string workload;
  RunArgs args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0 &&
                     args.seconds <= 60;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.traced = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds ||
      (workload != "hot_read" && workload != "policy_churn" &&
       workload != "sync_mixed")) {
    return Usage();
  }

  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, kWatchdog, [&] { return finished; })) {
      std::fprintf(stderr, "discfsbench: run exceeded %lld s, aborting\n",
                   static_cast<long long>(kWatchdog.count()));
      std::fflush(nullptr);
      std::_Exit(4);
    }
  });

  RunResult result;
  if (workload == "hot_read") {
    result = RunHotRead(args);
  } else if (workload == "policy_churn") {
    result = RunPolicyChurn(args);
  } else {
    result = RunSyncMixed(args);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  watchdog.join();

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.traced ? 1 : 0);
  for (const Metric& m : result.metrics) {
    std::printf("  %-40s %14.4f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& miss : result.missing) {
    std::printf("  not reported: %s\n", miss.c_str());
  }
  const double fail_ratio =
      result.attempted == 0
          ? 0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::printf("  %-40s %14.6f %-8s attempted=%llu failed=%llu\n", "fail_ratio",
              fail_ratio, "ratio",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& v : result.violations) {
    std::printf("  CHECK FAILED: %s\n", v.c_str());
  }
  const bool correct = result.violations.empty() && result.failed == 0;
  std::printf("%s\n",
              ResultJson(correct, std::max<uint64_t>(result.attempted, 1),
                         result.failed, result.metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
