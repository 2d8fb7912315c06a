// Measurement arithmetic shared by every workload: percentiles under the
// ten-samples-beyond-the-tail rule, open-loop schedules with lateness
// accounting, and the metric list a run prints.
#ifndef DISCFSBENCH_SRC_STATS_H_
#define DISCFSBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace discfsbench {

// A percentile is reported only when at least this many samples lie
// beyond it; with fewer, the run was too short to name that tail.
inline constexpr size_t kMinBeyondTail = 10;

// Nearest-rank percentile of a sample set, with the count of samples that
// lie strictly beyond the chosen rank.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  // True when `beyond` >= kMinBeyondTail.
  bool holds = false;
};

// Nearest-rank percentile q in (0, 1] of `sorted` (ascending). Empty input
// gives a zero Percentile that does not hold.
Percentile PercentileOf(const std::vector<double>& sorted, double q);

// Smallest sample count for which percentile q holds.
size_t MinSamplesFor(double q);

// Fixed-rate open-loop schedule: request i of a stream is due at
// start + offset + i / rate, independent of when replies arrive.
class OpenLoopSchedule {
 public:
  // `rate` in requests per second (> 0); `offset_s` staggers streams that
  // share one aggregate rate.
  OpenLoopSchedule(double rate, double offset_s);
  // Due time of request i relative to the schedule start, in seconds.
  double DueAt(uint64_t i) const;
  // Requests due before `duration_s` elapses.
  uint64_t CountWithin(double duration_s) const;

 private:
  double interval_s_;
  double offset_s_;
};

// Latency and lateness of one open-loop request, in microseconds, both
// measured from its due time: latency to completion, lateness to the
// moment the generator actually sent it.
struct OpenLoopSample {
  double latency_us = 0;
  double late_us = 0;
};
OpenLoopSample AccountOpenLoop(double due_s, double sent_s, double done_s);

// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Human-readable context (sample counts); not part of the JSON line.
  std::string note;
};

// Adds `<base>_p50_<unit>` and `<base>_p99_<unit>` from raw samples, each
// noted with its sample count. A percentile that does not hold under the
// tail rule is left out and reported in `missing`.
void AddLatencyPair(std::vector<Metric>& out, std::vector<std::string>& missing,
                    const std::string& base, const std::string& unit,
                    std::vector<double> samples, bool with_p99 = true);

// Samples of one metric split into consecutive time windows of a run.
using Windows = std::vector<std::vector<double>>;

// Like AddLatencyPair, but each percentile is the median of the
// per-window percentiles, so one stall in one window does not decide the
// run. Each window must hold the tail rule on its own; windows that do not
// are skipped, and a percentile is left out when none holds.
void AddWindowedLatencyPair(std::vector<Metric>& out,
                            std::vector<std::string>& missing,
                            const std::string& base, const std::string& unit,
                            const Windows& windows);

// Splits samples, in the order they were taken, into as many consecutive
// windows of at least MinSamplesFor(0.99) samples as they fill, at most
// `max_windows` (for streams too sparse to fill fixed time windows).
Windows SplitInOrder(const std::vector<double>& samples, size_t max_windows);

// Window index of time `t` in a run of `windows` equal windows over
// [start, start + length); clamped to the last window.
size_t WindowOf(double t, double start, double length, size_t windows);

// Bucket-wise difference of two snapshots of one histogram (after minus
// before), so a phase can be reported in isolation.
discfs::obs::Histogram::Snapshot DiffSnapshot(
    const discfs::obs::Histogram::Snapshot& after,
    const discfs::obs::Histogram::Snapshot& before);
// Adds `from` into `into` bucket by bucket.
void MergeSnapshot(discfs::obs::Histogram::Snapshot& into,
                   const discfs::obs::Histogram::Snapshot& from);

// Mean of a snapshot (sum / count), 0 when empty.
double SnapshotMean(const discfs::obs::Histogram::Snapshot& s);

// Renders the result line: {"correct":..,"attempted":..,"failed":..,
// "metrics":{name:{"value":..,"unit":..},..}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace discfsbench

#endif  // DISCFSBENCH_SRC_STATS_H_
