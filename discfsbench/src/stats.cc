#include "discfsbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace discfsbench {

namespace {

// 1-based nearest rank of quantile q among n samples. The epsilon keeps
// q * n from rounding up past an exact integer (0.99 * 1000 is 990).
size_t NearestRank(double q, size_t n) {
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

// Full-precision decimal rendering of a double for the JSON line.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Percentile PercentileOf(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) {
    return p;
  }
  size_t rank = NearestRank(q, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  p.holds = p.beyond >= kMinBeyondTail;
  return p;
}

size_t MinSamplesFor(double q) {
  for (size_t n = kMinBeyondTail + 1;; ++n) {
    if (n - NearestRank(q, n) >= kMinBeyondTail) {
      return n;
    }
  }
}

OpenLoopSchedule::OpenLoopSchedule(double rate, double offset_s)
    : interval_s_(1.0 / rate), offset_s_(offset_s) {}

double OpenLoopSchedule::DueAt(uint64_t i) const {
  return offset_s_ + static_cast<double>(i) * interval_s_;
}

uint64_t OpenLoopSchedule::CountWithin(double duration_s) const {
  if (duration_s <= offset_s_) {
    return 0;
  }
  return static_cast<uint64_t>(
      std::ceil((duration_s - offset_s_) / interval_s_ - 1e-9));
}

OpenLoopSample AccountOpenLoop(double due_s, double sent_s, double done_s) {
  OpenLoopSample s;
  s.latency_us = (done_s - due_s) * 1e6;
  s.late_us = std::max(0.0, sent_s - due_s) * 1e6;
  return s;
}

void AddLatencyPair(std::vector<Metric>& out, std::vector<std::string>& missing,
                    const std::string& base, const std::string& unit,
                    std::vector<double> samples, bool with_p99) {
  std::sort(samples.begin(), samples.end());
  std::vector<std::pair<const char*, double>> quantiles = {{"p50", 0.50}};
  if (with_p99) {
    quantiles.push_back({"p99", 0.99});
  }
  for (const auto& [label, q] : quantiles) {
    std::string name = base + "_" + label + "_" + unit;
    Percentile p = PercentileOf(samples, q);
    if (!p.holds) {
      missing.push_back(name + " (n=" + std::to_string(p.samples) + ", " +
                        std::to_string(p.beyond) + " beyond; needs n>=" +
                        std::to_string(MinSamplesFor(q)) + ")");
      continue;
    }
    out.push_back({name, p.value, unit,
                   "n=" + std::to_string(p.samples) + ", " +
                       std::to_string(p.beyond) + " beyond"});
  }
}

void AddWindowedLatencyPair(std::vector<Metric>& out,
                            std::vector<std::string>& missing,
                            const std::string& base, const std::string& unit,
                            const Windows& windows) {
  for (const auto& [label, q] : {std::pair<const char*, double>{"p50", 0.50},
                                 std::pair<const char*, double>{"p99", 0.99}}) {
    std::vector<double> values;
    size_t smallest = SIZE_MAX;
    for (const std::vector<double>& w : windows) {
      std::vector<double> sorted = w;
      std::sort(sorted.begin(), sorted.end());
      Percentile p = PercentileOf(sorted, q);
      if (p.holds) {
        values.push_back(p.value);
        smallest = std::min(smallest, p.samples);
      }
    }
    std::string name = base + "_" + label + "_" + unit;
    if (values.empty()) {
      missing.push_back(name + " (0 of " + std::to_string(windows.size()) +
                        " windows hold the tail rule)");
      continue;
    }
    std::sort(values.begin(), values.end());
    size_t k = values.size();
    double median =
        k % 2 == 1 ? values[k / 2] : 0.5 * (values[k / 2 - 1] + values[k / 2]);
    out.push_back({name, median, unit,
                   "median over " + std::to_string(k) + " windows, each n>=" +
                       std::to_string(smallest) + " with >=" +
                       std::to_string(kMinBeyondTail) + " beyond"});
  }
}

Windows SplitInOrder(const std::vector<double>& samples, size_t max_windows) {
  size_t k = std::clamp<size_t>(samples.size() / MinSamplesFor(0.99), 1,
                                std::max<size_t>(max_windows, 1));
  Windows windows(k);
  for (size_t i = 0; i < samples.size(); ++i) {
    windows[i * k / samples.size()].push_back(samples[i]);
  }
  return windows;
}

size_t WindowOf(double t, double start, double length, size_t windows) {
  if (t <= start || windows == 0) {
    return 0;
  }
  size_t w = static_cast<size_t>((t - start) / length *
                                 static_cast<double>(windows));
  return std::min(w, windows - 1);
}

discfs::obs::Histogram::Snapshot DiffSnapshot(
    const discfs::obs::Histogram::Snapshot& after,
    const discfs::obs::Histogram::Snapshot& before) {
  discfs::obs::Histogram::Snapshot d;
  d.count = after.count - std::min(after.count, before.count);
  d.sum = after.sum - std::min(after.sum, before.sum);
  d.buckets = after.buckets;
  for (size_t i = 0; i < d.buckets.size() && i < before.buckets.size(); ++i) {
    d.buckets[i] -= std::min(d.buckets[i], before.buckets[i]);
  }
  return d;
}

void MergeSnapshot(discfs::obs::Histogram::Snapshot& into,
                   const discfs::obs::Histogram::Snapshot& from) {
  if (into.buckets.size() < from.buckets.size()) {
    into.buckets.resize(from.buckets.size(), 0);
  }
  for (size_t i = 0; i < from.buckets.size(); ++i) {
    into.buckets[i] += from.buckets[i];
  }
  into.count += from.count;
  into.sum += from.sum;
}

double SnapshotMean(const discfs::obs::Histogram::Snapshot& s) {
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.sum) /
                            static_cast<double>(s.count);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace discfsbench
