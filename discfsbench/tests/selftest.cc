// Self-tests of discfs-bench's own arithmetic: the tail-percentile rule
// and window medians, span self time, open-loop schedule and lateness
// accounting, and seed-determinism of the workload inputs.
#include <thread>

#include <gtest/gtest.h>

#include "discfsbench/src/inputs.h"
#include "discfsbench/src/spans.h"
#include "discfsbench/src/stats.h"

namespace discfsbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailRule, P99NeedsTenSamplesBeyond) {
  Percentile p = PercentileOf(Ramp(1000), 0.99);
  EXPECT_EQ(p.value, 990);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.holds);

  p = PercentileOf(Ramp(999), 0.99);
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(p.holds);

  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_FALSE(PercentileOf({}, 0.5).holds);
}

TEST(TailRule, LatencyPairLeavesOutAShortTail) {
  std::vector<Metric> metrics;
  std::vector<std::string> missing;
  AddLatencyPair(metrics, missing, "read", "us", Ramp(500));
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].name, "read_p50_us");
  EXPECT_EQ(metrics[0].value, 250);
  EXPECT_NE(metrics[0].note.find("n=500"), std::string::npos);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rfind("read_p99_us", 0), 0u);

  metrics.clear();
  missing.clear();
  AddLatencyPair(metrics, missing, "write", "us", Ramp(2000));
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[1].name, "write_p99_us");
  EXPECT_EQ(metrics[1].value, 1980);
  EXPECT_TRUE(missing.empty());
}

TEST(TailRule, WindowedPairTakesTheMedianOverWindowsThatHold) {
  // Three windows hold the p99 (1000 samples each), one holds only the p50.
  Windows windows = {Ramp(1000), Ramp(1000), Ramp(500), Ramp(1000)};
  for (double& x : windows[1]) x *= 10;   // a slow window
  for (double& x : windows[3]) x *= 2;
  std::vector<Metric> metrics;
  std::vector<std::string> missing;
  AddWindowedLatencyPair(metrics, missing, "read", "us", windows);
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "read_p50_us");
  EXPECT_EQ(metrics[0].value, 750);  // median of 500, 5000, 250, 1000
  EXPECT_EQ(metrics[1].name, "read_p99_us");
  EXPECT_EQ(metrics[1].value, 1980);  // median of 990, 9900, 1980
  EXPECT_TRUE(missing.empty());

  metrics.clear();
  AddWindowedLatencyPair(metrics, missing, "read", "us", {Ramp(500)});
  ASSERT_EQ(metrics.size(), 1u);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rfind("read_p99_us", 0), 0u);
}

TEST(SpanSelfTime, CoveredIsTheClippedUnion) {
  EXPECT_EQ(CoveredNs({{10, 40}, {30, 60}, {90, 200}}, 0, 100), 60u);
  EXPECT_EQ(CoveredNs({}, 0, 100), 0u);
  EXPECT_EQ(CoveredNs({{0, 5}, {5, 10}}, 2, 8), 6u);
}

TEST(SpanSelfTime, SubtractsDeeperSpansOfTheSameTrace) {
  std::vector<Span> spans = {
      {"client.nfs_read", kDepthClient, 1, 0, 100},
      {"ffs.read", kDepthFfs, 1, 10, 40},
      {"ffs.read", kDepthFfs, 1, 30, 60},
      {"blockdev.read", kDepthDevice, 1, 15, 20},
      // Another request's spans do not cover this one.
      {"ffs.read", kDepthFfs, 2, 70, 95},
      // Background I/O (no trace) is all self time.
      {"blockdev.write", kDepthDevice, 0, 0, 50},
  };
  auto t = SelfTimes(spans);
  EXPECT_EQ(t["client.nfs_read"].total_ns, 100u);
  EXPECT_EQ(t["client.nfs_read"].self_ns, 50u);  // 100 - [10, 60)
  EXPECT_EQ(t["ffs.read"].count, 3u);
  EXPECT_EQ(t["ffs.read"].self_ns, 25u + 30u + 25u);
  EXPECT_EQ(t["blockdev.read"].self_ns, 5u);
  EXPECT_EQ(t["blockdev.write"].self_ns, 50u);
  EXPECT_EQ(t["blockdev.write"].traced_total_ns, 0u);
}

TEST(SpanSelfTime, RecorderCollectsEveryThread) {
  SpanRecorder recorder;
  recorder.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        recorder.Record("ffs.read", kDepthFfs, t + 1, i, i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorder.Collect().size(), 400u);
}

TEST(OpenLoop, ScheduleIsFixedRate) {
  OpenLoopSchedule s(1000, 0.0005);
  EXPECT_DOUBLE_EQ(s.DueAt(0), 0.0005);
  EXPECT_DOUBLE_EQ(s.DueAt(10), 0.0105);
  EXPECT_EQ(s.CountWithin(1.0), 1000u);
  EXPECT_EQ(s.CountWithin(0.0005), 0u);
  EXPECT_EQ(OpenLoopSchedule(4, 0).CountWithin(1.0), 4u);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  OpenLoopSample late = AccountOpenLoop(1.0, 1.002, 1.005);
  EXPECT_NEAR(late.latency_us, 5000, 1e-6);
  EXPECT_NEAR(late.late_us, 2000, 1e-6);
  OpenLoopSample early = AccountOpenLoop(1.0, 0.9999, 1.0001);
  EXPECT_NEAR(early.latency_us, 100, 1e-6);
  EXPECT_EQ(early.late_us, 0);
}

TEST(Inputs, HotReadIsByteIdenticalPerSeed) {
  HotReadShape shape;
  shape.files = 8;
  shape.slice = 2;
  shape.ops_per_reader = 64;
  std::vector<uint32_t> handles = {2, 3, 4, 5, 6, 7, 8, 9};
  auto make = [&](uint64_t seed) {
    HotReadInputs in = MakeHotReadKeysAndFiles(seed, shape);
    SignHotReadCorpus(in, shape, handles);
    return InputsDigest(in);
  };
  EXPECT_EQ(make(7), make(7));
  EXPECT_NE(make(7), make(8));
}

TEST(Inputs, PolicyChurnIsByteIdenticalPerSeed) {
  PolicyChurnShape shape;
  shape.intermediaries = 2;
  shape.licensees = 3;
  shape.reader_files = 4;
  shape.synthetic = 2;
  shape.fresh = 3;
  shape.grants = 3;
  shape.new_users = 2;
  shape.read_plan = 16;
  shape.submit_plan = 16;
  std::vector<uint32_t> handles = {2, 3, 4, 5, 6};
  auto make = [&](uint64_t seed) {
    PolicyChurnInputs in = MakePolicyChurnKeysAndFiles(seed, shape);
    SignPolicyChurnCorpus(in, shape, handles);
    return InputsDigest(in);
  };
  EXPECT_EQ(make(11), make(11));
  EXPECT_NE(make(11), make(12));
}

TEST(Inputs, SyncMixedIsByteIdenticalPerSeed) {
  SyncMixedShape shape;
  shape.users = 2;
  shape.big_file_bytes = 256 << 10;
  shape.nfs_pool = 4;
  shape.hot_segments = 2;
  shape.lockbox_bytes = 4096;
  shape.lockbox_pool = 2;
  shape.edit_patches = 4;
  shape.ops_per_user = 64;
  EXPECT_EQ(InputsDigest(MakeSyncMixedInputs(3, shape)),
            InputsDigest(MakeSyncMixedInputs(3, shape)));
  EXPECT_NE(InputsDigest(MakeSyncMixedInputs(3, shape)),
            InputsDigest(MakeSyncMixedInputs(4, shape)));
}

TEST(Result, JsonLineHasExactlyTheContractKeys) {
  std::string json = ResultJson(true, 10, 0, {{"ops_s", 1.5, "ops/s", "n=3"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"ops_s\": {\"value\": 1.5, \"unit\": \"ops/s\"}}}");
}

}  // namespace
}  // namespace discfsbench
