// hot_read: the small-message data plane on one node. Four readers, one
// connection each, hold depth-3 delegated grants (POLICY -> admin ->
// intermediary -> reader) on 64 files of 4 KiB and read a 16-file slice
// each: 64 (reader, file) pairs fit the 128-entry policy cache and 256 KiB
// of data fits the 4 MiB block cache, so per-message cost (AEAD records,
// RPC decode, pool hop, send queue, cache-hit policy check) is nearly all
// the work. Mix: ~80% READ 4 KiB, ~20% GETATTR.
//
// Phase 1 is closed-loop with kDepth requests in flight per connection
// (ops_s, goodput_mb_s). Phase 2 is open-loop at the fixed aggregate rate
// kOpenLoopRate, each request timed from its due time (read_p50/p99_us).
#include <deque>
#include <thread>

#include "discfsbench/src/calls.h"
#include "discfsbench/src/env.h"
#include "discfsbench/src/inputs.h"
#include "discfsbench/src/probes.h"
#include "discfsbench/src/workloads.h"

namespace discfsbench {
namespace {

using discfs::NfsProc;

constexpr size_t kDepth = 8;
// Each phase is split into this many windows; throughput and the read
// percentiles are medians over the windows. At kOpenLoopRate the 15 s open-loop phase of a
// 30 s run gives 3000 samples a window, 30 beyond the p99.
constexpr size_t kWindows = 40;
// A tenth to a fifth of the closed-loop rate measured when this benchmark
// was written, on a 4-vCPU virtual machine (40-80k ops/s as the host's
// load changed); fixed, so a faster server is not handed a harder load.
// At twice this rate, a host busy with other load pushed the server into
// queueing episodes of tens of milliseconds and the p99 varied several-fold
// between runs.
constexpr double kOpenLoopRate = 8000;

struct HotEnv {
  HotReadShape shape;
  HotReadInputs in;
  std::unique_ptr<Node> node;
  std::vector<discfs::NfsFh> fhs;
  std::vector<std::unique_ptr<discfs::DiscfsClient>> readers;

  ~HotEnv() {
    for (auto& c : readers) c->Close();
  }
  size_t FileOf(size_t reader, uint32_t slice_index) const {
    return (reader * shape.slice + slice_index) % shape.files;
  }
};

std::unique_ptr<HotEnv> Setup(uint64_t seed, Tracing* tracing) {
  auto env = std::make_unique<HotEnv>();
  env->in = MakeHotReadKeysAndFiles(seed, env->shape);
  NodeSpec spec;
  spec.server_key = env->in.server;
  spec.policy = AdminPolicy(env->in.admin);
  spec.rand_seed = DeriveSeed(seed, "hot.node", 0);
  spec.device_blocks = 4096;
  env->node = StartNode(spec, tracing);
  env->fhs = Populate(*env->node, "hot", env->in.files);
  SignHotReadCorpus(env->in, env->shape, Handles(env->fhs));
  for (size_t r = 0; r < env->shape.readers; ++r) {
    env->readers.push_back(Connect(*env->node, env->in.readers[r],
                                   DeriveSeed(seed, "hot.channel", r),
                                   tracing));
    Unwrap(env->readers[r]->Attach(), "attach");
  }
  for (const auto& r :
       Unwrap(env->readers[0]->SubmitCredentials(env->in.corpus), "submit")) {
    Unwrap(r, "corpus credential");
  }
  // Warm-up: every pair once (policy cache, block cache, verify contexts).
  for (size_t r = 0; r < env->shape.readers; ++r) {
    for (uint32_t i = 0; i < env->shape.slice; ++i) {
      size_t f = env->FileOf(r, i);
      discfs::Bytes data = Unwrap(
          env->readers[r]->nfs().Read(env->fhs[f], 0, env->shape.file_bytes),
          "warm-up read");
      BENCH_CHECK(data == env->in.files[f]);
    }
  }
  return env;
}

struct Tag {
  HotOp op;
  uint64_t trace = 0;
  uint64_t start_ns = 0;
  double due_s = 0;  // open loop only
  double sent_s = 0;
};

struct Counters {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> done = std::vector<uint64_t>(kWindows);  // closed
  std::vector<uint64_t> bytes = std::vector<uint64_t>(kWindows);
  Windows latency_us = Windows(kWindows);  // open loop
  std::vector<double> late_us;
  std::vector<std::string> violations;
};

class Reader {
 public:
  Reader(HotEnv& env, size_t r, ClientTracer tracer, Counters& c)
      : env_(env), r_(r), tracer_(tracer), c_(c) {}

  // Closed loop: the phase's single generator thread keeps kDepth
  // requests in flight on this connection and harvests between top-ups.
  void FillClosed() {
    while (closed_.size() < kDepth) {
      Tag tag = Next();
      closed_.Push(Send(tag), NowSec(), tag);
    }
  }
  // Completes the replies already in (all of them if `drain`); returns
  // how many.
  size_t HarvestClosed(double start_s, double seconds, bool drain) {
    auto done = [&](auto& e, const Reply& reply, double now) {
      Check(e.tag, reply);
      if (now <= start_s + seconds) {
        size_t w = WindowOf(now, start_s, seconds, kWindows);
        ++c_.done[w];
        c_.bytes[w] += e.tag.op.getattr ? 0 : env_.shape.file_bytes;
      }
    };
    if (!drain) {
      return closed_.HarvestReady(done);
    }
    size_t n = closed_.size();
    closed_.Drain(done);
    return n;
  }

  // Open loop: the phase's single generator thread calls Send for each
  // request as it falls due and Harvest between requests.
  void SendOpen(double due_s) {
    Tag tag = Next();
    tag.due_s = due_s;
    tag.sent_s = NowSec();
    open_.Push(Send(tag), tag.sent_s, tag);
  }
  void HarvestOpen(double start_s, double seconds, bool drain) {
    auto done = [&](auto& e, const Reply& reply, double now) {
      Check(e.tag, reply);
      OpenLoopSample s = AccountOpenLoop(e.tag.due_s, e.tag.sent_s, now);
      c_.latency_us[WindowOf(e.tag.due_s, start_s, seconds, kWindows)]
          .push_back(s.latency_us);
      c_.late_us.push_back(s.late_us);
    };
    if (drain) {
      open_.Drain(done);
    } else {
      open_.HarvestReady(done);
    }
  }

 private:
  Tag Next() {
    const auto& plan = env_.in.ops[r_];
    Tag tag;
    tag.op = plan[pos_++ % plan.size()];
    return tag;
  }

  std::future<Reply> Send(Tag& tag) {
    ++c_.attempted;
    tag.trace = tracer_.Mint();
    tag.start_ns = discfs::obs::MonotonicNanos();
    const discfs::NfsFh& fh = env_.fhs[env_.FileOf(r_, tag.op.file)];
    discfs::DiscfsClient& client = *env_.readers[r_];
    if (tag.op.getattr) {
      return IssueNfs(client, NfsProc::kGetAttr, FhArgs(fh), tag.trace);
    }
    const uint32_t count = static_cast<uint32_t>(env_.shape.file_bytes);
    return IssueNfs(client, NfsProc::kRead, ReadArgs(fh, 0, count), tag.trace);
  }

  void Check(const Tag& tag, const Reply& reply) {
    tracer_.End(tag.op.getattr ? "client.nfs_getattr" : "client.nfs_read",
                tag.trace, tag.start_ns);
    size_t f = env_.FileOf(r_, tag.op.file);
    if (!reply.ok()) {
      ++c_.failed;
      c_.violations.push_back("reader " + std::to_string(r_) + ": " +
                              reply.status().ToString());
      return;
    }
    bool good;
    if (tag.op.getattr) {
      auto attr = DecodeAttr(*reply);
      good = attr.ok() && attr->size == env_.shape.file_bytes;
    } else {
      auto data = DecodeRead(*reply);
      good = data.ok() && *data == env_.in.files[f];
    }
    if (!good) {
      ++c_.failed;
      c_.violations.push_back("reader " + std::to_string(r_) + ": file " +
                              std::to_string(f) + " returned wrong " +
                              (tag.op.getattr ? "attributes" : "bytes"));
    }
  }

  HotEnv& env_;
  size_t r_;
  ClientTracer tracer_;
  Counters& c_;
  size_t pos_ = 0;
  AsyncWindow<Tag> closed_;
  AsyncWindow<Tag> open_;
};

struct PhaseResult {
  double ops_s = 0;
  double goodput_mb_s = 0;
  uint64_t ops = 0;
};

// One generator thread drives all four connections, as in the open loop:
// a single polling thread keeps one vCPU busy and leaves the others to
// the server.
template <typename Fn>
void OnOneGenerator(HotEnv& env, Tracing* tracing,
                    std::vector<Counters>& counters, Fn fn) {
  std::thread generator = StartGenerator([&] {
    std::deque<Reader> readers;  // stable addresses, no moves
    for (size_t r = 0; r < env.readers.size(); ++r) {
      readers.emplace_back(env, r, ClientTracer(tracing), counters[r]);
    }
    fn(readers);
  });
  generator.join();
}

PhaseResult ClosedPhase(HotEnv& env, double seconds, Tracing* tracing,
                        std::vector<Counters>& counters) {
  const double start = NowSec();
  OnOneGenerator(env, tracing, counters, [&](std::deque<Reader>& readers) {
    while (NowSec() < start + seconds) {
      size_t done = 0;
      for (Reader& r : readers) r.FillClosed();
      for (Reader& r : readers) done += r.HarvestClosed(start, seconds, false);
      if (done == 0) PollPause();
    }
    for (Reader& r : readers) r.HarvestClosed(start, seconds, true);
  });
  PhaseResult p;
  std::vector<double> ops_s, mb_s;
  const double window_s = seconds / kWindows;
  for (size_t w = 0; w < kWindows; ++w) {
    uint64_t ops = 0, bytes = 0;
    for (Counters& c : counters) {
      ops += c.done[w];
      bytes += c.bytes[w];
      c.done[w] = c.bytes[w] = 0;
    }
    p.ops += ops;
    ops_s.push_back(static_cast<double>(ops) / window_s);
    mb_s.push_back(static_cast<double>(bytes) / window_s / 1e6);
  }
  p.ops_s = Median(ops_s);
  p.goodput_mb_s = Median(mb_s);
  return p;
}

// The open loop issues the whole schedule, request i on connection i mod 4.
void OpenPhase(HotEnv& env, double seconds, Tracing* tracing,
               std::vector<Counters>& counters) {
  OnOneGenerator(env, tracing, counters, [&](std::deque<Reader>& readers) {
    const double start = NowSec() + 0.01;
    OpenLoopSchedule schedule(kOpenLoopRate, 0);
    const uint64_t n = schedule.CountWithin(seconds);
    for (uint64_t i = 0; i < n; ++i) {
      const double due = start + schedule.DueAt(i);
      // Harvest before every send, so a generator running behind its
      // schedule still takes each reply's time as it arrives.
      for (Reader& r : readers) r.HarvestOpen(start, seconds, false);
      while (NowSec() < due) {
        PollPause();
        for (Reader& r : readers) r.HarvestOpen(start, seconds, false);
      }
      readers[i % readers.size()].SendOpen(due);
    }
    for (Reader& r : readers) r.HarvestOpen(start, seconds, true);
  });
}

void Collect(const std::vector<Counters>& counters, RunResult& out,
             Windows* latency, std::vector<double>* late) {
  latency->assign(kWindows, {});
  for (const Counters& c : counters) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.violations.insert(out.violations.end(), c.violations.begin(),
                          c.violations.end());
    for (size_t w = 0; w < kWindows; ++w) {
      (*latency)[w].insert((*latency)[w].end(), c.latency_us[w].begin(),
                           c.latency_us[w].end());
    }
    late->insert(late->end(), c.late_us.begin(), c.late_us.end());
  }
}

}  // namespace

RunResult RunHotRead(const RunArgs& args) {
  RunResult out;
  if (!args.traced) {
    std::vector<double> setups;
    auto env = RepeatSetup<HotEnv>(
        kSetupRepeats, [&] { return Setup(args.seed, nullptr); }, &setups);
    std::vector<Counters> counters(env->readers.size());
    PhaseResult closed = ClosedPhase(*env, args.seconds / 2, nullptr, counters);
    OpenPhase(*env, args.seconds / 2, nullptr, counters);
    Windows latency;
    std::vector<double> late;
    Collect(counters, out, &latency, &late);
    std::string error;
    const double store_ratio =
        StoreRatio(*env->node, TotalBytes(env->in.files), &error);
    if (!error.empty()) {
      ++out.failed;
      out.violations.push_back(error);
    }
    out.metrics.push_back({"setup_s", Median(setups), "s",
                           "median of " + std::to_string(setups.size())});
    out.metrics.push_back({"ops_s", closed.ops_s, "ops/s",
                           "median of " + std::to_string(kWindows) +
                               " windows, n=" + std::to_string(closed.ops)});
    AddWindowedLatencyPair(out.metrics, out.missing, "read", "us", latency);
    out.metrics.push_back({"goodput_mb_s", closed.goodput_mb_s, "MB/s", ""});
    out.metrics.push_back({"store_ratio", store_ratio, "ratio",
                           "device bytes in use per live user byte"});
    out.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});
    return out;
  }

  Tracing tracing;
  auto env = Setup(args.seed, &tracing);
  std::vector<Counters> counters(env->readers.size());
  PhaseResult untraced =
      ClosedPhase(*env, args.seconds / 2, &tracing, counters);
  LayerReport report({env->node.get()}, &tracing);
  report.Begin();
  const double t0 = NowSec();
  PhaseResult traced = ClosedPhase(*env, args.seconds / 4, &tracing, counters);
  OpenPhase(*env, args.seconds / 4, &tracing, counters);
  const double traced_s = NowSec() - t0;
  report.End();
  Windows latency;
  ClientObservations obs;
  obs.handshake_ms =
      HandshakeProbe(*env->node, env->in.readers[0],
                     DeriveSeed(args.seed, "hot.handshake", 0), kHandshakeProbes);
  Collect(counters, out, &latency, &obs.late_us);
  obs.seconds = traced_s;
  obs.ops = traced.ops + obs.late_us.size();
  obs.untraced_ops_s = untraced.ops_s;
  obs.traced_ops_s = traced.ops_s;
  ProbeInputs probes;
  probes.check_node = env->node.get();
  for (size_t r = 0; r < env->shape.readers; ++r) {
    for (uint32_t i = 0; i < env->shape.slice; ++i) {
      probes.pairs.push_back(
          {env->in.readers[r].public_key().ToKeyNoteString(),
           env->fhs[env->FileOf(r, i)].inode});
    }
  }
  probes.policy = AdminPolicy(env->in.admin);
  probes.corpus = env->in.corpus;
  probes.signer = env->in.intermediary;
  probes.wrap_recipient = env->in.readers[0].public_key();
  probes.seed = args.seed;
  out.metrics = report.Metrics(obs, probes);
  if (!args.trace_out.empty() && !report.Dump(args.trace_out)) {
    out.violations.push_back("cannot write span dump " + args.trace_out);
  }
  return out;
}

}  // namespace discfsbench
