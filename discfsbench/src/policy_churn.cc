// policy_churn: the control plane and coherence on a two-node cluster
// (A, B), formatted and populated identically so credential handles match
// on both. Both nodes hold a delegated corpus in the overload harness's
// shape: POLICY -> admin -> 10 intermediaries -> 100-licensee
// disjunctions. The reader's grants are blanket delegations from every
// intermediary, so it may read all 2048 tiny files (every handle but the
// revocation-sample file's).
//
// Four generator threads on four connections, closed loop:
//   reads     reader at B, kReadDepth requests in flight, uniform over
//             2048 files: far more (principal, file) pairs than the
//             128-entry policy cache, so most reads run a KeyNote query;
//   submits   intermediary 0 at B, one at a time, paced at kSubmitRate:
//             fresh credentials (signature-cache misses) plus a fixed
//             share of re-submits (hits);
//   revokes   paced at kSampleRate: grant at A and B, warm read at B,
//             RemoveCredential at A, then poll-read at B until denied;
//   sessions  paced at kSessionRate: a pre-generated identity connects to
//             B (TCP + handshake + attach) and leaves.
// Bytes moved are negligible; KeyNote, the delegation index, DSA, the
// signature cache, invalidation scope and the coherence fabric carry it.
//
// Unlike the other workloads' generators these threads block on replies
// and sleep between paced requests, never poll: with polling generators
// competing for the CPU the read tail and the submit tail varied
// several-fold between runs. The control streams have one request in
// flight each.
#include <thread>

#include "discfsbench/src/calls.h"
#include "discfsbench/src/env.h"
#include "discfsbench/src/inputs.h"
#include "discfsbench/src/probes.h"
#include "discfsbench/src/workloads.h"

namespace discfsbench {
namespace {

using discfs::DiscfsProc;
using discfs::NfsProc;

constexpr double kSubmitRate = 200;   // submits per second
constexpr double kSampleRate = 200;   // revocation samples per second
constexpr double kSessionRate = 40;   // new-user sessions per second
constexpr double kDenyTimeoutS = 2.0;
constexpr size_t kReadDepth = 8;
// Time windows of a phase; ops_s and the read percentiles are medians over
// them.
constexpr size_t kWindows = 20;
constexpr size_t kCorpusBatch = 512;
// Fewer full set-ups than the other workloads (kSetupRepeats): each signs
// and submits a corpus to two nodes and takes about 2 s.
constexpr int kChurnSetupRepeats = 3;

struct ChurnEnv {
  uint64_t seed = 0;
  PolicyChurnShape shape;
  PolicyChurnInputs in;
  std::unique_ptr<Node> a, b;
  std::vector<discfs::NfsFh> fhs;  // identical on A and B
  // Connections: reader at B; intermediary 0 at B; intermediary 0 at A.
  std::unique_ptr<discfs::DiscfsClient> reader_b, submitter_b, issuer_a;

  ~ChurnEnv() {
    for (auto* c : {reader_b.get(), submitter_b.get(), issuer_a.get()}) {
      if (c != nullptr) c->Close();
    }
  }
  const discfs::NfsFh& sample_file() const { return fhs.back(); }
};

void SubmitAll(discfs::DiscfsClient& client,
               const std::vector<std::string>& texts) {
  for (size_t off = 0; off < texts.size(); off += kCorpusBatch) {
    std::vector<std::string> batch(
        texts.begin() + off,
        texts.begin() + std::min(off + kCorpusBatch, texts.size()));
    for (const auto& r : Unwrap(client.SubmitCredentials(batch), "submit")) {
      Unwrap(r, "corpus credential");
    }
  }
}

void WaitConverged(Node& node) {
  discfs::cluster::CoherenceFabric* fabric = node.host->fabric();
  BENCH_CHECK(fabric != nullptr);
  BENCH_CHECK(fabric->WaitForAck(fabric->stats().head_seq,
                                 std::chrono::milliseconds(10000)));
}

std::unique_ptr<ChurnEnv> Setup(uint64_t seed, double seconds,
                                Tracing* tracing) {
  auto env = std::make_unique<ChurnEnv>();
  env->seed = seed;
  PolicyChurnShape& shape = env->shape;
  shape.fresh = static_cast<size_t>(kSubmitRate * seconds) + 64;
  shape.grants = static_cast<size_t>(kSampleRate * seconds) + 64;
  shape.new_users = static_cast<size_t>(kSessionRate * seconds) + 16;
  env->in = MakePolicyChurnKeysAndFiles(seed, shape);
  PolicyChurnInputs& in = env->in;

  NodeSpec spec;
  spec.policy = AdminPolicy(in.admin);
  spec.cluster = true;
  spec.device_blocks = 8192;
  spec.server_key = in.server_a;
  spec.rand_seed = DeriveSeed(seed, "churn.node", 0);
  spec.trusted = {in.server_b.public_key()};
  env->a = StartNode(spec, tracing);
  spec.server_key = in.server_b;
  spec.rand_seed = DeriveSeed(seed, "churn.node", 1);
  spec.trusted = {in.server_a.public_key()};
  env->b = StartNode(spec, tracing);
  Unwrap(env->a->host->AddClusterPeer(
             {"127.0.0.1", env->b->host->port(), in.server_b.public_key()}),
         "add peer");
  Unwrap(env->b->host->AddClusterPeer(
             {"127.0.0.1", env->a->host->port(), in.server_a.public_key()}),
         "add peer");

  env->fhs = Populate(*env->a, "f", in.files);
  BENCH_CHECK(Populate(*env->b, "f", in.files) == env->fhs);
  SignPolicyChurnCorpus(in, shape, Handles(env->fhs));

  env->reader_b = Connect(*env->b, in.reader, DeriveSeed(seed, "churn.ch", 0),
                          tracing);
  env->submitter_b = Connect(*env->b, in.intermediaries[0],
                             DeriveSeed(seed, "churn.ch", 1), tracing);
  env->issuer_a = Connect(*env->a, in.intermediaries[0],
                          DeriveSeed(seed, "churn.ch", 2), tracing);
  for (auto* c : {env->reader_b.get(), env->submitter_b.get(),
                  env->issuer_a.get()}) {
    Unwrap(c->Attach(), "attach");
  }
  SubmitAll(*env->issuer_a, in.corpus);
  SubmitAll(*env->submitter_b, in.corpus);
  WaitConverged(*env->a);
  WaitConverged(*env->b);
  // Warm-up: every reader file once at B (block cache, delegation index).
  for (size_t f = 0; f < shape.reader_files; ++f) {
    discfs::Bytes data = Unwrap(
        env->reader_b->nfs().Read(env->fhs[f], 0, shape.file_bytes), "read");
    BENCH_CHECK(data == in.files[f]);
  }
  return env;
}

struct Counters {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> done = std::vector<uint64_t>(kWindows);
  std::vector<uint64_t> read_bytes = std::vector<uint64_t>(kWindows);
  Windows read_us = Windows(kWindows);
  std::vector<double> submit_us;
  std::vector<double> revoke_ms;
  std::vector<double> connect_ms;
  std::vector<double> handshake_ms;  // TCP + secure-channel handshake only
  std::vector<double> late_us;
  std::vector<double> propagation_us;
  std::vector<std::string> violations;

  void Fail(const std::string& what) {
    ++failed;
    violations.push_back(what);
  }
};

// Shared state of one measured phase.
struct Phase {
  ChurnEnv& env;
  double start_s;
  double seconds;
  ClientTracer tracer;
  Tracing* tracing;
  bool traced;
  // Inputs consumed by earlier phases of the run (grants are single-use:
  // a removed credential id stays revoked).
  size_t first_submit = 0;
  size_t first_grant = 0;
  size_t first_user = 0;

  double until() const { return start_s + seconds; }
  void Done(Counters& c, double now) const {
    if (now <= until()) ++c.done[WindowOf(now, start_s, seconds, kWindows)];
  }
};

// One blocking call, timed and traced like the pipelined ones.
Reply CallOnce(const Phase& p, Counters& c, discfs::DiscfsClient& client,
               uint32_t prog, uint32_t proc, const discfs::Bytes& args,
               const char* span) {
  ++c.attempted;
  uint64_t trace = p.tracer.Mint();
  uint64_t start_ns = discfs::obs::MonotonicNanos();
  Reply reply = Issue(client, prog, proc, args, trace).get();
  p.tracer.End(span, trace, start_ns);
  p.Done(c, NowSec());
  return reply;
}

// Reads at B keep kReadDepth requests in flight. The thread blocks on the
// oldest reply and then takes every reply already in: with one read at a
// time, each read waited on the wake-ups of four threads, and the read
// rate followed the host's wake-up latency more than the server.
void ReadStream(const Phase& p, Counters& c) {
  ChurnEnv& env = p.env;
  struct Tag {
    uint32_t file;
    uint64_t trace;
    uint64_t start_ns;
  };
  AsyncWindow<Tag> win;
  auto done = [&](auto& e, const Reply& reply, double now) {
    p.tracer.End("client.nfs_read", e.tag.trace, e.tag.start_ns);
    p.Done(c, now);
    const uint32_t file = e.tag.file;
    auto data = reply.ok() ? DecodeRead(*reply) : reply;
    if (!data.ok() || *data != env.in.files[file]) {
      c.Fail("read of file " + std::to_string(file) + " at B: " +
             (data.ok() ? "wrong bytes" : data.status().ToString()));
      return;
    }
    if (now <= p.until()) {
      size_t w = WindowOf(now, p.start_s, p.seconds, kWindows);
      c.read_us[w].push_back((now - e.start_s) * 1e6);
      c.read_bytes[w] += data->size();
    }
  };
  const uint32_t read = static_cast<uint32_t>(NfsProc::kRead);
  for (size_t pos = 0; NowSec() < p.until();) {
    while (win.size() < kReadDepth) {
      Tag tag;
      tag.file = env.in.read_plan[pos++ % env.in.read_plan.size()];
      tag.trace = p.tracer.Mint();
      tag.start_ns = discfs::obs::MonotonicNanos();
      ++c.attempted;
      win.Push(Issue(*env.reader_b, discfs::kNfsProgram, read,
                     ReadArgs(env.fhs[tag.file], 0,
                              static_cast<uint32_t>(env.shape.file_bytes)),
                     tag.trace),
               NowSec(), tag);
    }
    win.entries().front().future.wait();
    win.HarvestReady(done);
  }
  win.Drain(done);
}

// Sleeps until `due` (absolute); returns how late the caller already was,
// in microseconds.
double WaitUntil(double due) {
  double now = NowSec();
  if (now < due) {
    std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    return 0;
  }
  return (now - due) * 1e6;
}

void SubmitStream(const Phase& p, Counters& c) {
  ChurnEnv& env = p.env;
  OpenLoopSchedule schedule(kSubmitRate, 0);
  const uint64_t n = schedule.CountWithin(p.seconds);
  for (uint64_t i = 0; i < n; ++i) {
    c.late_us.push_back(WaitUntil(p.start_s + schedule.DueAt(i)));
    int64_t entry =
        env.in.submit_plan[(p.first_submit + i) % env.in.submit_plan.size()];
    size_t index = static_cast<size_t>(entry >= 0 ? entry : ~entry) %
                   env.in.fresh.size();
    double t0 = NowSec();
    Reply reply = CallOnce(p, c, *env.submitter_b, discfs::kDiscfsProgram,
                           static_cast<uint32_t>(DiscfsProc::kSubmitCredential),
                           StringArgs(env.in.fresh[index]), "client.submit");
    if (!reply.ok()) {
      c.Fail("submit at B: " + reply.status().ToString());
      continue;
    }
    if (NowSec() <= p.until()) c.submit_us.push_back((NowSec() - t0) * 1e6);
  }
}

bool IsDenied(const Reply& reply) {
  return reply.status().code() == discfs::StatusCode::kPermissionDenied;
}

void RevokeStream(const Phase& p, Counters& c) {
  ChurnEnv& env = p.env;
  discfs::cluster::CoherenceFabric* fabric_a = env.a->host->fabric();
  discfs::cluster::CoherenceFabric* fabric_b = env.b->host->fabric();
  const discfs::Bytes read_args = ReadArgs(
      env.sample_file(), 0, static_cast<uint32_t>(env.shape.file_bytes));
  const uint32_t read = static_cast<uint32_t>(NfsProc::kRead);
  const uint32_t nfs = discfs::kNfsProgram;
  const uint32_t prog = discfs::kDiscfsProgram;
  OpenLoopSchedule schedule(kSampleRate, 0.5 / kSampleRate);
  const uint64_t n = std::min<uint64_t>(
      schedule.CountWithin(p.seconds), env.in.grants.size() - p.first_grant);
  for (uint64_t i = 0; i < n; ++i) {
    c.late_us.push_back(WaitUntil(p.start_s + schedule.DueAt(i)));
    const discfs::Bytes grant = StringArgs(env.in.grants[p.first_grant + i]);
    const uint32_t submit =
        static_cast<uint32_t>(DiscfsProc::kSubmitCredential);
    Reply at_a = CallOnce(p, c, *env.issuer_a, prog, submit, grant,
                          "client.submit");
    Reply at_b = CallOnce(p, c, *env.reader_b, prog, submit, grant,
                          "client.submit");
    if (!at_a.ok() || !at_b.ok()) {
      c.Fail("grant: " + (at_a.ok() ? at_b : at_a).status().ToString());
      continue;
    }
    // The grant's coherence event from A has reached B before the sample
    // starts, so the next event B applies from A is the removal.
    if (!fabric_a->WaitForAck(fabric_a->stats().head_seq,
                              std::chrono::milliseconds(2000))) {
      c.Fail("grant " + std::to_string(i) + " did not converge to B");
      continue;
    }
    auto id = discfs::XdrReader(*at_a).GetString();
    Reply warm = CallOnce(p, c, *env.reader_b, nfs, read, read_args,
                          "client.nfs_read");
    auto data = warm.ok() ? DecodeRead(*warm) : warm;
    if (!id.ok() || !data.ok() || *data != env.in.files.back()) {
      c.Fail("granted read at B failed before revocation");
      continue;
    }
    const uint64_t applied = fabric_b->events_applied();
    const double t0 = NowSec();
    Reply removed = CallOnce(
        p, c, *env.issuer_a, prog,
        static_cast<uint32_t>(DiscfsProc::kRemoveCredential), StringArgs(*id),
        "client.remove");
    if (!removed.ok()) {
      c.Fail("remove at A: " + removed.status().ToString());
      continue;
    }
    if (p.traced) {
      // Coherence alone: A's ack to B having applied the removal, after
      // which B's EffectiveMask no longer grants the read. Polls an
      // atomic counter, so the policy cache statistics stay untouched.
      const double acked = NowSec();
      while (fabric_b->events_applied() == applied &&
             NowSec() - acked < kDenyTimeoutS) {
        PollPause();
      }
      c.propagation_us.push_back((NowSec() - acked) * 1e6);
    }
    bool denied = false;
    while (NowSec() - t0 < kDenyTimeoutS) {
      Reply poll = CallOnce(p, c, *env.reader_b, nfs, read, read_args,
                            "client.nfs_read");
      if (IsDenied(poll)) {
        denied = true;
        break;
      }
      if (!poll.ok()) {
        c.Fail("poll read at B: " + poll.status().ToString());
        break;
      }
    }
    if (!denied) {
      c.Fail("revocation " + std::to_string(i) + " not observed at B");
      continue;
    }
    const double t1 = NowSec();
    if (t1 <= p.until()) c.revoke_ms.push_back((t1 - t0) * 1e3);
    Reply confirm = CallOnce(p, c, *env.reader_b, nfs, read, read_args,
                             "client.nfs_read");
    if (!IsDenied(confirm)) {
      c.Fail("read at B after revocation " + std::to_string(i) +
             " was observed denied: " +
             (confirm.ok() ? "succeeded" : confirm.status().ToString()));
    }
  }
}

void SessionStream(const Phase& p, Counters& c) {
  ChurnEnv& env = p.env;
  OpenLoopSchedule schedule(kSessionRate, 0.25 / kSessionRate);
  const uint64_t n = std::min<uint64_t>(
      schedule.CountWithin(p.seconds), env.in.new_users.size() - p.first_user);
  for (uint64_t i = 0; i < n; ++i) {
    c.late_us.push_back(WaitUntil(p.start_s + schedule.DueAt(i)));
    const size_t user = p.first_user + i;
    ++c.attempted;
    const double t0 = NowSec();
    auto client = Connect(*env.b, env.in.new_users[user],
                          DeriveSeed(env.seed, "churn.user", user), p.tracing);
    const double connected = NowSec();
    auto root = client->Attach();
    const double t1 = NowSec();
    client->Close();
    if (!root.ok()) {
      c.Fail("new-user attach: " + root.status().ToString());
      continue;
    }
    p.Done(c, t1);
    if (t1 <= p.until()) {
      c.connect_ms.push_back((t1 - t0) * 1e3);
      c.handshake_ms.push_back((connected - t0) * 1e3);
    }
  }
}

// Runs the four streams for `seconds`; returns the per-stream counters.
std::vector<Counters> RunPhase(ChurnEnv& env, double seconds,
                               Tracing* tracing, bool traced,
                               double offset_s = 0) {
  std::vector<Counters> counters(4);
  Phase p{env, NowSec() + 0.01, seconds, ClientTracer(tracing), tracing,
          traced};
  // A phase starting `offset_s` into the run takes the inputs after those
  // the earlier phases were scheduled to use.
  p.first_submit = static_cast<size_t>(kSubmitRate * offset_s);
  p.first_grant = static_cast<size_t>(kSampleRate * offset_s);
  p.first_user = static_cast<size_t>(kSessionRate * offset_s);
  std::vector<std::thread> threads;
  threads.push_back(StartGenerator([&] { ReadStream(p, counters[0]); }));
  threads.push_back(StartGenerator([&] { SubmitStream(p, counters[1]); }));
  threads.push_back(StartGenerator([&] { RevokeStream(p, counters[2]); }));
  threads.push_back(StartGenerator([&] { SessionStream(p, counters[3]); }));
  for (std::thread& t : threads) t.join();
  return counters;
}

struct Totals {
  Counters all;
  double ops_s = 0;
  double goodput_mb_s = 0;
  uint64_t ops = 0;
};

Totals Combine(const std::vector<Counters>& counters, double seconds) {
  Totals t;
  Counters& all = t.all;
  std::vector<double> ops_s, mb_s;
  const double window_s = seconds / kWindows;
  for (size_t w = 0; w < kWindows; ++w) {
    uint64_t ops = 0, bytes = 0;
    for (const Counters& c : counters) {
      ops += c.done[w];
      bytes += c.read_bytes[w];
      all.read_us[w].insert(all.read_us[w].end(), c.read_us[w].begin(),
                            c.read_us[w].end());
    }
    t.ops += ops;
    ops_s.push_back(static_cast<double>(ops) / window_s);
    mb_s.push_back(static_cast<double>(bytes) / window_s / 1e6);
  }
  for (const Counters& c : counters) {
    all.attempted += c.attempted;
    all.failed += c.failed;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.submit_us, c.submit_us);
    append(all.revoke_ms, c.revoke_ms);
    append(all.connect_ms, c.connect_ms);
    append(all.handshake_ms, c.handshake_ms);
    append(all.late_us, c.late_us);
    append(all.propagation_us, c.propagation_us);
    all.violations.insert(all.violations.end(), c.violations.begin(),
                          c.violations.end());
  }
  t.ops_s = Median(ops_s);
  t.goodput_mb_s = Median(mb_s);
  return t;
}

void Account(const Counters& all, RunResult& out) {
  out.attempted += all.attempted;
  out.failed += all.failed;
  out.violations.insert(out.violations.end(), all.violations.begin(),
                        all.violations.end());
}

}  // namespace

RunResult RunPolicyChurn(const RunArgs& args) {
  RunResult out;
  if (!args.traced) {
    std::vector<double> setups;
    auto env = RepeatSetup<ChurnEnv>(
        kChurnSetupRepeats,
        [&] { return Setup(args.seed, args.seconds, nullptr); }, &setups);
    Totals t = Combine(RunPhase(*env, args.seconds, nullptr, false),
                       args.seconds);
    Account(t.all, out);
    std::string error;
    const double store_ratio =
        StoreRatio(*env->b, TotalBytes(env->in.files), &error);
    if (!error.empty()) {
      ++out.failed;
      out.violations.push_back(error);
    }
    out.metrics.push_back({"setup_s", Median(setups), "s",
                           "median of " + std::to_string(setups.size())});
    out.metrics.push_back({"ops_s", t.ops_s, "ops/s",
                           "median of " + std::to_string(kWindows) +
                               " windows, n=" + std::to_string(t.ops)});
    AddWindowedLatencyPair(out.metrics, out.missing, "read", "us",
                           t.all.read_us);
    AddWindowedLatencyPair(out.metrics, out.missing, "submit", "us",
                           SplitInOrder(t.all.submit_us, kWindows));
    AddWindowedLatencyPair(out.metrics, out.missing, "revoke_to_deny", "ms",
                           SplitInOrder(t.all.revoke_ms, kWindows));
    AddLatencyPair(out.metrics, out.missing, "connect", "ms", t.all.connect_ms,
                   /*with_p99=*/false);
    out.metrics.push_back({"goodput_mb_s", t.goodput_mb_s, "MB/s", ""});
    out.metrics.push_back({"store_ratio", store_ratio, "ratio",
                           "device bytes in use at B per live user byte"});
    out.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});
    return out;
  }

  Tracing tracing;
  auto env = Setup(args.seed, args.seconds, &tracing);
  Totals untraced =
      Combine(RunPhase(*env, args.seconds / 2, &tracing, false),
              args.seconds / 2);
  Account(untraced.all, out);
  LayerReport report({env->a.get(), env->b.get()}, &tracing);
  report.Begin();
  const double t0 = NowSec();
  Totals traced =
      Combine(RunPhase(*env, args.seconds / 2, &tracing, true,
                       /*offset_s=*/args.seconds / 2),
              args.seconds / 2);
  const double traced_s = NowSec() - t0;
  report.End();
  Account(traced.all, out);

  ClientObservations obs;
  obs.seconds = traced_s;
  obs.ops = traced.ops;
  obs.late_us = traced.all.late_us;
  obs.handshake_ms = traced.all.handshake_ms;
  obs.propagation_us = traced.all.propagation_us;
  obs.untraced_ops_s = untraced.ops_s;
  obs.traced_ops_s = traced.ops_s;
  ProbeInputs probes;
  probes.check_node = env->b.get();
  const std::string reader = env->in.reader.public_key().ToKeyNoteString();
  for (size_t f = 0; f < env->shape.reader_files; f += 4) {
    probes.pairs.push_back({reader, env->fhs[f].inode});
  }
  probes.policy = AdminPolicy(env->in.admin);
  probes.corpus = env->in.corpus;
  probes.fresh = env->in.fresh;
  probes.signer = env->in.intermediaries[0];
  probes.wrap_recipient = env->in.reader.public_key();
  probes.seed = args.seed;
  out.metrics = report.Metrics(obs, probes);
  if (!args.trace_out.empty() && !report.Dump(args.trace_out)) {
    out.violations.push_back("cannot write span dump " + args.trace_out);
  }
  return out;
}

}  // namespace discfsbench
