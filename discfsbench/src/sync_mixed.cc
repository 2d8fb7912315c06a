// sync_mixed: storage, writes beside reads, on one node whose
// MemBlockDevice runs the LatencyModel (seek 100 us, transfer 10 us, as in
// storage_scaling) under the default write-back block cache (1024 blocks,
// flusher at capacity/4 dirty or every 200 ms, 8-block readahead).
//
// Four users, one connection each, kDepth requests in flight, closed loop:
//   NFS      64 KiB READ/WRITE at 64 KiB-aligned offsets of the user's
//            8 MiB file (32 MiB in all, 8x the block cache), offsets
//            skewed onto a hot set so the cache hit rate lands inside
//            (0, 1);
//   lockbox  PUT sealed (client SealPayload + WrapKey to each of the
//            user's 2-3 devices; half of them ~1% edits of the file's
//            current content) or public (half duplicating content other
//            users hold); GET + unwrap + OpenPayload, checked byte for
//            byte.
// Policy checks are all cache hits; the lockbox and chunk store, Ffs,
// block-cache eviction and writeback, and the device carry the work.
#include <algorithm>
#include <thread>

#include "discfsbench/src/calls.h"
#include "discfsbench/src/env.h"
#include "discfsbench/src/inputs.h"
#include "discfsbench/src/probes.h"
#include "discfsbench/src/workloads.h"
#include "src/crypto/keywrap.h"
#include "src/discfs/credentials.h"
#include "src/lockbox/lockbox.h"
#include "src/util/prng.h"

namespace discfsbench {
namespace {

using discfs::Bytes;
using discfs::DiscfsProc;
using discfs::NfsProc;

constexpr size_t kDepth = 4;
constexpr size_t kWindows = 5;
constexpr uint32_t kChunkBytes = 8 << 10;

// Client-side view of one lockbox file.
struct Box {
  discfs::NfsFh fh;
  bool sealed = false;
  Bytes plaintext;
};

struct User {
  std::unique_ptr<discfs::DiscfsClient> client;
  discfs::NfsFh big;
  std::vector<uint32_t> segments;  // pool index held by each segment
  std::vector<Box> boxes;          // sealed slots first, then public
};

struct SyncEnv {
  uint64_t seed = 0;
  SyncMixedShape shape;
  SyncMixedInputs in;
  std::unique_ptr<Node> node;
  std::vector<User> users;
  std::vector<std::string> corpus;

  ~SyncEnv() {
    for (User& u : users) {
      if (u.client != nullptr) u.client->Close();
    }
  }
};

// The sealed or public PUT of `plaintext` to `box` by user `u`.
Bytes PutArgs(const SyncEnv& env, size_t u, const Box& box,
              const Bytes& plaintext,
              const std::function<Bytes(size_t)>& rand) {
  if (!box.sealed) {
    return PutLockboxArgs(box.fh, false, kChunkBytes, plaintext, {});
  }
  Bytes key = discfs::GenerateContentKey(rand);
  Bytes sealed = discfs::SealPayload(key, plaintext, rand);
  std::vector<discfs::wire::LockboxEntry> entries;
  for (const discfs::DsaPrivateKey& device : env.in.devices[u]) {
    entries.push_back(
        {device.public_key().ToKeyNoteString(),
         Unwrap(discfs::WrapKey(device.public_key(), key, rand), "wrap")});
  }
  return PutLockboxArgs(box.fh, true, kChunkBytes, sealed, entries);
}

// Checks a GET reply against the box; empty string when it matches.
std::string CheckGet(const SyncEnv& env, size_t u, const Box& box,
                     const Bytes& reply) {
  auto fetch = DecodeLockbox(reply);
  if (!fetch.ok()) return "undecodable GET reply";
  if (fetch->record.sealed != box.sealed) return "GET sealed flag differs";
  if (!box.sealed) {
    return fetch->payload == box.plaintext ? "" : "public GET wrong bytes";
  }
  const discfs::DsaPrivateKey& device = env.in.devices[u][0];
  int index = fetch->record.FindEntry(device.public_key().ToKeyNoteString());
  if (index < 0) return "sealed GET lacks the device's key entry";
  auto key =
      discfs::UnwrapKey(device, fetch->record.entries[index].wrapped_key);
  if (!key.ok()) return "sealed GET key does not unwrap";
  auto plain = discfs::OpenPayload(*key, fetch->payload);
  if (!plain.ok()) return "sealed GET does not open";
  return *plain == box.plaintext ? "" : "sealed GET opened to wrong bytes";
}

std::unique_ptr<SyncEnv> Setup(uint64_t seed, Tracing* tracing) {
  auto env = std::make_unique<SyncEnv>();
  env->seed = seed;
  const SyncMixedShape& shape = env->shape;
  env->in = MakeSyncMixedInputs(seed, shape);
  const SyncMixedInputs& in = env->in;

  NodeSpec spec;
  spec.server_key = in.server;
  spec.policy = AdminPolicy(in.admin);
  spec.rand_seed = DeriveSeed(seed, "sync.node", 0);
  spec.device_blocks = 16384;
  spec.latency = {100'000, 10'000};
  env->node = StartNode(spec, tracing);

  discfs::CredentialOptions rw;
  rw.permissions = "RW";
  const size_t slots = shape.sealed_slots + shape.public_slots;
  const size_t segments = shape.big_file_bytes / shape.segment;
  env->users.resize(shape.users);
  for (size_t u = 0; u < shape.users; ++u) {
    User& user = env->users[u];
    std::vector<Bytes> big;
    for (uint32_t s : in.initial_segments[u]) big.push_back(in.nfs_pool[s]);
    Bytes contents;
    for (const Bytes& b : big) {
      contents.insert(contents.end(), b.begin(), b.end());
    }
    user.big = Populate(*env->node, "big" + std::to_string(u), {contents})[0];
    user.segments = in.initial_segments[u];
    BENCH_CHECK(user.segments.size() == segments);
    std::vector<discfs::NfsFh> files = Populate(
        *env->node, "box" + std::to_string(u) + "_",
        std::vector<Bytes>(slots, Bytes{0}));
    for (size_t s = 0; s < slots; ++s) {
      Box box;
      box.fh = files[s];
      box.sealed = s < shape.sealed_slots;
      box.plaintext = box.sealed ? in.sealed_pool[u][s % shape.lockbox_pool]
                                 : in.public_shared[s % shape.lockbox_pool];
      user.boxes.push_back(std::move(box));
    }
    files.push_back(user.big);
    for (const discfs::NfsFh& fh : files) {
      env->corpus.push_back(Unwrap(
          discfs::IssueCredential(in.admin, in.users[u].public_key(),
                                  std::to_string(fh.inode), rw),
          "issue"));
    }
  }
  for (size_t u = 0; u < shape.users; ++u) {
    User& user = env->users[u];
    user.client = Connect(*env->node, in.users[u],
                          DeriveSeed(seed, "sync.channel", u), tracing);
    Unwrap(user.client->Attach(), "attach");
  }
  for (const auto& r : Unwrap(
           env->users[0].client->SubmitCredentials(env->corpus), "submit")) {
    Unwrap(r, "credential");
  }
  // Initial lockbox contents, then a warm-up GET of every box (policy
  // cache, verify contexts) checked like the measured ones.
  auto rand = discfs::LockedPrngBytes(DeriveSeed(seed, "sync.setup", 0));
  for (size_t u = 0; u < shape.users; ++u) {
    User& user = env->users[u];
    auto* rpc = user.client->nfs().rpc();
    for (const Box& box : user.boxes) {
      Unwrap(rpc->Call(discfs::kDiscfsProgram,
                       static_cast<uint32_t>(DiscfsProc::kPutLockbox),
                       PutArgs(*env, u, box, box.plaintext, rand)),
             "initial put");
    }
    for (const Box& box : user.boxes) {
      Bytes reply = Unwrap(
          rpc->Call(discfs::kDiscfsProgram,
                    static_cast<uint32_t>(DiscfsProc::kGetLockbox),
                    FhArgs(box.fh)),
          "warm-up get");
      std::string problem = CheckGet(*env, u, box, reply);
      BENCH_CHECK(problem.empty());
    }
    for (size_t s = 0; s < shape.hot_segments; ++s) {
      Bytes data = Unwrap(user.client->nfs().Read(
                              user.big, s * shape.segment,
                              static_cast<uint32_t>(shape.segment)),
                          "warm-up read");
      BENCH_CHECK(data == in.nfs_pool[user.segments[s]]);
    }
  }
  return env;
}

struct Counters {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bytes_written = 0;
  std::vector<uint64_t> done = std::vector<uint64_t>(kWindows);
  std::vector<uint64_t> payload = std::vector<uint64_t>(kWindows);
  // (completion time, latency in us), in completion order.
  std::vector<std::pair<double, double>> read_us, write_us;
  std::vector<std::string> violations;

  void Fail(const std::string& what) {
    ++failed;
    violations.push_back(what);
  }
};

bool IsWrite(SyncKind k) {
  return k != SyncKind::kNfsRead && k != SyncKind::kGet;
}
bool IsNfs(SyncKind k) {
  return k == SyncKind::kNfsRead || k == SyncKind::kNfsWrite;
}
const char* SpanName(SyncKind k) {
  switch (k) {
    case SyncKind::kNfsRead: return "client.nfs_read";
    case SyncKind::kNfsWrite: return "client.nfs_write";
    case SyncKind::kGet: return "client.lockbox_get";
    default: return "client.lockbox_put";
  }
}

class Driver {
 public:
  Driver(SyncEnv& env, size_t u, ClientTracer tracer, Counters& c,
         size_t plan_start)
      : env_(env),
        u_(u),
        user_(env.users[u]),
        tracer_(tracer),
        c_(c),
        pos_(plan_start),
        rand_(discfs::LockedPrngBytes(
            DeriveSeed(env.seed, "sync.client", u * 1000003 + plan_start))) {}

  size_t Run(double start_s, double seconds) {
    start_s_ = start_s;
    seconds_ = seconds;
    auto done = [&](auto& e, const Reply& reply, double) {
      Complete(e.tag, e.start_s, reply);
    };
    while (NowSec() < start_s + seconds) {
      while (win_.size() < kDepth) {
        const SyncOp& op = env_.in.ops[u_][pos_ % env_.in.ops[u_].size()];
        while (Conflicts(op)) win_.HarvestSome(done);
        ++pos_;
        Issue(op);
      }
      win_.HarvestSome(done);
    }
    win_.Drain(done);
    return pos_;
  }

 private:
  struct Tag {
    SyncOp op;
    Bytes plaintext;  // what a PUT stored
    uint64_t trace = 0;
    uint64_t start_ns = 0;
  };

  // One request per resource: a segment or a box is never the target of
  // two requests in flight, so each reply has one expected value.
  bool Conflicts(const SyncOp& op) const {
    for (const auto& e : win_.entries()) {
      if (IsNfs(e.tag.op.kind) == IsNfs(op.kind) &&
          e.tag.op.target == op.target) {
        return true;
      }
    }
    return false;
  }

  void Issue(const SyncOp& op) {
    ++c_.attempted;
    Tag tag;
    tag.op = op;
    tag.trace = tracer_.Mint();
    tag.start_ns = discfs::obs::MonotonicNanos();
    const double start = NowSec();
    const SyncMixedShape& shape = env_.shape;
    discfs::DiscfsClient& client = *user_.client;
    std::future<Reply> f;
    switch (op.kind) {
      case SyncKind::kNfsRead:
        f = IssueNfs(client, NfsProc::kRead,
                     ReadArgs(user_.big, op.target * shape.segment,
                              static_cast<uint32_t>(shape.segment)),
                     tag.trace);
        break;
      case SyncKind::kNfsWrite:
        f = IssueNfs(client, NfsProc::kWrite,
                     WriteArgs(user_.big, op.target * shape.segment,
                               env_.in.nfs_pool[op.payload]),
                     tag.trace);
        break;
      case SyncKind::kGet:
        f = IssueDiscfs(client, DiscfsProc::kGetLockbox,
                        FhArgs(user_.boxes[op.target].fh), tag.trace);
        break;
      default: {
        const Box& box = user_.boxes[op.target];
        const size_t pool = op.payload % shape.lockbox_pool;
        switch (op.kind) {
          case SyncKind::kPutSealedFresh:
            tag.plaintext = env_.in.sealed_pool[u_][pool];
            break;
          case SyncKind::kPutSealedEdit:
            tag.plaintext = box.plaintext;
            ApplyPatch(env_.in.patches[op.payload], tag.plaintext);
            break;
          case SyncKind::kPutPublicDup:
            tag.plaintext = env_.in.public_shared[pool];
            break;
          default:
            tag.plaintext = env_.in.public_unique[u_][pool];
            break;
        }
        f = IssueDiscfs(client, DiscfsProc::kPutLockbox,
                        PutArgs(env_, u_, box, tag.plaintext, rand_),
                        tag.trace);
        break;
      }
    }
    win_.Push(std::move(f), start, std::move(tag));
  }

  void Complete(Tag& tag, double start_s, const Reply& reply) {
    const SyncOp& op = tag.op;
    std::string problem;
    size_t bytes = 0;
    if (!reply.ok()) {
      problem = reply.status().ToString();
    } else if (op.kind == SyncKind::kNfsRead) {
      auto data = DecodeRead(*reply);
      bytes = env_.shape.segment;
      if (!data.ok() || *data != env_.in.nfs_pool[user_.segments[op.target]]) {
        problem = "READ of segment " + std::to_string(op.target) +
                  " returned wrong bytes";
      }
    } else if (op.kind == SyncKind::kNfsWrite) {
      user_.segments[op.target] = op.payload;
      bytes = env_.shape.segment;
    } else if (op.kind == SyncKind::kGet) {
      const Box& box = user_.boxes[op.target];
      problem = CheckGet(env_, u_, box, *reply);
      bytes = box.plaintext.size();
    } else {
      bytes = tag.plaintext.size();
      user_.boxes[op.target].plaintext = std::move(tag.plaintext);
    }
    tracer_.End(SpanName(op.kind), tag.trace, tag.start_ns);
    if (!problem.empty()) {
      c_.Fail("user " + std::to_string(u_) + ": " + problem);
      return;
    }
    const double now = NowSec();
    if (IsWrite(op.kind)) c_.bytes_written += bytes;
    if (now > start_s_ + seconds_) return;
    size_t w = WindowOf(now, start_s_, seconds_, kWindows);
    ++c_.done[w];
    c_.payload[w] += bytes;
    (IsWrite(op.kind) ? c_.write_us : c_.read_us)
        .push_back({now, (now - start_s) * 1e6});
  }

  SyncEnv& env_;
  size_t u_;
  User& user_;
  ClientTracer tracer_;
  Counters& c_;
  size_t pos_;
  std::function<Bytes(size_t)> rand_;
  AsyncWindow<Tag> win_;
  double start_s_ = 0;
  double seconds_ = 0;
};

struct Totals {
  double ops_s = 0;
  double goodput_mb_s = 0;
  uint64_t ops = 0;
  uint64_t bytes_written = 0;
  // Latencies split in completion order into windows of at least 1000
  // (a few thousand of each kind complete per run, too few to fill five
  // fixed time windows).
  Windows read_us, write_us;
};

Windows InOrder(std::vector<std::pair<double, double>> samples) {
  std::sort(samples.begin(), samples.end());
  std::vector<double> values;
  for (const auto& [t, v] : samples) values.push_back(v);
  return SplitInOrder(values, kWindows);
}

// Runs every user for `seconds`, continuing each user's plan at
// `positions`.
Totals RunPhase(SyncEnv& env, double seconds, Tracing* tracing,
                std::vector<size_t>& positions, RunResult& out) {
  std::vector<Counters> counters(env.users.size());
  const double start = NowSec() + 0.01;
  std::vector<std::thread> threads;
  for (size_t u = 0; u < env.users.size(); ++u) {
    threads.push_back(StartGenerator([&, u] {
      positions[u] = Driver(env, u, ClientTracer(tracing), counters[u],
                            positions[u])
                         .Run(start, seconds);
    }));
  }
  for (std::thread& t : threads) t.join();

  Totals t;
  std::vector<double> ops_s, mb_s;
  const double window_s = seconds / kWindows;
  for (size_t w = 0; w < kWindows; ++w) {
    uint64_t ops = 0, bytes = 0;
    for (const Counters& c : counters) {
      ops += c.done[w];
      bytes += c.payload[w];
    }
    t.ops += ops;
    ops_s.push_back(static_cast<double>(ops) / window_s);
    mb_s.push_back(static_cast<double>(bytes) / window_s / 1e6);
  }
  std::vector<std::pair<double, double>> reads, writes;
  for (const Counters& c : counters) {
    reads.insert(reads.end(), c.read_us.begin(), c.read_us.end());
    writes.insert(writes.end(), c.write_us.begin(), c.write_us.end());
    t.bytes_written += c.bytes_written;
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.violations.insert(out.violations.end(), c.violations.begin(),
                          c.violations.end());
  }
  t.read_us = InOrder(std::move(reads));
  t.write_us = InOrder(std::move(writes));
  t.ops_s = Median(ops_s);
  t.goodput_mb_s = Median(mb_s);
  return t;
}

// End-of-run checks on the quiesced volume; returns store_ratio.
double FinalChecks(SyncEnv& env, RunResult& out) {
  discfs::Ffs& ffs = env.node->ffs();
  auto fail = [&](const std::string& what) {
    ++out.failed;
    out.violations.push_back(what);
  };
  double live = 0;
  for (const User& u : env.users) {
    live += static_cast<double>(env.shape.big_file_bytes);
    for (const Box& b : u.boxes) {
      live += static_cast<double>(b.plaintext.size());
    }
  }
  std::string error;
  const double ratio = StoreRatio(*env.node, live, &error);
  if (!error.empty()) fail(error);
  auto fsck = ffs.Check();
  if (!fsck.ok() || !fsck->clean()) {
    fail("Ffs::Check not clean: " + (fsck.ok() ? fsck->errors.front()
                                               : fsck.status().ToString()));
  }
  auto audit = env.node->server().chunkstore().Audit();
  if (!audit.ok() || !audit->clean()) {
    fail("ChunkStore::Audit not clean");
  }
  return ratio;
}

}  // namespace

RunResult RunSyncMixed(const RunArgs& args) {
  RunResult out;
  if (!args.traced) {
    std::vector<double> setups;
    auto env = RepeatSetup<SyncEnv>(
        kSetupRepeats, [&] { return Setup(args.seed, nullptr); }, &setups);
    std::vector<size_t> positions(env->users.size(), 0);
    Totals t = RunPhase(*env, args.seconds, nullptr, positions, out);
    double store_ratio = FinalChecks(*env, out);
    out.metrics.push_back({"setup_s", Median(setups), "s",
                           "median of " + std::to_string(setups.size())});
    out.metrics.push_back({"ops_s", t.ops_s, "ops/s",
                           "median of " + std::to_string(kWindows) +
                               " windows, n=" + std::to_string(t.ops)});
    AddWindowedLatencyPair(out.metrics, out.missing, "read", "us", t.read_us);
    AddWindowedLatencyPair(out.metrics, out.missing, "write", "us",
                           t.write_us);
    out.metrics.push_back({"goodput_mb_s", t.goodput_mb_s, "MB/s", ""});
    out.metrics.push_back({"store_ratio", store_ratio, "ratio",
                           "data blocks in use per live user byte"});
    out.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});
    return out;
  }

  Tracing tracing;
  auto env = Setup(args.seed, &tracing);
  std::vector<size_t> positions(env->users.size(), 0);
  Totals untraced =
      RunPhase(*env, args.seconds / 2, &tracing, positions, out);
  LayerReport report({env->node.get()}, &tracing);
  report.Begin();
  const double t0 = NowSec();
  Totals traced = RunPhase(*env, args.seconds / 2, &tracing, positions, out);
  const double traced_s = NowSec() - t0;
  report.End();
  FinalChecks(*env, out);

  ClientObservations obs;
  obs.handshake_ms = HandshakeProbe(*env->node, env->in.users[0],
                                    DeriveSeed(args.seed, "sync.handshake", 0),
                                    kHandshakeProbes);
  obs.seconds = traced_s;
  obs.ops = traced.ops;
  obs.bytes_written = traced.bytes_written;
  obs.untraced_ops_s = untraced.ops_s;
  obs.traced_ops_s = traced.ops_s;
  ProbeInputs probes;
  probes.check_node = env->node.get();
  for (size_t u = 0; u < env->users.size(); ++u) {
    const std::string user = env->in.users[u].public_key().ToKeyNoteString();
    probes.pairs.push_back({user, env->users[u].big.inode});
    for (const Box& b : env->users[u].boxes) {
      probes.pairs.push_back({user, b.fh.inode});
    }
  }
  probes.policy = AdminPolicy(env->in.admin);
  probes.corpus = env->corpus;
  probes.signer = env->in.admin;
  probes.wrap_recipient = env->in.devices[0][0].public_key();
  probes.seed = args.seed;
  out.metrics = report.Metrics(obs, probes);
  if (!args.trace_out.empty() && !report.Dump(args.trace_out)) {
    out.violations.push_back("cannot write span dump " + args.trace_out);
  }
  return out;
}

}  // namespace discfsbench
