// Open-loop overload harness (PR 10): graceful degradation of a DisCFS
// server pushed past saturation, against a large, realistically delegated
// credential corpus.
//
// Corpus: POLICY licenses an admin key; the admin issues blanket
// credentials to a layer of intermediary keys; each intermediary signs
// credentials naming ~100 licensees apiece (1M licensee slots at the
// default 10k credentials), so every authorization decision resolves a
// depth-3 delegation chain through a KeyNote session holding the full
// corpus. The measured reader key appears only in the credentials bound to
// the benchmark files, keeping its delegation graph realistic rather than
// degenerate.
//
// Phases (all rates derived from the median of three closed-loop
// saturation measurements):
//   1. Open-loop sweep at 0.5x / 1x / 2x saturation: fixed offered rate,
//      latency measured from each request's *scheduled* send time (no
//      coordinated omission), with a concurrent control-plane driver
//      submitting fresh credentials throughout. The server sheds data
//      reads at the low watermark while control work rides to the hard
//      admission limit — so control sheds must stay zero even at 2x.
//   2. Deadline phase: a raw-frame client (no local reaper, so late
//      replies are observable) bursts reads carrying a v2 deadline trailer
//      at a single-worker host until queue wait far exceeds the deadline;
//      expired requests must be dropped at dequeue, never executed.
//   3. Handshake flood: 256 half-open connections may not occupy pool
//      workers or queue slots, and a legitimate client must complete its
//      handshake within the timeout while the flood stands.
//
// Output: table on stdout plus BENCH_overload.json (path from argv[1];
// argv[2] caps the credential corpus). Schema in docs/BENCH_SCHEMAS.md,
// enforced by tools/check_bench_schema.py. Self-gates: zero control-plane
// sheds with data sheds engaged at 2x, zero expired requests executed,
// flood survival; p99-at-0.5x and goodput-at-2x gates are enforced on
// hardware with >= 4 cores (same convention as admission_scaling).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/blockdev/blockdev.h"
#include "src/crypto/groups.h"
#include "src/discfs/client.h"
#include "src/discfs/credentials.h"
#include "src/discfs/host.h"
#include "src/ffs/ffs.h"
#include "src/keynote/assertion.h"
#include "src/net/transport.h"
#include "src/nfs/protocol.h"
#include "src/obs/recorder.h"
#include "src/rpc/rpc.h"
#include "src/securechannel/channel.h"
#include "src/util/prng.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

constexpr size_t kLicenseesPerCredential = 100;
constexpr size_t kIntermediaries = 10;
constexpr size_t kFiles = 16;
constexpr uint32_t kReadBytes = 8192;
constexpr double kPhaseSeconds = 2.5;
constexpr double kSaturationSeconds = 1.5;
constexpr size_t kSaturationInflight = 4;
constexpr size_t kSaturationSamples = 3;
constexpr uint32_t kLoadDeadlineMs = 2000;  // liveness bound, not a gate
constexpr double kControlIntervalS = 0.02;  // 50 control-plane ops/s

// Server shape: few workers so saturation is reachable from one process,
// watermarks well above the closed-loop backlog (drivers * inflight) so
// the saturation measurement itself never sheds.
constexpr size_t kWorkerThreads = 2;
constexpr size_t kShedDataWatermark = 48;
constexpr size_t kShedNamespaceWatermark = 96;
constexpr size_t kAdmissionLimit = 192;

// Wide enough that intake of the whole flood (an accept-thread scan that
// can be starved on small machines right after the load phases) fits well
// inside one timeout window, so all 256 connections are half-open at once.
constexpr uint64_t kHandshakeTimeoutMs = 4000;
constexpr size_t kMaxHalfOpen = 512;  // flood stays below the eviction cap
constexpr size_t kFloodConnections = 256;

constexpr uint32_t kExpiryDeadlineMs = 40;
constexpr uint32_t kExpiryReadBytes = 64 << 10;
// An executed request's reply trails its (pre-expiry) dequeue by at most
// one service time plus reply queueing; anything later than this grace
// past the deadline proves expired work was executed.
constexpr double kLateGraceS = 0.25;

constexpr double kP99GateMs = 50.0;
constexpr double kGoodputRatioGate = 0.7;

std::function<Bytes(size_t)> BenchRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#define BENCH_CHECK(cond)                                              \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,    \
                   #cond);                                             \
      std::abort();                                                    \
    }                                                                  \
  } while (0)

bool WaitFor(const std::function<bool()>& cond, double limit_s) {
  double t0 = NowSec();
  while (NowSec() - t0 < limit_s) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

struct LatencySummary {
  double p50_ms = 0;
  double p99_ms = 0;
};

LatencySummary Summarize(std::vector<double> samples_ms) {
  LatencySummary s;
  if (samples_ms.empty()) {
    return s;
  }
  std::sort(samples_ms.begin(), samples_ms.end());
  s.p50_ms = samples_ms[samples_ms.size() / 2];
  s.p99_ms = samples_ms[std::min(samples_ms.size() - 1,
                                 samples_ms.size() * 99 / 100)];
  return s;
}

// ------------------------------------------------------------ environment

struct Env {
  DsaPrivateKey admin;
  DsaPrivateKey server_key;
  DsaPrivateKey reader;
  std::vector<DsaPrivateKey> intermediaries;
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<DiscfsHost> host;
  std::unique_ptr<DiscfsClient> owner;
  std::vector<NfsFh> files;
};

Env StartEnv() {
  Env env{DsaPrivateKey::Generate(Dsa512(), BenchRand(1)),
          DsaPrivateKey::Generate(Dsa512(), BenchRand(2)),
          DsaPrivateKey::Generate(Dsa512(), BenchRand(3))};
  for (size_t i = 0; i < kIntermediaries; ++i) {
    env.intermediaries.push_back(
        DsaPrivateKey::Generate(Dsa512(), BenchRand(100 + i)));
  }

  auto dev = std::make_shared<MemBlockDevice>(16384, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{4096});
  BENCH_CHECK(fs.ok());
  env.vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = env.server_key;
  config.rand_bytes = BenchRand(10);
  config.policy_assertions.push_back(
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + env.admin.public_key().ToKeyNoteString() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n");

  DiscfsHostOptions options;
  options.worker_threads = kWorkerThreads;
  options.max_inflight_per_conn = 256;
  options.send_queue_limit = 256;
  options.admission_queue_limit = kAdmissionLimit;
  options.shed_data_watermark = kShedDataWatermark;
  options.shed_namespace_watermark = kShedNamespaceWatermark;
  options.handshake_timeout_ms = kHandshakeTimeoutMs;
  options.max_half_open_handshakes = kMaxHalfOpen;
  auto host = DiscfsHost::Start(env.vfs, std::move(config), /*port=*/0,
                                std::move(options));
  BENCH_CHECK(host.ok());
  env.host = std::move(host).value();

  auto owner = DiscfsClient::Connect(
      "127.0.0.1", env.host->port(),
      ChannelIdentity{env.admin, BenchRand(20)},
      env.server_key.public_key());
  BENCH_CHECK(owner.ok());
  env.owner = std::move(owner).value();

  auto root = env.owner->Attach();
  BENCH_CHECK(root.ok());
  Bytes payload = LockedPrngBytes(42)(kReadBytes);
  for (size_t i = 0; i < kFiles; ++i) {
    auto created = env.owner->CreateWithCredential(
        root->fh, "load_" + std::to_string(i), 0644);
    BENCH_CHECK(created.ok());
    BENCH_CHECK(env.owner->nfs().Write(created->attr.fh, 0, payload).ok());
    env.files.push_back(created->attr.fh);
  }
  return env;
}

// ----------------------------------------------------------------- corpus

struct Corpus {
  std::vector<std::string> texts;
  size_t principals = 0;
  double sign_s = 0;
  double submit_s = 0;
};

Corpus BuildCorpus(const Env& env, size_t credentials) {
  Corpus corpus;
  const size_t inters = env.intermediaries.size();
  corpus.texts.resize(inters + credentials);
  double t0 = NowSec();

  // Admin -> intermediary: blanket (handle-free) delegations.
  for (size_t i = 0; i < inters; ++i) {
    auto cred = IssueCredential(env.admin,
                                env.intermediaries[i].public_key(),
                                /*handle=*/"", CredentialOptions{});
    BENCH_CHECK(cred.ok());
    corpus.texts[i] = std::move(cred).value();
  }

  // Intermediary -> licensees: the bulk of the corpus. The first kFiles
  // credentials bind the benchmark files and include the reader key; the
  // rest name synthetic handles and synthetic principals only.
  const std::string reader = env.reader.public_key().ToKeyNoteString();
  const size_t threads =
      std::min<size_t>(8, std::max<size_t>(
          1, std::thread::hardware_concurrency()));
  std::vector<std::thread> signers;
  for (size_t t = 0; t < threads; ++t) {
    signers.emplace_back([&, t] {
      for (size_t k = t; k < credentials; k += threads) {
        const DsaPrivateKey& inter = env.intermediaries[k % inters];
        std::string licensees;
        licensees.reserve(kLicenseesPerCredential * 12);
        size_t synthetic = kLicenseesPerCredential;
        if (k < env.files.size()) {
          licensees += "\"" + reader + "\"";
          --synthetic;
        }
        for (size_t j = 0; j < synthetic; ++j) {
          if (!licensees.empty()) {
            licensees += " || ";
          }
          licensees +=
              "\"u" + std::to_string(k * kLicenseesPerCredential + j) + "\"";
        }
        const uint32_t handle = k < env.files.size()
                                    ? env.files[k].inode
                                    : static_cast<uint32_t>(10'000'000 + k);
        auto cred =
            keynote::AssertionBuilder()
                .SetAuthorizer(inter.public_key().ToKeyNoteString())
                .SetLicensees(licensees)
                .SetConditions(BuildConditions(std::to_string(handle),
                                               CredentialOptions{}))
                .SetComment("overload corpus " + std::to_string(k))
                .Sign(inter, keynote::SignatureAlgorithm::kDsaSha1);
        BENCH_CHECK(cred.ok());
        corpus.texts[inters + k] = std::move(cred).value();
      }
    });
  }
  for (std::thread& t : signers) {
    t.join();
  }
  corpus.sign_s = NowSec() - t0;
  corpus.principals = credentials * kLicenseesPerCredential;
  return corpus;
}

void SubmitCorpus(Env& env, Corpus& corpus) {
  double t0 = NowSec();
  constexpr size_t kBatch = 500;
  for (size_t off = 0; off < corpus.texts.size(); off += kBatch) {
    std::vector<std::string> chunk(
        corpus.texts.begin() + off,
        corpus.texts.begin() +
            std::min(off + kBatch, corpus.texts.size()));
    auto results = env.owner->SubmitCredentials(chunk);
    BENCH_CHECK(results.ok());
    for (const auto& r : *results) {
      BENCH_CHECK(r.ok());
    }
  }
  corpus.submit_s = NowSec() - t0;
}

// -------------------------------------------------------------- open loop

Bytes ReadArgs(const NfsFh& fh, uint32_t count) {
  XdrWriter w;
  WriteFh(w, fh);
  w.PutU64(0);
  w.PutU32(count);
  return w.Take();
}

struct DriverStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other = 0;
  std::vector<double> latencies_ms;
};

void Account(std::future<Result<Bytes>>& future, double sched,
             DriverStats& stats) {
  Result<Bytes> res = future.get();
  if (res.ok()) {
    ++stats.ok;
    stats.latencies_ms.push_back((NowSec() - sched) * 1e3);
    return;
  }
  switch (res.status().code()) {
    case StatusCode::kResourceExhausted:
      ++stats.shed;
      break;
    case StatusCode::kDeadlineExceeded:
      ++stats.deadline_exceeded;
      break;
    default:
      ++stats.other;
      break;
  }
}

// Fixed-rate generator: requests are issued at t0 + i/rate regardless of
// completions (catching up without delay when behind), and latency runs
// from the scheduled time — the open-loop discipline that makes overload
// visible instead of silently throttling the load like a closed loop.
void OpenLoopDriver(RpcClient& client, const std::vector<NfsFh>& files,
                    double rate, double duration_s, size_t seed,
                    DriverStats& stats) {
  struct Pending {
    std::future<Result<Bytes>> future;
    double sched;
  };
  std::deque<Pending> window;
  const double interval = 1.0 / rate;
  const double t0 = NowSec();
  size_t i = 0;
  size_t file_idx = seed;
  while (true) {
    const double sched = t0 + static_cast<double>(i) * interval;
    if (sched >= t0 + duration_s) {
      break;
    }
    const double now = NowSec();
    if (sched > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(sched - now));
    }
    const NfsFh& fh = files[file_idx++ % files.size()];
    window.push_back(
        {client.CallAsyncWithDeadline(kNfsProgram,
                                      static_cast<uint32_t>(NfsProc::kRead),
                                      ReadArgs(fh, kReadBytes),
                                      kLoadDeadlineMs),
         sched});
    ++stats.sent;
    ++i;
    while (!window.empty() &&
           window.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      Account(window.front().future, window.front().sched, stats);
      window.pop_front();
    }
  }
  for (Pending& p : window) {
    Account(p.future, p.sched, stats);
  }
}

struct ControlStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
};

// Control-plane traffic riding alongside the data load: a fresh, unique
// credential submitted every kControlIntervalS. These are kControl
// priority on the server and must never shed below the hard limit.
void ControlDriver(DiscfsClient& owner, const DsaPrivateKey& admin,
                   std::atomic<bool>& stop, std::atomic<uint64_t>& counter,
                   ControlStats& stats) {
  while (!stop.load(std::memory_order_relaxed)) {
    const uint64_t n = counter.fetch_add(1);
    auto cred = keynote::AssertionBuilder()
                    .SetAuthorizer(admin.public_key().ToKeyNoteString())
                    .SetLicensees("\"ctrl-u" + std::to_string(n) + "\"")
                    .SetConditions(BuildConditions("", CredentialOptions{}))
                    .Sign(admin, keynote::SignatureAlgorithm::kDsaSha1);
    BENCH_CHECK(cred.ok());
    ++stats.sent;
    if (owner.SubmitCredential(*cred).ok()) {
      ++stats.ok;
    } else {
      ++stats.errors;
    }
    const double until = NowSec() + kControlIntervalS;
    while (!stop.load(std::memory_order_relaxed) && NowSec() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

struct ShedSnapshot {
  uint64_t control = 0;
  uint64_t ns = 0;
  uint64_t data = 0;
  uint64_t expired = 0;
};

ShedSnapshot Snap(obs::RpcRecorder& rec) {
  return {rec.shed_total(0), rec.shed_total(1), rec.shed_total(2),
          rec.expired_total()};
}

double MeasureSaturation(std::vector<std::unique_ptr<RpcClient>>& clients,
                         const std::vector<NfsFh>& files) {
  std::atomic<uint64_t> ops{0};
  const double t0 = NowSec();
  std::vector<std::thread> drivers;
  for (size_t d = 0; d < clients.size(); ++d) {
    drivers.emplace_back([&, d] {
      std::deque<std::future<Result<Bytes>>> window;
      size_t file_idx = d;
      while (NowSec() - t0 < kSaturationSeconds) {
        while (window.size() < kSaturationInflight) {
          const NfsFh& fh = files[file_idx++ % files.size()];
          window.push_back(clients[d]->CallAsyncWithDeadline(
              kNfsProgram, static_cast<uint32_t>(NfsProc::kRead),
              ReadArgs(fh, kReadBytes), kLoadDeadlineMs));
        }
        Result<Bytes> res = window.front().get();
        window.pop_front();
        BENCH_CHECK(res.ok());
        ops.fetch_add(1);
      }
      for (auto& f : window) {
        if (f.get().ok()) {
          ops.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : drivers) {
    t.join();
  }
  return static_cast<double>(ops.load()) / (NowSec() - t0);
}

struct PhaseResult {
  double offered_x = 0;
  double offered_ops_s = 0;
  double duration_s = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other_errors = 0;
  double goodput_ops_s = 0;
  LatencySummary latency;
  uint64_t control_sent = 0;
  uint64_t control_ok = 0;
  uint64_t control_errors = 0;
  uint64_t shed_control = 0;
  uint64_t shed_namespace = 0;
  uint64_t shed_data = 0;
};

PhaseResult RunPhase(Env& env,
                     std::vector<std::unique_ptr<RpcClient>>& clients,
                     double offered_x, double offered_total,
                     std::atomic<uint64_t>& control_counter) {
  PhaseResult phase;
  phase.offered_x = offered_x;
  phase.offered_ops_s = offered_total;
  obs::RpcRecorder& rec = env.host->server().recorder();
  const ShedSnapshot before = Snap(rec);

  std::atomic<bool> stop_control{false};
  ControlStats cstats;
  std::thread control([&] {
    ControlDriver(*env.owner, env.admin, stop_control, control_counter,
                  cstats);
  });

  std::vector<DriverStats> stats(clients.size());
  const double per_driver = offered_total / clients.size();
  const double t0 = NowSec();
  std::vector<std::thread> drivers;
  for (size_t d = 0; d < clients.size(); ++d) {
    drivers.emplace_back([&, d] {
      OpenLoopDriver(*clients[d], env.files, per_driver, kPhaseSeconds, d,
                     stats[d]);
    });
  }
  for (std::thread& t : drivers) {
    t.join();
  }
  phase.duration_s = NowSec() - t0;
  stop_control.store(true);
  control.join();

  const ShedSnapshot after = Snap(rec);
  phase.shed_control = after.control - before.control;
  phase.shed_namespace = after.ns - before.ns;
  phase.shed_data = after.data - before.data;

  std::vector<double> all;
  for (DriverStats& s : stats) {
    phase.sent += s.sent;
    phase.ok += s.ok;
    phase.shed += s.shed;
    phase.deadline_exceeded += s.deadline_exceeded;
    phase.other_errors += s.other;
    all.insert(all.end(), s.latencies_ms.begin(), s.latencies_ms.end());
  }
  phase.goodput_ops_s = phase.ok / phase.duration_s;
  phase.latency = Summarize(std::move(all));
  phase.control_sent = cstats.sent;
  phase.control_ok = cstats.ok;
  phase.control_errors = cstats.errors;
  return phase;
}

// --------------------------------------------------------- deadline phase

Bytes EncodeReadCall(uint32_t xid, const NfsFh& fh, uint32_t count,
                     uint32_t deadline_ms) {
  XdrWriter w;
  w.PutU32(xid);
  w.PutU32(0);  // type = call
  w.PutU32(kNfsProgram);
  w.PutU32(static_cast<uint32_t>(NfsProc::kRead));
  w.PutOpaque(ReadArgs(fh, count));
  if (deadline_ms != 0) {
    w.PutU32(kRpcTraceMagic);
    w.PutU32(kRpcDeadlineVersion);
    w.PutU64(0);  // untraced
    w.PutU32(deadline_ms);
  }
  return w.Take();
}

struct RawReply {
  uint32_t xid = 0;
  uint32_t status = 0;
};

RawReply DecodeReplyHeader(const Bytes& frame) {
  XdrReader r(frame);
  RawReply out;
  auto xid = r.GetU32();
  auto type = r.GetU32();
  auto status = r.GetU32();
  BENCH_CHECK(xid.ok() && type.ok() && status.ok());
  BENCH_CHECK(*type == 1);
  out.xid = *xid;
  out.status = *status;
  return out;
}

struct DeadlineResult {
  uint32_t deadline_ms = kExpiryDeadlineMs;
  double per_op_us = 0;
  uint64_t burst = 0;
  uint64_t ok = 0;
  uint64_t expired_replies = 0;
  uint64_t other_errors = 0;
  uint64_t late_ok = 0;
  uint64_t server_expired_dropped = 0;
};

// A single-worker host, no shedding: a burst far larger than
// deadline/service_time must see its tail expire at dequeue. The client
// sends raw frames and keeps no reaper, so an executed-after-expiry
// request would surface as an OK reply long past its deadline — the
// "zero expired requests executed" gate needs that visibility, which
// RpcClient's local reaper would mask.
DeadlineResult RunDeadlinePhase() {
  DeadlineResult out;
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), BenchRand(60));
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), BenchRand(61));

  auto dev = std::make_shared<MemBlockDevice>(16384, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{4096});
  BENCH_CHECK(fs.ok());
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = BenchRand(62);
  config.policy_assertions.push_back(
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + admin.public_key().ToKeyNoteString() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n");

  DiscfsHostOptions options;
  options.worker_threads = 1;
  options.max_inflight_per_conn = 4096;
  auto host = DiscfsHost::Start(vfs, std::move(config), /*port=*/0,
                                std::move(options));
  BENCH_CHECK(host.ok());

  auto owner = DiscfsClient::Connect(
      "127.0.0.1", (*host)->port(), ChannelIdentity{admin, BenchRand(63)},
      server_key.public_key());
  BENCH_CHECK(owner.ok());
  auto root = (*owner)->Attach();
  BENCH_CHECK(root.ok());
  auto created = (*owner)->CreateWithCredential(root->fh, "big", 0644);
  BENCH_CHECK(created.ok());
  BENCH_CHECK((*owner)
                  ->nfs()
                  .Write(created->attr.fh, 0,
                         LockedPrngBytes(64)(kExpiryReadBytes))
                  .ok());
  const NfsFh fh = created->attr.fh;

  auto transport = TcpTransport::Connect("127.0.0.1", (*host)->port());
  BENCH_CHECK(transport.ok());
  auto channel = SecureChannel::ClientHandshake(
      std::move(transport).value(), ChannelIdentity{admin, BenchRand(65)},
      server_key.public_key());
  BENCH_CHECK(channel.ok());
  SecureChannel& raw = **channel;

  // Serial calibration: service time of one read, deadline-free.
  constexpr size_t kCalibration = 32;
  double t0 = NowSec();
  for (uint32_t i = 0; i < kCalibration; ++i) {
    BENCH_CHECK(raw.Send(EncodeReadCall(1 + i, fh, kExpiryReadBytes, 0)).ok());
    auto reply = raw.Recv();
    BENCH_CHECK(reply.ok());
    BENCH_CHECK(DecodeReplyHeader(*reply).status == 0);
  }
  const double per_op = (NowSec() - t0) / kCalibration;
  out.per_op_us = per_op * 1e6;

  // Burst sized so the single worker's backlog is ~12x the deadline: the
  // head executes in time, the tail must expire at dequeue.
  const double backlog_s = 12.0 * kExpiryDeadlineMs * 1e-3;
  out.burst = std::min<uint64_t>(
      3072, std::max<uint64_t>(
                192, static_cast<uint64_t>(backlog_s / per_op)));

  std::vector<double> sent_at(out.burst + 1000, 0);
  for (uint64_t k = 0; k < out.burst; ++k) {
    const uint32_t xid = static_cast<uint32_t>(1000 + k);
    Bytes frame = EncodeReadCall(xid, fh, kExpiryReadBytes,
                                 kExpiryDeadlineMs);
    sent_at[xid - 1000] = NowSec();
    BENCH_CHECK(raw.Send(frame).ok());
  }
  for (uint64_t k = 0; k < out.burst; ++k) {
    auto reply = raw.Recv();
    BENCH_CHECK(reply.ok());
    const RawReply decoded = DecodeReplyHeader(*reply);
    BENCH_CHECK(decoded.xid >= 1000 && decoded.xid < 1000 + out.burst);
    const double elapsed = NowSec() - sent_at[decoded.xid - 1000];
    if (decoded.status == 0) {
      ++out.ok;
      if (elapsed > kExpiryDeadlineMs * 1e-3 + kLateGraceS) {
        ++out.late_ok;
      }
    } else if (decoded.status ==
               static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
      ++out.expired_replies;
    } else {
      ++out.other_errors;
    }
  }
  out.server_expired_dropped =
      (*host)->server().recorder().expired_total();
  (*owner)->Close();
  return out;
}

// --------------------------------------------------------- flood phase

struct FloodResult {
  size_t flood_connections = kFloodConnections;
  size_t peak_half_open = 0;
  size_t pool_queue_peak = 0;
  size_t pool_inflight_peak = 0;
  bool legit_ok = false;
  double legit_handshake_ms = 0;
  uint64_t timed_out = 0;
  uint64_t evicted = 0;
  uint64_t completed = 0;
  bool drained = false;
};

FloodResult RunFloodPhase(Env& env) {
  FloodResult out;
  // Let the load phases fully drain so the pool-peak samples below
  // measure the flood, not a straggling request.
  BENCH_CHECK(WaitFor(
      [&] { return env.host->queue_depth() == 0 && env.host->inflight() == 0; },
      10.0));
  const HandshakeReactor::Stats base = env.host->handshake_stats();

  std::vector<std::unique_ptr<TcpTransport>> flood;
  for (size_t i = 0; i < kFloodConnections; ++i) {
    auto conn = TcpTransport::Connect("127.0.0.1", env.host->port());
    BENCH_CHECK(conn.ok());
    flood.push_back(std::move(conn).value());
  }
  BENCH_CHECK(WaitFor(
      [&] {
        const size_t half_open = env.host->handshake_stats().half_open;
        out.peak_half_open = std::max(out.peak_half_open, half_open);
        return half_open >= kFloodConnections;
      },
      15.0));

  // While only the flood stands, the pool must be untouched: half-open
  // handshakes live on the event loop, never on workers. (Sampling stops
  // before the legitimate client connects — its own RPCs use the pool.)
  for (int i = 0; i < 20; ++i) {
    out.pool_queue_peak =
        std::max(out.pool_queue_peak, env.host->queue_depth());
    out.pool_inflight_peak =
        std::max(out.pool_inflight_peak, env.host->inflight());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double t0 = NowSec();
  auto legit = DiscfsClient::Connect(
      "127.0.0.1", env.host->port(),
      ChannelIdentity{env.reader, BenchRand(90)},
      env.server_key.public_key());
  out.legit_handshake_ms = (NowSec() - t0) * 1e3;
  out.legit_ok = legit.ok() && (*legit)->ServerInfo().ok();

  out.drained = WaitFor(
      [&] { return env.host->handshake_stats().half_open == 0; },
      kHandshakeTimeoutMs * 1e-3 + 5.0);
  const HandshakeReactor::Stats end = env.host->handshake_stats();
  out.timed_out = end.timed_out - base.timed_out;
  out.evicted = end.evicted - base.evicted;
  out.completed = end.completed - base.completed;
  if (legit.ok()) {
    (*legit)->Close();
  }
  return out;
}

// ------------------------------------------------------------------ output

void WriteJson(std::FILE* f, const Corpus& corpus, size_t credentials,
               double saturation, const std::vector<PhaseResult>& phases,
               double goodput_ratio_2x, const DeadlineResult& dl,
               const FloodResult& fl, bool load_gates_enforced) {
  std::fprintf(f, "{\n  \"bench\": \"overload\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f,
               "  \"corpus\": {\"credentials\": %zu, \"principals\": %zu, "
               "\"intermediaries\": %zu, \"delegation_depth\": 3, "
               "\"files\": %zu, \"read_bytes\": %u, \"sign_s\": %.2f, "
               "\"submit_s\": %.2f},\n",
               credentials, corpus.principals, kIntermediaries, kFiles,
               kReadBytes, corpus.sign_s, corpus.submit_s);
  std::fprintf(f, "  \"saturation_ops_s\": %.0f,\n", saturation);
  std::fprintf(f, "  \"phases\": [\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    std::fprintf(
        f,
        "    {\"offered_x\": %.1f, \"offered_ops_s\": %.0f, "
        "\"duration_s\": %.2f, \"sent\": %llu, \"ok\": %llu, "
        "\"shed\": %llu, \"deadline_exceeded\": %llu, "
        "\"other_errors\": %llu, \"goodput_ops_s\": %.0f, "
        "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"control_sent\": %llu, "
        "\"control_ok\": %llu, \"control_errors\": %llu, "
        "\"shed_control\": %llu, \"shed_namespace\": %llu, "
        "\"shed_data\": %llu}%s\n",
        p.offered_x, p.offered_ops_s, p.duration_s,
        static_cast<unsigned long long>(p.sent),
        static_cast<unsigned long long>(p.ok),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.deadline_exceeded),
        static_cast<unsigned long long>(p.other_errors), p.goodput_ops_s,
        p.latency.p50_ms, p.latency.p99_ms,
        static_cast<unsigned long long>(p.control_sent),
        static_cast<unsigned long long>(p.control_ok),
        static_cast<unsigned long long>(p.control_errors),
        static_cast<unsigned long long>(p.shed_control),
        static_cast<unsigned long long>(p.shed_namespace),
        static_cast<unsigned long long>(p.shed_data),
        i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"sub_saturation_p99_ms\": %.2f,\n",
               phases[0].latency.p99_ms);
  std::fprintf(f, "  \"goodput_ratio_2x\": %.3f,\n", goodput_ratio_2x);
  std::fprintf(
      f,
      "  \"deadline\": {\"deadline_ms\": %u, \"per_op_us\": %.1f, "
      "\"burst\": %llu, \"ok\": %llu, \"expired_replies\": %llu, "
      "\"other_errors\": %llu, \"late_ok\": %llu, "
      "\"server_expired_dropped\": %llu},\n",
      dl.deadline_ms, dl.per_op_us,
      static_cast<unsigned long long>(dl.burst),
      static_cast<unsigned long long>(dl.ok),
      static_cast<unsigned long long>(dl.expired_replies),
      static_cast<unsigned long long>(dl.other_errors),
      static_cast<unsigned long long>(dl.late_ok),
      static_cast<unsigned long long>(dl.server_expired_dropped));
  std::fprintf(
      f,
      "  \"handshake_flood\": {\"flood_connections\": %zu, "
      "\"peak_half_open\": %zu, \"pool_queue_peak\": %zu, "
      "\"pool_inflight_peak\": %zu, \"legit_ok\": %s, "
      "\"legit_handshake_ms\": %.1f, \"timeout_ms\": %llu, "
      "\"timed_out\": %llu, \"evicted\": %llu, \"completed\": %llu, "
      "\"drained\": %s},\n",
      fl.flood_connections, fl.peak_half_open, fl.pool_queue_peak,
      fl.pool_inflight_peak, fl.legit_ok ? "true" : "false",
      fl.legit_handshake_ms,
      static_cast<unsigned long long>(kHandshakeTimeoutMs),
      static_cast<unsigned long long>(fl.timed_out),
      static_cast<unsigned long long>(fl.evicted),
      static_cast<unsigned long long>(fl.completed),
      fl.drained ? "true" : "false");
  std::fprintf(f, "  \"load_gates_enforced\": %s\n",
               load_gates_enforced ? "true" : "false");
  std::fprintf(f, "}\n");
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_overload.json";
  size_t credentials = 10000;
  if (argc > 2) {
    credentials = static_cast<size_t>(std::atoll(argv[2]));
  }
  credentials = std::max(credentials, kFiles + 10);

  const size_t hw = std::thread::hardware_concurrency();
  // Latency/goodput gates are hardware-sensitive (the open-loop drivers,
  // client demux threads, and the server share the cores); structural
  // gates below are always enforced.
  const bool load_gates_enforced = hw >= 4;
  const size_t drivers = hw >= 8 ? 8 : 4;

  std::printf("== Graceful overload: policy-aware shedding under "
              "open-loop load (%zu credentials, %zu-way delegation "
              "fan-out, %zu drivers, %zu workers) ==\n",
              credentials, kLicenseesPerCredential, drivers,
              kWorkerThreads);

  Env env = StartEnv();
  Corpus corpus = BuildCorpus(env, credentials);
  SubmitCorpus(env, corpus);
  std::printf("corpus: %zu credentials (%zu principals) signed in %.1fs, "
              "submitted in %.1fs\n",
              credentials, corpus.principals, corpus.sign_s,
              corpus.submit_s);

  std::vector<std::unique_ptr<RpcClient>> clients;
  for (size_t d = 0; d < drivers; ++d) {
    auto transport = TcpTransport::Connect("127.0.0.1", env.host->port());
    BENCH_CHECK(transport.ok());
    auto channel = SecureChannel::ClientHandshake(
        std::move(transport).value(),
        ChannelIdentity{env.reader, BenchRand(30 + d)},
        env.server_key.public_key());
    BENCH_CHECK(channel.ok());
    clients.push_back(
        std::make_unique<RpcClient>(std::move(channel).value()));
  }
  // Warm the per-(principal, handle) policy cache — and prove the corpus
  // admits the reader through the full depth-3 chain on every file.
  for (auto& client : clients) {
    for (const NfsFh& fh : env.files) {
      auto res = client
                     ->CallAsyncWithDeadline(
                         kNfsProgram,
                         static_cast<uint32_t>(NfsProc::kRead),
                         ReadArgs(fh, kReadBytes), 10000)
                     .get();
      BENCH_CHECK(res.ok());
    }
  }

  // One closed-loop sample is noisy enough on a shared VM to fail the 2x
  // goodput gate by itself; the median of three sets every rate below.
  double samples[kSaturationSamples];
  for (double& sample : samples) {
    sample = MeasureSaturation(clients, env.files);
  }
  std::sort(std::begin(samples), std::end(samples));
  const double saturation = samples[kSaturationSamples / 2];
  std::printf("saturation (closed loop, %zu x %zu in flight, median of "
              "%.0f / %.0f / %.0f): %.0f ops/s\n",
              drivers, kSaturationInflight, samples[0], samples[1], samples[2],
              saturation);

  std::printf("%-9s %10s %10s %10s %10s %10s %10s %8s %8s\n", "offered",
              "sent", "ok", "shed", "goodput/s", "p50 ms", "p99 ms",
              "ctrl ok", "ctrlshed");
  std::vector<PhaseResult> phases;
  std::atomic<uint64_t> control_counter{0};
  for (double x : {0.5, 1.0, 2.0}) {
    PhaseResult phase =
        RunPhase(env, clients, x, x * saturation, control_counter);
    std::printf("%-9.1f %10llu %10llu %10llu %10.0f %10.2f %10.2f "
                "%8llu %8llu\n",
                phase.offered_x,
                static_cast<unsigned long long>(phase.sent),
                static_cast<unsigned long long>(phase.ok),
                static_cast<unsigned long long>(phase.shed),
                phase.goodput_ops_s, phase.latency.p50_ms,
                phase.latency.p99_ms,
                static_cast<unsigned long long>(phase.control_ok),
                static_cast<unsigned long long>(phase.shed_control));
    std::fflush(stdout);
    phases.push_back(std::move(phase));
  }
  const double goodput_ratio_2x =
      saturation > 0 ? phases[2].goodput_ops_s / saturation : 0;

  for (auto& client : clients) {
    client->Close();
  }

  DeadlineResult dl = RunDeadlinePhase();
  std::printf("deadline: burst %llu at %.0fus/op, deadline %ums -> "
              "%llu ok, %llu expired at dequeue (server dropped %llu), "
              "%llu late ok\n",
              static_cast<unsigned long long>(dl.burst), dl.per_op_us,
              dl.deadline_ms, static_cast<unsigned long long>(dl.ok),
              static_cast<unsigned long long>(dl.expired_replies),
              static_cast<unsigned long long>(dl.server_expired_dropped),
              static_cast<unsigned long long>(dl.late_ok));

  FloodResult fl = RunFloodPhase(env);
  std::printf("flood: %zu half-open, pool queue peak %zu, inflight peak "
              "%zu, legit handshake %.0fms (%s), %llu timed out\n",
              fl.peak_half_open, fl.pool_queue_peak, fl.pool_inflight_peak,
              fl.legit_handshake_ms, fl.legit_ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(fl.timed_out));

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  WriteJson(f, corpus, credentials, saturation, phases, goodput_ratio_2x,
            dl, fl, load_gates_enforced);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // --- self-gates ---
  int failures = 0;
  uint64_t other = 0, control_errors = 0, control_sheds = 0;
  for (const PhaseResult& p : phases) {
    other += p.other_errors;
    control_errors += p.control_errors;
    control_sheds += p.shed_control;
  }
  if (other != 0 || control_errors != 0) {
    std::fprintf(stderr, "FAIL: %llu unexpected data errors, %llu "
                 "control errors\n",
                 static_cast<unsigned long long>(other),
                 static_cast<unsigned long long>(control_errors));
    ++failures;
  }
  if (control_sheds != 0) {
    std::fprintf(stderr, "FAIL: %llu control-plane ops shed (must ride "
                 "through to the hard limit)\n",
                 static_cast<unsigned long long>(control_sheds));
    ++failures;
  }
  if (phases[2].shed_data == 0) {
    std::fprintf(stderr, "FAIL: no data sheds at 2x offered load — "
                 "overload never engaged the watermark\n");
    ++failures;
  }
  if (dl.server_expired_dropped == 0 || dl.expired_replies == 0) {
    std::fprintf(stderr, "FAIL: deadline burst expired nothing "
                 "(server dropped %llu, client saw %llu)\n",
                 static_cast<unsigned long long>(dl.server_expired_dropped),
                 static_cast<unsigned long long>(dl.expired_replies));
    ++failures;
  }
  if (dl.late_ok != 0 || dl.other_errors != 0) {
    std::fprintf(stderr, "FAIL: %llu expired requests were executed "
                 "anyway (late OK replies), %llu other errors\n",
                 static_cast<unsigned long long>(dl.late_ok),
                 static_cast<unsigned long long>(dl.other_errors));
    ++failures;
  }
  if (fl.pool_queue_peak != 0 || fl.pool_inflight_peak != 0) {
    std::fprintf(stderr, "FAIL: handshake flood reached the worker pool "
                 "(queue peak %zu, inflight peak %zu)\n",
                 fl.pool_queue_peak, fl.pool_inflight_peak);
    ++failures;
  }
  if (!fl.legit_ok || fl.legit_handshake_ms >= kHandshakeTimeoutMs) {
    std::fprintf(stderr, "FAIL: legitimate handshake during flood: %s in "
                 "%.0fms (timeout %llums)\n",
                 fl.legit_ok ? "ok" : "failed", fl.legit_handshake_ms,
                 static_cast<unsigned long long>(kHandshakeTimeoutMs));
    ++failures;
  }
  if (!fl.drained || fl.peak_half_open < kFloodConnections) {
    std::fprintf(stderr, "FAIL: flood tracking (peak half-open %zu, "
                 "drained %d)\n",
                 fl.peak_half_open, fl.drained ? 1 : 0);
    ++failures;
  }
  if (load_gates_enforced) {
    if (phases[0].latency.p99_ms > kP99GateMs) {
      std::fprintf(stderr, "FAIL: p99 at 0.5x saturation %.2fms > %.0fms\n",
                   phases[0].latency.p99_ms, kP99GateMs);
      ++failures;
    }
    if (goodput_ratio_2x < kGoodputRatioGate) {
      std::fprintf(stderr, "FAIL: goodput under 2x overload is %.2fx "
                   "saturation (< %.2f)\n",
                   goodput_ratio_2x, kGoodputRatioGate);
      ++failures;
    }
  } else {
    std::printf("note: %zu hardware threads — p99/goodput gates recorded "
                "but not enforced\n", hw);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
