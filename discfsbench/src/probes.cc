#include "discfsbench/src/probes.h"

#include "discfsbench/src/inputs.h"

#include <algorithm>
#include <set>
#include <thread>

#include "src/crypto/aead.h"
#include "src/crypto/dh.h"
#include "src/crypto/groups.h"
#include "src/crypto/keywrap.h"
#include "src/crypto/sha.h"
#include "src/discfs/action_env.h"
#include "src/discfs/protocol.h"
#include "src/keynote/lattice.h"
#include "src/keynote/session.h"
#include "src/nfs/protocol.h"
#include "src/util/clock.h"
#include "src/util/prng.h"
#include "src/util/strings.h"

namespace discfsbench {

using discfs::Bytes;
using discfs::obs::Histogram;
using discfs::obs::MonotonicNanos;

namespace {

constexpr const char* kSpans[] = {"decode", "queue_wait", "execute", "reply"};
constexpr const char* kClasses[] = {"control", "namespace", "data"};
constexpr uint32_t kLockboxPut =
    static_cast<uint32_t>(discfs::DiscfsProc::kPutLockbox);
constexpr uint32_t kLockboxGet =
    static_cast<uint32_t>(discfs::DiscfsProc::kGetLockbox);

uint64_t Key(uint32_t prog, uint32_t proc) {
  return static_cast<uint64_t>(prog) << 32 | proc;
}

// Every procedure the recorder may have seen: NFS, DisCFS, cluster.
std::vector<std::pair<uint32_t, uint32_t>> AllProcs() {
  std::vector<std::pair<uint32_t, uint32_t>> procs;
  for (uint32_t p = 0; p <= 18; ++p) procs.push_back({discfs::kNfsProgram, p});
  for (uint32_t p = 1; p <= 13; ++p) {
    procs.push_back({discfs::kDiscfsProgram, p});
  }
  for (uint32_t p = 1; p <= 4; ++p) procs.push_back({200391, p});
  return procs;
}

// Shed class of a procedure, mirroring the server's priority map
// (docs/OVERLOAD.md): 0 control, 1 namespace, 2 data.
size_t ProcClass(uint32_t prog, uint32_t proc) {
  if (prog == discfs::kNfsProgram) {
    static const std::set<uint32_t> data = {0, 1, 5, 6, 8, 16, 17};
    return data.count(proc) != 0 ? 2 : 1;
  }
  if (prog == discfs::kDiscfsProgram) {
    static const std::set<uint32_t> control = {1, 2, 3, 7, 8, 13};
    if (control.count(proc) != 0) return 0;
    return proc == kLockboxPut || proc == kLockboxGet ? 2 : 1;
  }
  return 0;  // cluster coherence
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return PercentileOf(v, q).value;
}

// Mean of fn() over `reps` calls, in microseconds.
template <typename Fn>
double TimeUs(size_t reps, Fn fn) {
  uint64_t t0 = MonotonicNanos();
  for (size_t i = 0; i < reps; ++i) {
    fn(i);
  }
  return static_cast<double>(MonotonicNanos() - t0) / 1e3 /
         static_cast<double>(reps);
}

// Throughput of fn() over `bytes`-sized calls for at least ~8 MiB.
template <typename Fn>
double MbPerSec(size_t bytes, Fn fn) {
  size_t reps = std::max<size_t>(8, (8u << 20) / bytes);
  uint64_t t0 = MonotonicNanos();
  for (size_t i = 0; i < reps; ++i) {
    fn();
  }
  double s = static_cast<double>(MonotonicNanos() - t0) / 1e9;
  return Ratio(static_cast<double>(bytes * reps) / 1e6, s);
}

}  // namespace

LayerReport::LayerReport(std::vector<Node*> nodes, Tracing* tracing)
    : nodes_(std::move(nodes)), tracing_(tracing) {}

LayerSnapshot LayerReport::Take() const {
  LayerSnapshot s;
  s.wall_s = NowSec();
  s.cpu_s = CpuSeconds() - GeneratorCpuSeconds();  // the program alone
  s.wire_bytes = tracing_->wire_bytes.load();
  for (Node* node : nodes_) {
    discfs::DiscfsServer& server = node->server();
    discfs::obs::MetricsRegistry& reg = server.metrics();
    for (auto [prog, proc] : AllProcs()) {
      std::vector<Histogram::Snapshot>& spans = s.rpc[Key(prog, proc)];
      spans.resize(4);
      for (size_t i = 0; i < 4; ++i) {
        Histogram* h = reg.GetHistogram(
            "discfs_rpc_span_ns",
            discfs::StrPrintf("prog=\"%u\",proc=\"%u\",span=\"%s\"", prog,
                              proc, kSpans[i]));
        MergeSnapshot(spans[i], h->TakeSnapshot());
      }
    }
    MergeSnapshot(s.send_queue_depth,
                  reg.GetHistogram("discfs_rpc_send_queue_depth")
                      ->TakeSnapshot());
    s.sheds += server.recorder().shed_total();
    s.expired += server.recorder().expired_total();
    discfs::DiscfsServer::ServerStatsSnapshot stats = server.stats_snapshot();
    s.policy_hits += stats.cache.hits;
    s.policy_misses += stats.cache.misses;
    s.local_bumps += stats.coherence.local_bumps;
    s.remote_bumps += stats.coherence.remote_bumps;
    s.sig_hits += stats.signatures.hits;
    s.sig_misses += stats.signatures.misses;
    s.keynote_queries += server.counters().keynote_queries.load();
    if (discfs::cluster::CoherenceFabric* fabric = node->host->fabric()) {
      discfs::cluster::FabricStats f = fabric->stats();
      s.published += f.published;
      s.applied += f.applied;
      s.duplicates += f.duplicates_skipped;
      s.full_invalidations += f.full_invalidations_applied;
      for (const auto& peer : f.peers) {
        s.connects += peer.connects;
      }
    }
    discfs::ChunkStore::Stats c = server.chunkstore().stats();
    s.chunks.puts += c.puts;
    s.chunks.dedup_hits += c.dedup_hits;
    s.chunks.stored += c.stored;
    s.chunks.removed += c.removed;
    const discfs::BlockCacheStats& bc =
        node->ffs().block_cache()->cache_stats();
    s.cache_hits += bc.hits.load();
    s.cache_misses += bc.misses.load();
    s.evictions += bc.evictions.load();
    s.writebacks += bc.writebacks.load();
    s.readaheads += bc.readaheads.load();
    const DeviceCounters& dc = node->timed_device->counters();
    s.dev_reads += dc.reads.load();
    s.dev_writes += dc.writes.load();
    s.dev_read_ns += dc.read_ns.load();
    s.dev_write_ns += dc.write_ns.load();
    s.dev_foreground_ns += dc.foreground_ns.load();
  }
  return s;
}

void LayerReport::Begin() {
  begin_ = Take();
  std::vector<discfs::DiscfsHost*> hosts;
  for (Node* node : nodes_) {
    hosts.push_back(node->host.get());
  }
  sampler_ = std::make_unique<PoolSampler>(std::move(hosts));
  tracing_->spans.set_enabled(true);
}

void LayerReport::End() {
  tracing_->spans.set_enabled(false);
  threads_ = ThreadCount();
  sampler_->Stop();
  queue_depths_ = sampler_->queue_depths();
  busy_ratio_ = sampler_->busy_ratio();
  sampler_.reset();
  end_ = Take();
}

bool LayerReport::Dump(const std::string& path) const {
  return DumpSpans(tracing_->spans.Collect(), path);
}

std::vector<Metric> LayerReport::Metrics(const ClientObservations& obs,
                                         const ProbeInputs& probes) {
  const LayerSnapshot& a = begin_;
  const LayerSnapshot& b = end_;
  const double ops = static_cast<double>(std::max<uint64_t>(obs.ops, 1));
  const double wall = b.wall_s - a.wall_s;
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    m.push_back({name, value, unit, ""});
  };

  // Spans: client round trips, per-layer self time, Vfs call costs.
  std::vector<Span> spans = tracing_->spans.Collect();
  std::map<std::string, SpanTotals> totals = SelfTimes(spans);
  std::vector<double> roundtrips;
  std::set<uint64_t> nfs_traces;
  for (const Span& s : spans) {
    if (s.depth == kDepthClient) {
      roundtrips.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      if (std::string(s.name).rfind("client.nfs", 0) == 0) {
        nfs_traces.insert(s.trace_id);
      }
    }
  }
  // Vfs time covered inside NFS requests, for nfs.self_us.
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> nfs_ffs;
  for (const Span& s : spans) {
    if (s.depth == kDepthFfs && nfs_traces.count(s.trace_id) != 0) {
      nfs_ffs[s.trace_id].push_back({s.start_ns, s.end_ns});
    }
  }
  double nfs_ffs_ns = 0;
  for (auto& [trace, intervals] : nfs_ffs) {
    nfs_ffs_ns += static_cast<double>(
        CoveredNs(std::move(intervals), 0, ~0ULL));
  }
  // Sum of one SpanTotals field over the span names starting `prefix`.
  auto sum = [&](const std::string& prefix, uint64_t SpanTotals::*field) {
    double total = 0;
    for (const auto& [name, t] : totals) {
      if (name.rfind(prefix, 0) == 0) total += static_cast<double>(t.*field);
    }
    return total;
  };
  auto mean_span_us = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e3 /
                     static_cast<double>(it->second.count);
  };

  // Recorder histograms, differenced over the traced phase.
  std::map<uint64_t, std::vector<Histogram::Snapshot>> rpc;
  for (const auto& [key, after] : b.rpc) {
    const auto& before = a.rpc.at(key);
    for (size_t i = 0; i < 4; ++i) {
      rpc[key].push_back(DiffSnapshot(after[i], before[i]));
    }
  }
  auto exec_mean_us = [&](uint32_t prog, uint32_t proc) {
    return SnapshotMean(rpc[Key(prog, proc)][2]) / 1e3;
  };

  // --- net / securechannel
  add("net.wire_bytes_per_op",
      static_cast<double>(b.wire_bytes - a.wire_bytes) / ops, "B/op");
  add("securechannel.handshake_ms.p50", Quantile(obs.handshake_ms, 0.5), "ms");
  add("securechannel.handshake_ms.p99", Quantile(obs.handshake_ms, 0.99),
      "ms");

  // --- rpc
  add("rpc.client_roundtrip_us.p50", Quantile(roundtrips, 0.5), "us");
  add("rpc.client_roundtrip_us.p99", Quantile(roundtrips, 0.99), "us");
  for (size_t cls = 0; cls < 3; ++cls) {
    for (size_t span = 0; span < 4; ++span) {
      Histogram::Snapshot merged;
      for (const auto& [key, snaps] : rpc) {
        if (ProcClass(static_cast<uint32_t>(key >> 32),
                      static_cast<uint32_t>(key)) == cls) {
          MergeSnapshot(merged, snaps[span]);
        }
      }
      std::string base = std::string("rpc.") + kClasses[cls] + "." +
                         kSpans[span] + "_us";
      add(base + ".p50", merged.Quantile(0.5) / 1e3, "us");
      add(base + ".p99", merged.Quantile(0.99) / 1e3, "us");
    }
  }
  add("rpc.send_queue_depth_p99",
      static_cast<double>(
          DiffSnapshot(b.send_queue_depth, a.send_queue_depth).Quantile(0.99)),
      "count");
  add("rpc.sheds", static_cast<double>(b.sheds - a.sheds), "count");
  add("rpc.expired", static_cast<double>(b.expired - a.expired), "count");

  // --- util
  add("util.pool_queue_depth_p99", Quantile(queue_depths_, 0.99), "count");
  add("util.pool_busy_ratio", busy_ratio_, "ratio");

  // --- discfs
  const double policy_lookups = static_cast<double>(
      (b.policy_hits - a.policy_hits) + (b.policy_misses - a.policy_misses));
  add("discfs.policy_hit_rate",
      Ratio(static_cast<double>(b.policy_hits - a.policy_hits),
            policy_lookups),
      "ratio");
  add("discfs.keynote_queries_per_op",
      static_cast<double>(b.keynote_queries - a.keynote_queries) / ops,
      "count/op");

  // --- discfs probes: EffectiveMask on the workload's own pairs. Each
  // miss sample first pushes the pair out of the 128-entry cache with
  // lookups of principals that hold nothing.
  double hit_us = 0, miss_us = 0;
  size_t hit_n = 0, miss_n = 0;
  if (probes.check_node != nullptr && !probes.pairs.empty()) {
    discfs::DiscfsServer& server = probes.check_node->server();
    size_t samples = std::min<size_t>(probes.pairs.size(), 48);
    for (size_t i = 0; i < samples; ++i) {
      const auto& [principal, inode] =
          probes.pairs[i * probes.pairs.size() / samples];
      for (size_t k = 0; k < 256; ++k) {
        server.EffectiveMask("evict" + std::to_string(k), inode);
      }
      uint64_t misses = server.stats_snapshot().cache.misses;
      uint64_t t0 = MonotonicNanos();
      server.EffectiveMask(principal, inode);
      uint64_t t1 = MonotonicNanos();
      server.EffectiveMask(principal, inode);
      uint64_t t2 = MonotonicNanos();
      if (server.stats_snapshot().cache.misses == misses + 1) {
        miss_us += static_cast<double>(t1 - t0) / 1e3;
        ++miss_n;
      }
      hit_us += static_cast<double>(t2 - t1) / 1e3;
      ++hit_n;
    }
  }
  add("discfs.check_hit_us", Ratio(hit_us, static_cast<double>(hit_n)), "us");
  add("discfs.check_miss_us", Ratio(miss_us, static_cast<double>(miss_n)),
      "us");
  add("discfs.invalidated_per_event",
      Ratio(static_cast<double>((b.local_bumps - a.local_bumps) +
                                (b.remote_bumps - a.remote_bumps)),
            static_cast<double>(b.published - a.published)),
      "count/event");
  add("discfs.submit_execute_us",
      exec_mean_us(discfs::kDiscfsProgram,
                   static_cast<uint32_t>(
                       discfs::DiscfsProc::kSubmitCredential)),
      "us");

  // --- keynote: a standalone session holding the same policy and corpus,
  // asked the server's own question for the workload's pairs.
  double query_us = 0;
  if (!probes.pairs.empty()) {
    discfs::keynote::KeyNoteSession session(
        discfs::keynote::PermissionLattice::Get());
    BENCH_CHECK(session.AddPolicyAssertion(probes.policy).ok());
    for (const std::string& text : probes.corpus) {
      BENCH_CHECK(session.AddCredential(text).ok());
    }
    std::vector<discfs::keynote::ComplianceQuery> queries;
    for (const auto& [principal, inode] : probes.pairs) {
      discfs::keynote::ComplianceQuery q;
      q.attributes = discfs::BuildActionEnv(discfs::NfsProc::kNull, inode, 0,
                                            *discfs::SystemClock::Get());
      q.attributes["operation"] = "access";
      q.action_authorizers = {principal};
      queries.push_back(std::move(q));
    }
    size_t reps = std::max<size_t>(queries.size(), 256);
    query_us = TimeUs(reps, [&](size_t i) {
      (void)session.Query(queries[i % queries.size()]);
    });
  }
  add("keynote.query_us", query_us, "us");
  const std::vector<std::string>& verify_texts =
      probes.fresh.empty() ? probes.corpus : probes.fresh;
  size_t verify_n = std::min<size_t>(verify_texts.size(), 64);
  add("keynote.parse_verify_us",
      verify_n == 0 ? 0
                    : TimeUs(verify_n,
                             [&](size_t i) {
                               BENCH_CHECK(
                                   discfs::keynote::KeyNoteSession::
                                       ParseAndVerifyCredential(
                                           verify_texts[i], nullptr)
                                           .ok());
                             }),
      "us");
  add("keynote.sigcache_hit_rate",
      Ratio(static_cast<double>(b.sig_hits - a.sig_hits),
            static_cast<double>((b.sig_hits - a.sig_hits) +
                                (b.sig_misses - a.sig_misses))),
      "ratio");

  // --- crypto, on the workload's keys and payload sizes.
  {
    auto rand = discfs::LockedPrngBytes(DeriveSeed(probes.seed, "probe", 0));
    std::vector<Bytes> digests;
    for (size_t i = 0; i < 32; ++i) {
      const std::string& text =
          probes.corpus.empty() ? std::to_string(i)
                                : probes.corpus[i % probes.corpus.size()];
      digests.push_back(discfs::Sha1::Hash(text + std::to_string(i)));
    }
    std::vector<discfs::DsaSignature> sigs(digests.size());
    add("crypto.dsa_sign_us",
        TimeUs(digests.size(),
               [&](size_t i) { sigs[i] = probes.signer.Sign(digests[i]); }),
        "us");
    add("crypto.dsa_verify_us",
        TimeUs(digests.size(),
               [&](size_t i) {
                 BENCH_CHECK(
                     probes.signer.public_key().Verify(digests[i], sigs[i]));
               }),
        "us");
    discfs::DhKeyPair peer =
        discfs::DhKeyPair::Generate(discfs::Dsa512(), rand);
    Bytes peer_public = peer.PublicValue();
    add("crypto.dh_us", TimeUs(16,
                               [&](size_t) {
                                 discfs::DhKeyPair mine =
                                     discfs::DhKeyPair::Generate(
                                         discfs::Dsa512(), rand);
                                 BENCH_CHECK(
                                     mine.SharedSecret(peer_public).ok());
                               }),
        "us");
    discfs::Aead aead(rand(discfs::Aead::kKeySize));
    Bytes nonce = rand(discfs::Aead::kNonceSize);
    Bytes small = rand(4096);
    Bytes large = rand(64 << 10);
    add("crypto.aead_mb_s.4k",
        MbPerSec(small.size(), [&] { (void)aead.Seal(nonce, {}, small); }),
        "MB/s");
    add("crypto.aead_mb_s.64k",
        MbPerSec(large.size(), [&] { (void)aead.Seal(nonce, {}, large); }),
        "MB/s");
    add("crypto.sha256_mb_s",
        MbPerSec(large.size(), [&] { (void)discfs::Sha256::Hash(large); }),
        "MB/s");
    Bytes content_key = rand(32);
    add("crypto.keywrap_us",
        TimeUs(16,
               [&](size_t) {
                 BENCH_CHECK(discfs::WrapKey(probes.wrap_recipient,
                                             content_key, rand)
                                 .ok());
               }),
        "us");
  }

  // --- cluster
  add("cluster.propagation_us.p50", Quantile(obs.propagation_us, 0.5), "us");
  add("cluster.propagation_us.p99", Quantile(obs.propagation_us, 0.99), "us");
  add("cluster.events_published",
      static_cast<double>(b.published - a.published), "count");
  add("cluster.events_applied", static_cast<double>(b.applied - a.applied),
      "count");
  add("cluster.duplicates_skipped",
      static_cast<double>(b.duplicates - a.duplicates), "count");
  add("cluster.full_invalidations",
      static_cast<double>(b.full_invalidations - a.full_invalidations),
      "count");
  add("cluster.reconnects", static_cast<double>(b.connects - a.connects),
      "count");

  // --- lockbox
  add("lockbox.put_execute_us",
      exec_mean_us(discfs::kDiscfsProgram, kLockboxPut), "us");
  add("lockbox.get_execute_us",
      exec_mean_us(discfs::kDiscfsProgram, kLockboxGet), "us");
  const double chunk_puts =
      static_cast<double>(b.chunks.puts - a.chunks.puts);
  add("lockbox.dedup_ratio",
      Ratio(static_cast<double>(b.chunks.dedup_hits - a.chunks.dedup_hits),
            chunk_puts),
      "ratio");
  add("lockbox.chunks_stored",
      static_cast<double>(b.chunks.stored - a.chunks.stored), "count");
  add("lockbox.chunks_removed",
      static_cast<double>(b.chunks.removed - a.chunks.removed), "count");

  // --- nfs
  const uint32_t nfs = discfs::kNfsProgram;
  add("nfs.read_execute_us",
      exec_mean_us(nfs, static_cast<uint32_t>(discfs::NfsProc::kRead)), "us");
  add("nfs.write_execute_us",
      exec_mean_us(nfs, static_cast<uint32_t>(discfs::NfsProc::kWrite)),
      "us");
  add("nfs.getattr_execute_us",
      exec_mean_us(nfs, static_cast<uint32_t>(discfs::NfsProc::kGetAttr)),
      "us");
  double nfs_exec_ns = 0;
  uint64_t nfs_calls = 0;
  for (const auto& [key, snaps] : rpc) {
    if (static_cast<uint32_t>(key >> 32) == nfs) {
      nfs_exec_ns += static_cast<double>(snaps[2].sum);
      nfs_calls += snaps[2].count;
    }
  }
  add("nfs.execute_us",
      Ratio(nfs_exec_ns / 1e3, static_cast<double>(nfs_calls)), "us");
  add("nfs.self_us",
      Ratio(std::max(0.0, nfs_exec_ns - nfs_ffs_ns) / 1e3,
            static_cast<double>(nfs_calls)),
      "us");

  // --- ffs (the Vfs wrapper)
  add("ffs.read_us", mean_span_us("ffs.read"), "us");
  add("ffs.write_us", mean_span_us("ffs.write"), "us");
  add("ffs.create_us", mean_span_us("ffs.create"), "us");
  add("ffs.remove_us", mean_span_us("ffs.remove"), "us");
  add("ffs.lookup_us", mean_span_us("ffs.lookup"), "us");
  add("ffs.call_us",
      Ratio(sum("ffs.", &SpanTotals::total_ns) / 1e3,
            sum("ffs.", &SpanTotals::count)),
      "us");
  add("ffs.calls_per_op", sum("ffs.", &SpanTotals::count) / ops, "count/op");

  // --- blockdev (cache stats + the device wrapper)
  const double dev_ns = static_cast<double>((b.dev_read_ns - a.dev_read_ns) +
                                            (b.dev_write_ns - a.dev_write_ns));
  add("blockdev.cache_hit_rate",
      Ratio(static_cast<double>(b.cache_hits - a.cache_hits),
            static_cast<double>((b.cache_hits - a.cache_hits) +
                                (b.cache_misses - a.cache_misses))),
      "ratio");
  add("blockdev.device_reads_per_op",
      static_cast<double>(b.dev_reads - a.dev_reads) / ops, "count/op");
  add("blockdev.device_writes_per_op",
      static_cast<double>(b.dev_writes - a.dev_writes) / ops, "count/op");
  add("blockdev.device_read_us",
      Ratio(static_cast<double>(b.dev_read_ns - a.dev_read_ns) / 1e3,
            static_cast<double>(b.dev_reads - a.dev_reads)),
      "us");
  add("blockdev.device_write_us",
      Ratio(static_cast<double>(b.dev_write_ns - a.dev_write_ns) / 1e3,
            static_cast<double>(b.dev_writes - a.dev_writes)),
      "us");
  add("blockdev.io_overlap", Ratio(dev_ns / 1e9, wall), "ratio");
  add("blockdev.write_amplification",
      Ratio(static_cast<double>(b.dev_writes - a.dev_writes) * 4096.0,
            static_cast<double>(obs.bytes_written)),
      "ratio");
  add("blockdev.writebacks", static_cast<double>(b.writebacks - a.writebacks),
      "count");
  add("blockdev.evictions", static_cast<double>(b.evictions - a.evictions),
      "count");
  add("blockdev.readaheads", static_cast<double>(b.readaheads - a.readaheads),
      "count");
  add("blockdev.foreground_device_share",
      Ratio(static_cast<double>(b.dev_foreground_ns - a.dev_foreground_ns),
            dev_ns),
      "ratio");

  // --- process, generator, tracing
  const double nproc =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  add("proc.cpu_util", Ratio(b.cpu_s - a.cpu_s, wall * nproc), "ratio");
  add("proc.threads", static_cast<double>(threads_), "count");
  add("gen.late_p99_us", Quantile(obs.late_us, 0.99), "us");
  add("trace.overhead_ratio",
      Ratio(obs.untraced_ops_s, obs.traced_ops_s),
      "ratio");
  add("trace.self_client_us", sum("client.", &SpanTotals::self_ns) / 1e3 / ops,
      "us/op");
  add("trace.self_ffs_us", sum("ffs.", &SpanTotals::self_ns) / 1e3 / ops,
      "us/op");
  // Device spans have no children: a request's device time is all self.
  add("trace.self_blockdev_us",
      sum("blockdev.", &SpanTotals::traced_total_ns) / 1e3 / ops, "us/op");
  add("trace.background_blockdev_us",
      (sum("blockdev.", &SpanTotals::total_ns) -
       sum("blockdev.", &SpanTotals::traced_total_ns)) /
          1e3 / ops,
      "us/op");
  return m;
}

}  // namespace discfsbench
