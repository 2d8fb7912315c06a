// Storage data-plane benchmark: the paper's bonnie phases (Figures 7-11)
// over the FFS substrate, measuring what the block cache buys.
//
// Tiers:
//   cold_latency   — the bonnie file is written, synced, and the volume
//                    mounted afresh over a device latency model (seek +
//                    transfer); the first sequential read pass runs
//                    against an empty block cache and must trigger Ffs's
//                    per-file readahead. The baseline the warm cache is
//                    gated against.
//   cached_latency — the same mount, now warm: sequential reads must
//                    elide device I/O entirely (>= 3x the cold read
//                    throughput), and the bonnie rewrite pass must run
//                    >= 90% out of cache.
//   cached_fast    — latency model off: the pure software-overhead
//                    numbers, full bonnie phase set.
//   nfs            — concurrent 4 KiB-block reads of independent files
//                    through NfsServer's striped locking, 1 vs 4 threads,
//                    each timed over a fixed 0.5 s window after a 1.5 s
//                    warm-up; with a global lock on the read path this
//                    cannot scale past 1x.
//
// Every tier ends with Ffs::Check(): a write-back bug that corrupts
// metadata fails the run, not just a test.
//
// Output: BENCH_storage.json (schema_version 1), self-gated like the other
// benches. DISCFS_STORAGE_MB scales the file (default 4 MiB).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bonnie.h"
#include "bench/fs_backend.h"
#include "src/blockdev/block_cache.h"
#include "src/blockdev/blockdev.h"
#include "src/ffs/ffs.h"
#include "src/nfs/nfs_server.h"
#include "src/vfs/vfs.h"

namespace discfs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double NowSec() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

size_t StorageFileMb() {
  const char* env = std::getenv("DISCFS_STORAGE_MB");
  if (env != nullptr) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 4;
}

// Paper-era disk-ish latency model: 100 us seek, 10 us per-block transfer.
LatencyModel BenchLatency() {
  LatencyModel m;
  m.seek_ns = 100 * 1000;
  m.transfer_ns = 10 * 1000;
  return m;
}

BackendOptions TierOptions(size_t file_mb, bool latency) {
  BackendOptions opts;
  opts.device_mib = 64;
  opts.inode_count = 4096;
  // Cache sized to hold the whole bonnie file plus metadata, so the
  // rewrite pass can run fully warm.
  opts.cache_blocks = file_mb * 1024 * 1024 / 4096 * 2 + 512;
  if (latency) {
    opts.latency = BenchLatency();
  }
  return opts;
}

double MustRun(FsBackend& backend, BonniePhase phase, size_t file_mb) {
  auto result = RunBonniePhase(backend, phase, file_mb);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: %s on %s failed: %s\n",
                 BonniePhaseName(phase), backend.name().c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  PrintBonnieRow(*result);
  return result->kb_per_sec;
}

bool MustFsck(FsBackend& backend, const char* tier) {
  Ffs* ffs = BackendFfs(backend);
  if (ffs == nullptr) {
    std::fprintf(stderr, "FATAL: tier %s has no FFS backend\n", tier);
    std::exit(1);
  }
  if (Status st = ffs->Sync(); !st.ok()) {
    std::fprintf(stderr, "FATAL: sync after tier %s: %s\n", tier,
                 st.ToString().c_str());
    std::exit(1);
  }
  auto report = ffs->Check();
  if (!report.ok()) {
    std::fprintf(stderr, "FATAL: fsck after tier %s errored: %s\n", tier,
                 report.status().ToString().c_str());
    std::exit(1);
  }
  if (!report->clean()) {
    std::fprintf(stderr, "FATAL: fsck after tier %s found %zu errors:\n",
                 tier, report->errors.size());
    for (const std::string& e : report->errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    std::exit(1);
  }
  std::printf("fsck after %s: clean (%llu files, %llu dirs, %llu blocks)\n",
              tier, static_cast<unsigned long long>(report->files),
              static_cast<unsigned long long>(report->directories),
              static_cast<unsigned long long>(report->used_blocks));
  return true;
}

struct ColdResult {
  double read_kb_s = 0;
  uint64_t device_reads = 0;
  // Blocks Ffs's per-file readahead prefetched during the cold pass.
  uint64_t readaheads = 0;
};

struct CachedResult {
  double write_kb_s = 0;
  double read_warm_kb_s = 0;
  double rewrite_kb_s = 0;
  double rewrite_hit_rate = 0;
  uint64_t writebacks = 0;
  uint64_t device_reads = 0;
  uint64_t device_writes = 0;
};

// Runs cold_latency and cached_latency on one volume: write, remount with
// an empty cache, read cold, then read warm and rewrite.
void RunLatencyTiers(size_t file_mb, ColdResult* cold, CachedResult* cached) {
  std::printf("-- tier: cold cache + latency model --\n");
  auto backend = MakeFfsBackend(TierOptions(file_mb, true));
  if (!backend.ok()) {
    std::fprintf(stderr, "FATAL: latency backend: %s\n",
                 backend.status().ToString().c_str());
    std::exit(1);
  }
  cached->write_kb_s =
      MustRun(**backend, BonniePhase::kSeqOutputBlock, file_mb);
  backend = RemountFfsBackend(std::move(backend).value());
  if (!backend.ok()) {
    std::fprintf(stderr, "FATAL: remount: %s\n",
                 backend.status().ToString().c_str());
    std::exit(1);
  }
  BlockCache* cache = BackendFfs(**backend)->block_cache();
  const uint64_t reads_before = cache->stats().reads.load();
  const uint64_t readaheads_before = cache->cache_stats().readaheads.load();
  cold->read_kb_s = MustRun(**backend, BonniePhase::kSeqInputBlock, file_mb);
  cold->device_reads = cache->stats().reads.load() - reads_before;
  cold->readaheads = cache->cache_stats().readaheads.load() - readaheads_before;
  MustFsck(**backend, "cold_latency");

  std::printf("-- tier: warm cache + latency model --\n");
  cached->read_warm_kb_s =
      MustRun(**backend, BonniePhase::kSeqInputBlock, file_mb);

  // Rewrite hit rate: the file was just read, so the working set is
  // resident; every rewrite read should hit.
  cache->ResetCacheStats();
  cached->rewrite_kb_s = MustRun(**backend, BonniePhase::kSeqRewrite, file_mb);
  const BlockCacheStats& cs = cache->cache_stats();
  uint64_t hits = cs.hits.load();
  uint64_t misses = cs.misses.load();
  cached->rewrite_hit_rate =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) / (hits + misses);
  cached->writebacks = cs.writebacks.load();
  cached->device_reads = cache->stats().reads.load();
  cached->device_writes = cache->stats().writes.load();
  MustFsck(**backend, "cached_latency");
}

struct FastResult {
  double phase_kb_s[5] = {0, 0, 0, 0, 0};
};

FastResult RunFastTier(size_t file_mb) {
  std::printf("-- tier: cached, latency model off --\n");
  auto backend = MakeFfsBackend(TierOptions(file_mb, false));
  if (!backend.ok()) {
    std::fprintf(stderr, "FATAL: fast backend: %s\n",
                 backend.status().ToString().c_str());
    std::exit(1);
  }
  FastResult out;
  const BonniePhase phases[5] = {
      BonniePhase::kSeqOutputChar, BonniePhase::kSeqOutputBlock,
      BonniePhase::kSeqRewrite, BonniePhase::kSeqInputChar,
      BonniePhase::kSeqInputBlock};
  for (int i = 0; i < 5; ++i) {
    out.phase_kb_s[i] = MustRun(**backend, phases[i], file_mb);
  }
  MustFsck(**backend, "cached_fast");
  return out;
}

// Concurrent reads of independent files through NfsServer. Returns ops/s.
//
// Every worker starts behind a barrier, runs a warm-up of the same shape,
// and is then timed over a fixed wall-clock window. A short burst measures
// how fast idle vCPUs come back, not the server: on a shared 4-vCPU VM even
// a plain 4-thread compute loop can run on one CPU for up to ~1 s after a
// mostly idle stretch, so the warm-up outlasts that.
double NfsReadThroughput(NfsServer& server, const std::vector<NfsFh>& files,
                         size_t threads, size_t read_size) {
  constexpr auto kWarmupTime = std::chrono::milliseconds(1500);
  constexpr auto kWindow = std::chrono::milliseconds(500);
  enum Phase : int { kStart, kWarmup, kTimed, kStop };
  std::atomic<int> phase{kStart};
  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> timed_ops{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const NfsFh fh = files[t % files.size()];
      uint64_t offset = 0;
      uint64_t ops = 0;
      uint64_t timed_from = 0;
      bool timed = false;
      ready.fetch_add(1);
      while (phase.load(std::memory_order_acquire) == kStart) {
        std::this_thread::yield();
      }
      for (;;) {
        const int now = phase.load(std::memory_order_relaxed);
        if (now == kStop) {
          break;
        }
        if (now == kTimed && !timed) {
          timed = true;
          timed_from = ops;
        }
        auto data = server.Read(fh, offset, static_cast<uint32_t>(read_size));
        if (!data.ok() || data->empty()) {
          failures.fetch_add(1);
          return;
        }
        ++ops;
        offset += read_size;
        if (offset + read_size > 256 * 1024) {
          offset = 0;
        }
      }
      timed_ops.fetch_add(timed ? ops - timed_from : 0);
    });
  }
  while (ready.load() != threads) {
    std::this_thread::yield();
  }
  phase.store(kWarmup, std::memory_order_release);
  std::this_thread::sleep_for(kWarmupTime);
  const double start = NowSec();
  phase.store(kTimed);
  std::this_thread::sleep_for(kWindow);
  phase.store(kStop);
  const double elapsed = NowSec() - start;
  for (auto& w : workers) {
    w.join();
  }
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: %llu NFS read workers failed\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  return timed_ops.load() / elapsed;
}

struct NfsResult {
  double ops_s_1t = 0;
  double ops_s_4t = 0;
  double scaling = 0;
  bool fsck_clean = false;
};

NfsResult RunNfsTier() {
  std::printf("-- tier: NFS striped-lock concurrency --\n");
  auto dev = std::make_shared<MemBlockDevice>(4096, 16384);
  FfsFormatOptions format;
  format.inode_count = 4096;
  format.mount.cache.capacity_blocks = 8192;
  auto fs = Ffs::Format(dev, format);
  if (!fs.ok()) {
    std::fprintf(stderr, "FATAL: nfs tier format: %s\n",
                 fs.status().ToString().c_str());
    std::exit(1);
  }
  std::shared_ptr<Ffs> ffs_sp = std::move(*fs);
  Ffs* ffs = ffs_sp.get();
  NfsServer server(std::make_shared<FfsVfs>(ffs_sp));

  // Eight 256 KiB files, written through the server.
  std::vector<NfsFh> files;
  std::vector<uint8_t> chunk(64 * 1024, 0xAB);
  for (int i = 0; i < 8; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "file%02d", i);
    auto root = server.GetRoot();
    if (!root.ok()) {
      std::fprintf(stderr, "FATAL: nfs tier GetRoot: %s\n",
                   root.status().ToString().c_str());
      std::exit(1);
    }
    auto attr = server.Create(root->fh, name, 0644);
    if (!attr.ok()) {
      std::fprintf(stderr, "FATAL: nfs tier create: %s\n",
                   attr.status().ToString().c_str());
      std::exit(1);
    }
    for (uint64_t off = 0; off < 256 * 1024; off += chunk.size()) {
      Bytes data(chunk.begin(), chunk.end());
      if (!server.Write(attr->fh, off, data).ok()) {
        std::fprintf(stderr, "FATAL: nfs tier write failed\n");
        std::exit(1);
      }
    }
    files.push_back(attr->fh);
  }

  NfsResult out;
  out.ops_s_1t = NfsReadThroughput(server, files, 1, 4096);
  out.ops_s_4t = NfsReadThroughput(server, files, 4, 4096);
  out.scaling = out.ops_s_4t / out.ops_s_1t;
  std::printf("nfs read ops/s: 1t %.0f, 4t %.0f (scaling %.2fx)\n",
              out.ops_s_1t, out.ops_s_4t, out.scaling);

  if (Status st = ffs->Sync(); !st.ok()) {
    std::fprintf(stderr, "FATAL: nfs tier sync: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  auto report = ffs->Check();
  if (!report.ok() || !report->clean()) {
    std::fprintf(stderr, "FATAL: fsck after nfs tier not clean\n");
    std::exit(1);
  }
  out.fsck_clean = true;
  std::printf("fsck after nfs: clean\n");
  return out;
}

void WriteJson(std::FILE* f, size_t file_mb, const ColdResult& cold,
               const CachedResult& c, const FastResult& fast,
               const NfsResult& nfs, double warm_read_speedup,
               bool nfs_gate_enforced) {
  std::fprintf(f, "{\n  \"bench\": \"storage_scaling\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"file_mb\": %zu,\n", file_mb);
  std::fprintf(f,
               "  \"latency_model\": {\"seek_us\": 100, \"transfer_us\": "
               "10},\n");
  std::fprintf(f,
               "  \"cold_latency\": {\"seq_input_block_kb_s\": %.0f, "
               "\"device_reads\": %llu, \"readaheads\": %llu, "
               "\"fsck_clean\": true},\n",
               cold.read_kb_s,
               static_cast<unsigned long long>(cold.device_reads),
               static_cast<unsigned long long>(cold.readaheads));
  std::fprintf(
      f,
      "  \"cached_latency\": {\"seq_output_block_kb_s\": %.0f, "
      "\"seq_input_block_warm_kb_s\": %.0f, \"seq_rewrite_kb_s\": %.0f, "
      "\"rewrite_hit_rate\": %.4f, \"writebacks\": %llu, "
      "\"device_reads\": %llu, \"device_writes\": %llu, "
      "\"fsck_clean\": true},\n",
      c.write_kb_s, c.read_warm_kb_s, c.rewrite_kb_s, c.rewrite_hit_rate,
      static_cast<unsigned long long>(c.writebacks),
      static_cast<unsigned long long>(c.device_reads),
      static_cast<unsigned long long>(c.device_writes));
  std::fprintf(
      f,
      "  \"cached_fast\": {\"seq_output_char_kb_s\": %.0f, "
      "\"seq_output_block_kb_s\": %.0f, \"seq_rewrite_kb_s\": %.0f, "
      "\"seq_input_char_kb_s\": %.0f, \"seq_input_block_kb_s\": %.0f, "
      "\"fsck_clean\": true},\n",
      fast.phase_kb_s[0], fast.phase_kb_s[1], fast.phase_kb_s[2],
      fast.phase_kb_s[3], fast.phase_kb_s[4]);
  std::fprintf(f,
               "  \"nfs\": {\"read_ops_s_1t\": %.0f, \"read_ops_s_4t\": "
               "%.0f, \"scaling_1_to_4\": %.2f, \"gate_enforced\": %s, "
               "\"fsck_clean\": %s},\n",
               nfs.ops_s_1t, nfs.ops_s_4t, nfs.scaling,
               nfs_gate_enforced ? "true" : "false",
               nfs.fsck_clean ? "true" : "false");
  std::fprintf(f, "  \"warm_read_speedup\": %.2f,\n", warm_read_speedup);
  std::fprintf(f, "  \"rewrite_hit_rate\": %.4f,\n", c.rewrite_hit_rate);
  std::fprintf(f, "  \"fsck_clean_all\": true\n}\n");
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_storage.json";
  const size_t file_mb = StorageFileMb();

  std::printf("== Storage scaling: warm block cache vs a cold mount ==\n");
  std::printf("bonnie file: %zu MiB (DISCFS_STORAGE_MB to change)\n",
              file_mb);

  ColdResult cold;
  CachedResult cached;
  RunLatencyTiers(file_mb, &cold, &cached);
  FastResult fast = RunFastTier(file_mb);
  NfsResult nfs = RunNfsTier();

  const double warm_read_speedup =
      cold.read_kb_s > 0 ? cached.read_warm_kb_s / cold.read_kb_s : 0;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool nfs_gate_enforced = hw >= 4;

  std::printf("warm cached read vs cold mount: %.1fx\n", warm_read_speedup);
  std::printf("rewrite cache hit rate: %.1f%%\n",
              cached.rewrite_hit_rate * 100);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  WriteJson(f, file_mb, cold, cached, fast, nfs, warm_read_speedup,
            nfs_gate_enforced);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  if (warm_read_speedup < 3.0) {
    std::fprintf(stderr,
                 "FATAL: warm cached read only %.2fx the cold mount — "
                 "the cache is not eliding device I/O\n",
                 warm_read_speedup);
    return 1;
  }
  if (cold.readaheads == 0) {
    std::fprintf(stderr,
                 "FATAL: no readahead on the cold sequential read pass — "
                 "per-file readahead is not firing\n");
    return 1;
  }
  if (cached.rewrite_hit_rate < 0.9) {
    std::fprintf(stderr,
                 "FATAL: rewrite hit rate %.1f%% < 90%% — the working set "
                 "fell out of a cache sized to hold it\n",
                 cached.rewrite_hit_rate * 100);
    return 1;
  }
  if (!nfs_gate_enforced) {
    std::printf(
        "WARNING: NFS concurrency gate SKIPPED (%u hardware threads < 4; "
        "independent-file parallelism cannot show on this machine)\n",
        hw);
  } else if (nfs.scaling < 1.5) {
    std::fprintf(stderr,
                 "FATAL: NFS reads scaled only %.2fx from 1 to 4 threads — "
                 "is the server back under a global mutex?\n",
                 nfs.scaling);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace discfs::bench

int main(int argc, char** argv) {
  return discfs::bench::Run(argc, argv);
}
