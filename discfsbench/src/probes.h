// Per-layer report of a traced run. LayerReport snapshots every counter
// the program already exposes (flight recorder histograms, stats_snapshot,
// block-cache and chunk-store stats, coherence fabric stats, worker-pool
// depth) plus the benchmark's own wrappers at the start and end of the
// traced phase, and turns the differences, the spans and a few probes
// timed on the workload's own inputs into the per-layer metrics named in
// README.md.
#ifndef DISCFSBENCH_SRC_PROBES_H_
#define DISCFSBENCH_SRC_PROBES_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "discfsbench/src/env.h"
#include "discfsbench/src/stats.h"
#include "src/cluster/fabric.h"
#include "src/lockbox/chunkstore.h"
#include "src/obs/trace.h"

namespace discfsbench {

// Client-side trace ids: minted only while spans are recorded, so an
// untraced call carries no trailer.
class ClientTracer {
 public:
  explicit ClientTracer(Tracing* tracing) : tracing_(tracing) {}
  uint64_t Mint() const {
    return tracing_ != nullptr && tracing_->spans.enabled()
               ? discfs::obs::MintTraceId()
               : 0;
  }
  // Records the client span of a call minted with Mint().
  void End(const char* name, uint64_t trace, uint64_t start_ns) const {
    if (trace != 0) {
      tracing_->spans.Record(name, kDepthClient, trace, start_ns,
                             discfs::obs::MonotonicNanos());
    }
  }

 private:
  Tracing* tracing_;
};

// What the generator saw during the traced phase.
struct ClientObservations {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t bytes_written = 0;  // user payload bytes written
  std::vector<double> late_us;
  std::vector<double> handshake_ms;
  std::vector<double> propagation_us;
  // Closed-loop throughput of the same traffic without and with tracing.
  double untraced_ops_s = 0;
  double traced_ops_s = 0;
};

// Workload inputs the after-run probes are timed on.
struct ProbeInputs {
  Node* check_node = nullptr;  // node whose EffectiveMask is timed
  std::vector<std::pair<std::string, uint32_t>> pairs;
  std::string policy;
  std::vector<std::string> corpus;  // credentials the nodes hold
  std::vector<std::string> fresh;   // credentials for parse + verify
  discfs::DsaPrivateKey signer;
  discfs::DsaPublicKey wrap_recipient;
  uint64_t seed = 0;
};

// Every counter of one instant, summed over the nodes.
struct LayerSnapshot {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t wire_bytes = 0;
  // (prog << 32 | proc) -> decode, queue_wait, execute, reply.
  std::map<uint64_t, std::vector<discfs::obs::Histogram::Snapshot>> rpc;
  discfs::obs::Histogram::Snapshot send_queue_depth;
  uint64_t sheds = 0;
  uint64_t expired = 0;
  uint64_t policy_hits = 0;
  uint64_t policy_misses = 0;
  uint64_t local_bumps = 0;
  uint64_t remote_bumps = 0;
  uint64_t sig_hits = 0;
  uint64_t sig_misses = 0;
  uint64_t keynote_queries = 0;
  uint64_t published = 0;
  uint64_t applied = 0;
  uint64_t duplicates = 0;
  uint64_t full_invalidations = 0;
  uint64_t connects = 0;
  discfs::ChunkStore::Stats chunks;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t readaheads = 0;
  uint64_t dev_reads = 0;
  uint64_t dev_writes = 0;
  uint64_t dev_read_ns = 0;
  uint64_t dev_write_ns = 0;
  uint64_t dev_foreground_ns = 0;
};

class LayerReport {
 public:
  LayerReport(std::vector<Node*> nodes, Tracing* tracing);

  // Starts the traced phase: snapshots counters, starts span recording and
  // the pool sampler.
  void Begin();
  // Ends it.
  void End();
  // The per-layer metrics; runs the after-run probes.
  std::vector<Metric> Metrics(const ClientObservations& obs,
                              const ProbeInputs& probes);
  // Writes the traced phase's spans as JSON lines to `path`.
  bool Dump(const std::string& path) const;

 private:
  LayerSnapshot Take() const;

  std::vector<Node*> nodes_;
  Tracing* tracing_;
  LayerSnapshot begin_, end_;
  std::unique_ptr<PoolSampler> sampler_;
  std::vector<double> queue_depths_;
  double busy_ratio_ = 0;
  size_t threads_ = 0;
};

}  // namespace discfsbench

#endif  // DISCFSBENCH_SRC_PROBES_H_
