// Benchmark environment: in-process DisCFS nodes on loopback TCP, the
// clients that talk to them, and the process-level probes (RSS, CPU,
// threads). In a traced run the nodes are built on the benchmark's timing
// wrappers (spans.h); otherwise they get the program's plain FfsVfs,
// MemBlockDevice and TcpTransport.
#ifndef DISCFSBENCH_SRC_ENV_H_
#define DISCFSBENCH_SRC_ENV_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "discfsbench/src/spans.h"
#include "discfsbench/src/stats.h"
#include "src/blockdev/blockdev.h"
#include "src/discfs/client.h"
#include "src/discfs/host.h"
#include "src/ffs/ffs.h"
#include "src/vfs/vfs.h"

namespace discfsbench {

// Set-up failures are not measurements: report and stop.
#define BENCH_CHECK(cond)                                                  \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "discfsbench: check failed at %s:%d: %s\n",     \
                   __FILE__, __LINE__, #cond);                             \
      std::fflush(nullptr);                                                \
      std::_Exit(3);                                                       \
    }                                                                      \
  } while (0)

template <typename T>
T Unwrap(discfs::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "discfsbench: %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::fflush(nullptr);
    std::_Exit(3);
  }
  return std::move(r).value();
}

inline void Unwrap(const discfs::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "discfsbench: %s failed: %s\n", what,
                 st.ToString().c_str());
    std::fflush(nullptr);
    std::_Exit(3);
  }
}

inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Present only in a traced run.
struct Tracing {
  SpanRecorder spans;
  std::atomic<uint64_t> wire_bytes{0};
};

struct NodeSpec {
  discfs::DsaPrivateKey server_key;
  std::string policy;
  uint64_t rand_seed = 0;
  uint64_t device_blocks = 16384;
  uint32_t inodes = 4096;
  discfs::LatencyModel latency;
  bool cluster = false;
  std::vector<discfs::DsaPublicKey> trusted;
};

struct Node {
  std::shared_ptr<TimedBlockDevice> timed_device;  // traced runs only
  std::shared_ptr<discfs::FfsVfs> volume;          // local administration
  std::unique_ptr<discfs::DiscfsHost> host;

  discfs::Ffs& ffs() { return *volume->ffs(); }
  discfs::DiscfsServer& server() { return host->server(); }
};

std::unique_ptr<Node> StartNode(const NodeSpec& spec, Tracing* tracing);

// Connects `key` to `node` over loopback TCP and the secure channel. In a
// traced run the TCP stream is wrapped in a CountingStream.
std::unique_ptr<discfs::DiscfsClient> Connect(Node& node,
                                              const discfs::DsaPrivateKey& key,
                                              uint64_t rand_seed,
                                              Tracing* tracing);

// Sessions a single-node traced run opens for securechannel.handshake_ms.
inline constexpr size_t kHandshakeProbes = 16;

// Handshake probe: `n` fresh sessions of `key` to `node` over loopback
// TCP + the secure channel, each closed at once; returns each connect's
// time in milliseconds.
std::vector<double> HandshakeProbe(Node& node, const discfs::DsaPrivateKey& key,
                                   uint64_t rand_seed, size_t n);

// Device bytes in use on the node's volume (after a Sync) per live user
// byte. A failed Sync or StatFs sets `error` and gives 0.
double StoreRatio(Node& node, double live_bytes, std::string* error);

inline double TotalBytes(const std::vector<discfs::Bytes>& payloads) {
  double total = 0;
  for (const discfs::Bytes& b : payloads) total += static_cast<double>(b.size());
  return total;
}

// Creates /<prefix><i> for each payload through the node's volume and
// returns the file handles.
std::vector<discfs::NfsFh> Populate(Node& node, const std::string& prefix,
                                    const std::vector<discfs::Bytes>& payloads);
// Inode numbers of `fhs` (credential HANDLEs).
std::vector<uint32_t> Handles(const std::vector<discfs::NfsFh>& fhs);

// Adds the calling thread's CPU time to GeneratorCpuSeconds().
void CountGeneratorCpu();
// CPU time of every load-generator thread that has finished.
double GeneratorCpuSeconds();

// Starts a load-generator thread (see PollPause).
template <typename Fn>
std::thread StartGenerator(Fn fn) {
  return std::thread([fn = std::move(fn)]() mutable {
    fn();
    CountGeneratorCpu();
  });
}

// Process probes.
double PeakRssMb();
size_t ThreadCount();
double CpuSeconds();  // user + system time of the whole process

// Median set-up time over `reps` complete set-ups; `setup` builds and
// returns the environment, every set-up but the last is torn down before
// the next begins.
template <typename Env, typename SetupFn>
std::unique_ptr<Env> RepeatSetup(int reps, SetupFn setup,
                                 std::vector<double>* times) {
  std::unique_ptr<Env> env;
  for (int i = 0; i < reps; ++i) {
    env.reset();
    double t0 = NowSec();
    env = setup();
    times->push_back(NowSec() - t0);
  }
  return env;
}

// Median of a small sample.
double Median(std::vector<double> v);

// hot_read and sync_mixed generators wait by polling and yielding, not by
// sleeping: on a virtual machine a vCPU that goes idle can take
// milliseconds to be woken by the host, and that wake-up latency would
// otherwise dominate their latencies. The generators' own CPU time is
// measured (GeneratorCpuSeconds) and left out of proc.cpu_util.
inline void PollPause() { std::this_thread::yield(); }

// The in-flight requests of one connection. Completion times are taken
// when a reply is observed by polling.
template <typename Tag>
class AsyncWindow {
 public:
  using Reply = discfs::Result<discfs::Bytes>;
  struct Entry {
    std::future<Reply> future;
    double start_s;
    Tag tag;
  };

  void Push(std::future<Reply> future, double start_s, Tag tag) {
    entries_.push_back({std::move(future), start_s, std::move(tag)});
  }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::deque<Entry>& entries() const { return entries_; }

  // Completes every reply already in; returns how many.
  template <typename Fn>
  size_t HarvestReady(Fn&& on_done) {
    size_t done = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Reply reply = it->future.get();
        double now = NowSec();
        on_done(*it, reply, now);
        it = entries_.erase(it);
        ++done;
      } else {
        ++it;
      }
    }
    return done;
  }

  // Polls until at least one reply completes, yielding the CPU between
  // polls (see PollPause).
  template <typename Fn>
  void HarvestSome(Fn&& on_done) {
    while (!entries_.empty() && HarvestReady(on_done) == 0) {
      PollPause();
    }
  }

  template <typename Fn>
  void Drain(Fn&& on_done) {
    while (!entries_.empty()) {
      HarvestSome(on_done);
    }
  }

 private:
  std::deque<Entry> entries_;
};

// Samples a host's worker-pool queue depth and in-flight count every
// millisecond while running (traced runs).
class PoolSampler {
 public:
  explicit PoolSampler(std::vector<discfs::DiscfsHost*> hosts);
  ~PoolSampler();
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  void Stop();
  std::vector<double> queue_depths() const { return queue_depths_; }
  // Mean fraction of worker threads executing a request.
  double busy_ratio() const;

 private:
  std::vector<discfs::DiscfsHost*> hosts_;
  std::atomic<bool> stop_{false};
  std::vector<double> queue_depths_;
  double busy_sum_ = 0;
  size_t samples_ = 0;
  std::thread thread_;  // declared last: uses the members above
};

}  // namespace discfsbench

#endif  // DISCFSBENCH_SRC_ENV_H_
