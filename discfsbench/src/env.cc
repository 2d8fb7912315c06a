#include "discfsbench/src/env.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <fstream>

#include "src/net/transport.h"
#include "src/util/prng.h"

namespace discfsbench {

using discfs::Bytes;

std::unique_ptr<Node> StartNode(const NodeSpec& spec, Tracing* tracing) {
  auto node = std::make_unique<Node>();
  auto device = std::make_shared<discfs::MemBlockDevice>(
      4096, spec.device_blocks, spec.latency);
  std::shared_ptr<discfs::BlockDevice> under_cache = device;
  if (tracing != nullptr) {
    node->timed_device =
        std::make_shared<TimedBlockDevice>(device, &tracing->spans);
    under_cache = node->timed_device;
  }
  // Default mount: 1024-block write-back cache, background flusher
  // (watermark capacity/4, 200 ms interval), 8-block readahead.
  std::unique_ptr<discfs::Ffs> fs = Unwrap(
      discfs::Ffs::Format(under_cache, discfs::FfsFormatOptions{spec.inodes}),
      "format");
  node->volume = std::make_shared<discfs::FfsVfs>(std::move(fs));
  std::shared_ptr<discfs::Vfs> served = node->volume;
  if (tracing != nullptr) {
    served = std::make_shared<TimedVfs>(node->volume, &tracing->spans);
  }

  discfs::DiscfsServerConfig config;
  config.server_key = spec.server_key;
  config.policy_assertions.push_back(spec.policy);
  config.rand_bytes = discfs::LockedPrngBytes(spec.rand_seed);
  config.cluster_trusted_keys = spec.trusted;
  discfs::DiscfsHostOptions options;
  options.cluster_enabled = spec.cluster;
  node->host = Unwrap(discfs::DiscfsHost::Start(served, std::move(config),
                                                /*port=*/0, options),
                      "host start");
  return node;
}

std::unique_ptr<discfs::DiscfsClient> Connect(Node& node,
                                              const discfs::DsaPrivateKey& key,
                                              uint64_t rand_seed,
                                              Tracing* tracing) {
  discfs::ChannelIdentity identity{key, discfs::LockedPrngBytes(rand_seed)};
  const discfs::DsaPublicKey server = node.server().public_key();
  if (tracing == nullptr) {
    return Unwrap(discfs::DiscfsClient::Connect("127.0.0.1", node.host->port(),
                                                identity, server),
                  "connect");
  }
  auto tcp = Unwrap(
      discfs::TcpTransport::Connect("127.0.0.1", node.host->port()),
      "tcp connect");
  return Unwrap(discfs::DiscfsClient::ConnectOver(
                    std::make_unique<CountingStream>(std::move(tcp),
                                                     &tracing->wire_bytes),
                    identity, server),
                "connect");
}

std::vector<double> HandshakeProbe(Node& node, const discfs::DsaPrivateKey& key,
                                   uint64_t rand_seed, size_t n) {
  std::vector<double> ms;
  for (size_t i = 0; i < n; ++i) {
    const double t0 = NowSec();
    auto client = Connect(node, key, rand_seed + i, nullptr);
    ms.push_back((NowSec() - t0) * 1e3);
    client->Close();
  }
  return ms;
}

double StoreRatio(Node& node, double live_bytes, std::string* error) {
  discfs::Ffs& ffs = node.ffs();
  if (discfs::Status st = ffs.Sync(); !st.ok()) {
    *error = "sync: " + st.ToString();
    return 0;
  }
  auto fs = ffs.StatFs();
  if (!fs.ok()) {
    *error = "statfs: " + fs.status().ToString();
    return 0;
  }
  return static_cast<double>(fs->total_blocks - fs->free_blocks) *
         fs->block_size / live_bytes;
}

std::vector<discfs::NfsFh> Populate(Node& node, const std::string& prefix,
                                    const std::vector<Bytes>& payloads) {
  discfs::Vfs& vfs = *node.volume;
  std::vector<discfs::NfsFh> fhs;
  fhs.reserve(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    discfs::InodeAttr attr =
        Unwrap(vfs.Create(vfs.root(), prefix + std::to_string(i), 0644),
               "create");
    size_t n = Unwrap(vfs.Write(attr.inode, 0, payloads[i].data(),
                                payloads[i].size()),
                      "write");
    BENCH_CHECK(n == payloads[i].size());
    fhs.push_back({attr.inode, attr.generation});
  }
  return fhs;
}

std::vector<uint32_t> Handles(const std::vector<discfs::NfsFh>& fhs) {
  std::vector<uint32_t> handles;
  for (const discfs::NfsFh& fh : fhs) {
    handles.push_back(fh.inode);
  }
  return handles;
}

namespace {
std::atomic<uint64_t> g_generator_cpu_ns{0};
}  // namespace

void CountGeneratorCpu() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  g_generator_cpu_ns.fetch_add(
      static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + ts.tv_nsec);
}

double GeneratorCpuSeconds() { return g_generator_cpu_ns.load() / 1e9; }

namespace {

// Value of a "Key:   <n> kB" line in /proc/self/status, or 0.
double StatusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusField("VmHWM") / 1024.0; }

size_t ThreadCount() { return static_cast<size_t>(StatusField("Threads")); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

PoolSampler::PoolSampler(std::vector<discfs::DiscfsHost*> hosts)
    : hosts_(std::move(hosts)), thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          double depth = 0;
          double busy = 0;
          double workers = 0;
          for (discfs::DiscfsHost* h : hosts_) {
            depth += static_cast<double>(h->queue_depth());
            busy += static_cast<double>(h->inflight());
            workers += static_cast<double>(h->worker_threads());
          }
          queue_depths_.push_back(depth);
          busy_sum_ += workers > 0 ? busy / workers : 0;
          ++samples_;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

PoolSampler::~PoolSampler() { Stop(); }

void PoolSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
}

double PoolSampler::busy_ratio() const {
  return samples_ == 0 ? 0 : busy_sum_ / static_cast<double>(samples_);
}

}  // namespace discfsbench
