#include "src/discfs/host.h"

#include "src/crypto/sysrand.h"
#include "src/obs/metrics.h"
#include "src/vfs/vfs.h"

namespace discfs {
namespace internal {

bool LoopConnectionSet::Add(std::shared_ptr<RpcConnection> conn) {
  RpcConnection* key = conn.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) {
      return false;
    }
    conns_.emplace(key, std::move(conn));
  }
  // The connection may have finished (peer vanished mid-handshake) before
  // it was tracked, in which case its on-closed hook missed the map entry.
  if (key->closed()) {
    Remove(key);
  }
  return true;
}

void LoopConnectionSet::Remove(RpcConnection* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(conn);
}

void LoopConnectionSet::AbortActive() {
  std::unordered_map<RpcConnection*, std::shared_ptr<RpcConnection>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = conns_;  // copy: each Abort triggers Remove via on-closed
  }
  for (auto& [ptr, conn] : snapshot) {
    conn->Abort();
  }
}

void LoopConnectionSet::CloseAll() {
  std::unordered_map<RpcConnection*, std::shared_ptr<RpcConnection>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
    snapshot.swap(conns_);
  }
  // Abort outside the lock: each connection's on-closed hook calls Remove,
  // which takes it again.
  for (auto& [ptr, conn] : snapshot) {
    conn->Abort();
  }
}

size_t LoopConnectionSet::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

}  // namespace internal

namespace {

size_t ResolveWorkerThreads(size_t requested) {
  if (requested > 0) {
    return requested;
  }
  // NFS handlers block on storage, so workers overlap I/O rather than
  // compete for cores: keep a floor well above the core count of small
  // machines and a ceiling to bound memory on big ones.
  size_t hw = std::thread::hardware_concurrency();
  if (hw < 8) {
    hw = 8;
  }
  return hw < 16 ? hw : 16;
}

RpcConnection::Options MakeConnOptions(EventLoop* loop, WorkerPool* pool,
                                       const DiscfsHostOptions& options) {
  RpcConnection::Options conn_options;
  conn_options.loop = loop;
  conn_options.pool = pool;
  conn_options.max_inflight = options.max_inflight_per_conn;
  conn_options.send_queue_limit = options.send_queue_limit;
  conn_options.admission_queue_limit = options.admission_queue_limit;
  conn_options.shed_data_watermark = options.shed_data_watermark;
  conn_options.shed_namespace_watermark = options.shed_namespace_watermark;
  return conn_options;
}

}  // namespace

Result<std::unique_ptr<DiscfsHost>> DiscfsHost::Start(
    std::shared_ptr<Vfs> vfs, DiscfsServerConfig config, uint16_t port,
    DiscfsHostOptions options) {
  const bool cluster = options.cluster_enabled ||
                       !options.cluster_peers.empty() ||
                       !options.cluster_seeds.empty() ||
                       !options.cluster_storage_dir.empty() ||
                       !config.cluster_trusted_keys.empty();
  // The fabric's outbound links authenticate with the server's own
  // channel identity; capture it before the config moves into the server.
  ChannelIdentity identity{config.server_key, config.rand_bytes};
  if (!identity.rand_bytes) {
    identity.rand_bytes = [](size_t n) { return SysRandomBytes(n); };
  }
  // If the volume is FFS-backed, export its block-cache counters through
  // the server's registry too (grab the pointer before the vfs moves into
  // the server; the server keeps the vfs alive).
  BlockCache* block_cache = nullptr;
  if (auto* ffs_vfs = dynamic_cast<FfsVfs*>(vfs.get())) {
    block_cache = ffs_vfs->ffs()->block_cache();
  }
  auto host = std::unique_ptr<DiscfsHost>(new DiscfsHost());
  ASSIGN_OR_RETURN(host->server_,
                   DiscfsServer::Create(std::move(vfs), std::move(config)));
  if (block_cache != nullptr) {
    block_cache->RegisterMetrics(&host->server_->metrics());
  }
  host->loop_ = std::make_unique<EventLoop>();
  host->pool_ = std::make_unique<WorkerPool>(
      ResolveWorkerThreads(options.worker_threads));
  // Batch credential submits fan verification out over the shared pool
  // (teardown closes every connection before the pool stops).
  host->server_->SetVerifyPool(host->pool_.get());
  host->options_ = options;
  // The listener comes up before the fabric so the fabric can advertise
  // the actual bound port (port 0 = ephemeral) in membership gossip. No
  // connection is served until the accept thread starts, below.
  ASSIGN_OR_RETURN(host->listener_,
                   TcpListener::Listen(port, options.bind_addr));
  // Handshakes run on the loop through a sans-io state machine (CPU steps
  // on the pool): a slow or silent peer occupies no worker, bounded
  // half-open state, per-connection timeout. Built before the fabric so
  // the identity can be copied in before it moves.
  {
    HandshakeReactor::Options hs;
    hs.loop = host->loop_.get();
    hs.pool = host->pool_.get();
    hs.identity = identity;
    hs.timeout_ms = options.handshake_timeout_ms;
    hs.max_half_open = options.max_half_open_handshakes;
    DiscfsHost* h = host.get();
    host->handshakes_ = std::make_unique<HandshakeReactor>(
        std::move(hs), [h](std::unique_ptr<SecureChannel> channel) {
          auto served = h->server_->ServeChannelOnLoop(
              std::move(channel), h->ConnOptions(),
              [h](RpcConnection* c) { h->connections_.Remove(c); });
          if (!served.ok()) {
            return;  // loop rejected the fd; the socket dies here
          }
          if (!h->connections_.Add(*served)) {
            (*served)->Abort();  // host is shutting down
          }
        });
  }
  if (cluster) {
    DiscfsServer* srv = host->server_.get();
    cluster::FabricConfig fabric_config;
    fabric_config.node_id = srv->public_key().ToKeyNoteString();
    fabric_config.loop = host->loop_.get();
    fabric_config.identity = std::move(identity);
    fabric_config.tuning = options.cluster_tuning;
    fabric_config.apply = [srv](const cluster::CoherenceEvent& event) {
      srv->ApplyRemoteEvent(event);
    };
    const std::string& advertised_host = options.advertised_host.empty()
                                             ? options.bind_addr
                                             : options.advertised_host;
    fabric_config.listen_addr =
        advertised_host + ":" + std::to_string(host->listener_->port());
    fabric_config.storage_dir = options.cluster_storage_dir;
    fabric_config.fsync = options.cluster_fsync;
    fabric_config.faults = options.cluster_faults;
    // The fabric's durable snapshots carry the server's revocation list
    // (its serialized form doubles as the anti-entropy exchange format,
    // so restore is just a merge into an empty list).
    fabric_config.collect_state = [srv] {
      return srv->SerializeRevocations();
    };
    fabric_config.restore_state = [srv](const Bytes& blob) {
      (void)srv->MergeRevocations(blob);
    };
    fabric_config.collect_revocations = [srv] {
      return std::make_pair(srv->RevocationDigest(),
                            srv->SerializeRevocations());
    };
    fabric_config.merge_revocations = [srv](const Bytes& blob) {
      return srv->MergeRevocations(blob);
    };
    host->fabric_ =
        std::make_unique<cluster::CoherenceFabric>(std::move(fabric_config));
    host->server_->AttachCoherenceFabric(host->fabric_.get());
    for (cluster::PeerConfig& peer : options.cluster_peers) {
      host->fabric_->AddPeer(std::move(peer));
    }
    for (const std::string& seed : options.cluster_seeds) {
      // Skips our own advertised address, so the whole mesh can share one
      // seed list.
      host->fabric_->AddPeerAddress(seed);
    }
    // The fabric owns the live peer set from here (AddClusterPeer grows
    // it); don't retain a snapshot that would silently diverge.
    host->options_.cluster_peers.clear();
    host->options_.cluster_seeds.clear();
  }
  // Runtime-level gauges live in the server's registry so one kServerStats
  // scrape covers the whole host. The callbacks read the pool/loop through
  // the host pointer; scrapes only run from RPC handlers, which are all
  // quiesced before the host's members are destroyed.
  {
    DiscfsHost* h = host.get();
    obs::MetricsRegistry& reg = h->server_->metrics();
    reg.RegisterGauge(
        "discfs_host_pool", "Shared worker pool state by kind", [h] {
          return std::vector<obs::GaugeSample>{
              {"kind=\"queue_depth\"",
               static_cast<double>(h->pool_->queue_depth())},
              {"kind=\"in_flight\"",
               static_cast<double>(h->pool_->in_flight())},
              {"kind=\"threads\"", static_cast<double>(h->pool_->size())},
              {"kind=\"submitted\"",
               static_cast<double>(h->pool_->submitted())},
          };
        });
    reg.RegisterGauge("discfs_host_loop", "Event loop state by kind", [h] {
      return std::vector<obs::GaugeSample>{
          {"kind=\"registered_fds\"",
           static_cast<double>(h->loop_->registered())},
          {"kind=\"dispatched\"", static_cast<double>(h->loop_->dispatched())},
      };
    });
    reg.RegisterGauge("discfs_host_connections",
                      "Live post-handshake connections", [h] {
                        return std::vector<obs::GaugeSample>{
                            {"",
                             static_cast<double>(h->connections_.active())}};
                      });
    reg.RegisterGauge(
        "discfs_host_handshakes", "Handshake reactor state by kind", [h] {
          HandshakeReactor::Stats s = h->handshakes_->stats();
          return std::vector<obs::GaugeSample>{
              {"kind=\"half_open\"", static_cast<double>(s.half_open)},
              {"kind=\"started\"", static_cast<double>(s.started)},
              {"kind=\"completed\"", static_cast<double>(s.completed)},
              {"kind=\"failed\"", static_cast<double>(s.failed)},
              {"kind=\"timed_out\"", static_cast<double>(s.timed_out)},
              {"kind=\"evicted\"", static_cast<double>(s.evicted)},
          };
        });
  }
  host->accept_thread_ = std::thread([h = host.get()] { h->AcceptLoop(); });
  return host;
}

Status DiscfsHost::AddClusterPeer(cluster::PeerConfig peer) {
  if (fabric_ == nullptr) {
    return FailedPreconditionError(
        "coherence fabric disabled (no cluster options configured)");
  }
  fabric_->AddPeer(std::move(peer));
  return OkStatus();
}

RpcConnection::Options DiscfsHost::ConnOptions() const {
  return MakeConnOptions(loop_.get(), pool_.get(), options_);
}

void DiscfsHost::AcceptLoop() {
  while (true) {
    auto conn = listener_->Accept();
    if (!conn.ok()) {
      return;  // listener closed
    }
    // The reactor owns the socket from here: handshake frames are pumped
    // off the event loop, crypto steps run on the pool, and established
    // channels come back through the on_established hook. The accept
    // thread never blocks on a peer and no worker is parked per socket.
    handshakes_->Begin(std::move(conn).value());
  }
}

DiscfsHost::~DiscfsHost() {
  // Members may be null when Start failed partway; every step guards.
  // Shutdown (not Close) so the accept thread's blocked accept(2) unblocks
  // without racing descriptor teardown; the fd closes with the listener.
  if (listener_ != nullptr) {
    listener_->Shutdown();
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // No new sockets can arrive now. Tear down half-open handshakes (their
  // loop callbacks quiesce; in-flight crypto steps on the pool observe
  // the shutdown flag and retire), then abort live connections and drain
  // the pool — a late-established channel sees the closing set and aborts.
  // The fabric goes down after the pool (no worker can still be applying
  // a peer push) and before the loop (its peer RpcClients must unregister
  // first); the loop dies last so every posted closure either ran or is
  // destroyed with it.
  if (handshakes_ != nullptr) {
    handshakes_->Shutdown();
  }
  connections_.CloseAll();
  if (pool_ != nullptr) {
    pool_->Shutdown();
  }
  fabric_.reset();
  loop_.reset();
}

Result<std::unique_ptr<CfsNeHost>> CfsNeHost::Start(std::shared_ptr<Vfs> vfs,
                                                    uint16_t port,
                                                    DiscfsHostOptions options) {
  auto host = std::unique_ptr<CfsNeHost>(new CfsNeHost());
  host->server_ = std::make_unique<NfsServer>(std::move(vfs));
  host->server_->RegisterAll(host->dispatcher_);
  host->loop_ = std::make_unique<EventLoop>();
  host->pool_ = std::make_unique<WorkerPool>(
      ResolveWorkerThreads(options.worker_threads));
  host->options_ = options;
  ASSIGN_OR_RETURN(host->listener_,
                   TcpListener::Listen(port, options.bind_addr));
  host->accept_thread_ = std::thread([h = host.get()] { h->AcceptLoop(); });
  return host;
}

void CfsNeHost::AcceptLoop() {
  while (true) {
    auto conn = listener_->Accept();
    if (!conn.ok()) {
      return;
    }
    // No handshake on the baseline: the accepted socket registers on the
    // loop straight from the accept thread.
    std::shared_ptr<MsgStream> transport = std::move(conn).value();
    RpcContext ctx;  // unauthenticated
    auto served = RpcConnection::Start(
        &dispatcher_, std::move(transport), std::move(ctx),
        MakeConnOptions(loop_.get(), pool_.get(), options_),
        [this](RpcConnection* c) { connections_.Remove(c); });
    if (!served.ok()) {
      continue;
    }
    if (!connections_.Add(*served)) {
      (*served)->Abort();
    }
  }
}

CfsNeHost::~CfsNeHost() {
  if (listener_ != nullptr) {  // null when Start failed partway
    listener_->Shutdown();
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  connections_.CloseAll();
  if (pool_ != nullptr) {
    pool_->Shutdown();
  }
  loop_.reset();
}

Result<std::unique_ptr<NfsClient>> ConnectCfsNe(const std::string& host,
                                                uint16_t port) {
  ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> transport,
                   TcpTransport::Connect(host, port));
  return ConnectCfsNeOver(std::move(transport));
}

Result<std::unique_ptr<NfsClient>> ConnectCfsNeOver(
    std::unique_ptr<MsgStream> stream) {
  auto rpc = std::make_shared<RpcClient>(std::move(stream));
  return std::make_unique<NfsClient>(std::move(rpc));
}

}  // namespace discfs
