#include "bench/fs_backend.h"

#include "src/crypto/groups.h"
#include "src/crypto/sysrand.h"
#include "src/discfs/credentials.h"
#include "src/net/shaper.h"
#include "src/util/strings.h"

namespace discfs::bench {
namespace {

FfsMountOptions MountOptions(const BackendOptions& opts) {
  FfsMountOptions mount;
  mount.cache.capacity_blocks = opts.cache_blocks;
  return mount;
}

Result<std::shared_ptr<FfsVfs>> FormatVolume(
    std::shared_ptr<BlockDevice> device, const BackendOptions& opts) {
  FfsFormatOptions format;
  format.inode_count = opts.inode_count;
  format.mount = MountOptions(opts);
  ASSIGN_OR_RETURN(std::unique_ptr<Ffs> fs,
                   Ffs::Format(std::move(device), format));
  return std::make_shared<FfsVfs>(std::move(fs));
}

std::shared_ptr<BlockDevice> MakeDevice(const BackendOptions& opts) {
  return std::make_shared<MemBlockDevice>(
      4096, opts.device_mib * 1024 * 1024 / 4096, opts.latency);
}

Result<std::shared_ptr<FfsVfs>> MakeVolume(const BackendOptions& opts) {
  return FormatVolume(MakeDevice(opts), opts);
}

// Splits "/a/b/c" into components.
std::vector<std::string> PathParts(const std::string& path) {
  std::vector<std::string> parts;
  for (const std::string& p : StrSplit(path, '/')) {
    if (!p.empty()) {
      parts.push_back(p);
    }
  }
  return parts;
}

// ---------------------------------------------------------------- FFS

class FfsBackend : public FsBackend {
 public:
  FfsBackend(std::shared_ptr<FfsVfs> vfs, std::shared_ptr<BlockDevice> device,
             FfsMountOptions mount)
      : vfs_(std::move(vfs)), device_(std::move(device)), mount_(mount) {}

  std::string name() const override { return "FFS"; }

  Result<BenchFile> CreateFile(const std::string& name) override {
    auto existing = vfs_->Lookup(vfs_->root(), name);
    if (existing.ok()) {
      SetAttrRequest truncate;
      truncate.size = 0;
      RETURN_IF_ERROR(vfs_->SetAttr(existing->inode, truncate));
      return BenchFile{NfsFh{existing->inode, existing->generation}};
    }
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Create(vfs_->root(), name, 0644));
    return BenchFile{NfsFh{attr.inode, attr.generation}};
  }

  Result<BenchFile> OpenFile(const std::string& name) override {
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Lookup(vfs_->root(), name));
    return BenchFile{NfsFh{attr.inode, attr.generation}};
  }

  Status WriteAt(const BenchFile& f, uint64_t offset, const uint8_t* data,
                 size_t len) override {
    ASSIGN_OR_RETURN(size_t n, vfs_->Write(f.fh.inode, offset, data, len));
    return n == len ? OkStatus() : IoError("short write");
  }

  Result<size_t> ReadAt(const BenchFile& f, uint64_t offset, uint8_t* buf,
                        size_t len) override {
    return vfs_->Read(f.fh.inode, offset, len, buf);
  }

  Status RemoveFile(const std::string& name) override {
    return vfs_->Remove(vfs_->root(), name);
  }

  Status MakeDirPath(const std::string& path) override {
    return MkdirAll(*vfs_, path, 0755).status();
  }

  Status WriteWholeFile(const std::string& path,
                        const std::string& contents) override {
    return WriteFileAt(*vfs_, path, contents);
  }

  Result<std::string> ReadWholeFile(const std::string& path) override {
    return ReadFileAt(*vfs_, path);
  }

  Result<std::vector<std::pair<std::string, bool>>> ListDir(
      const std::string& path) override {
    ASSIGN_OR_RETURN(InodeAttr dir, ResolvePath(*vfs_, path));
    ASSIGN_OR_RETURN(std::vector<DirEntry> entries, vfs_->ReadDir(dir.inode));
    std::vector<std::pair<std::string, bool>> out;
    out.reserve(entries.size());
    for (const DirEntry& e : entries) {
      out.emplace_back(e.name, e.type == FileType::kDirectory);
    }
    return out;
  }

  FfsVfs* vfs() { return vfs_.get(); }
  const std::shared_ptr<BlockDevice>& device() const { return device_; }
  const FfsMountOptions& mount() const { return mount_; }

 private:
  std::shared_ptr<FfsVfs> vfs_;
  std::shared_ptr<BlockDevice> device_;  // under the block cache
  FfsMountOptions mount_;
};

// -------------------------------------------------------- remote (shared)

// Path machinery shared by the two remote backends, parameterized over an
// NfsClient and a create function (DisCFS uses the credential-returning
// CREATE).
class RemoteBackendBase : public FsBackend {
 public:
  Result<BenchFile> CreateFile(const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFh root, Root());
    auto existing = nfs().Lookup(root, name);
    if (existing.ok()) {
      SetAttrRequest truncate;
      truncate.size = 0;
      RETURN_IF_ERROR(nfs().SetAttr(existing->fh, truncate).status());
      return BenchFile{existing->fh};
    }
    ASSIGN_OR_RETURN(NfsFattr attr, DoCreate(root, name));
    return BenchFile{attr.fh};
  }

  Result<BenchFile> OpenFile(const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFh root, Root());
    ASSIGN_OR_RETURN(NfsFattr attr, nfs().Lookup(root, name));
    return BenchFile{attr.fh};
  }

  Status WriteAt(const BenchFile& f, uint64_t offset, const uint8_t* data,
                 size_t len) override {
    return nfs().Write(f.fh, offset, Bytes(data, data + len)).status();
  }

  Result<size_t> ReadAt(const BenchFile& f, uint64_t offset, uint8_t* buf,
                        size_t len) override {
    ASSIGN_OR_RETURN(Bytes data,
                     nfs().Read(f.fh, offset, static_cast<uint32_t>(len)));
    std::copy(data.begin(), data.end(), buf);
    return data.size();
  }

  Status RemoveFile(const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFh root, Root());
    return nfs().Remove(root, name);
  }

  Status MakeDirPath(const std::string& path) override {
    ASSIGN_OR_RETURN(NfsFh dir, Root());
    std::string walked;
    for (const std::string& part : PathParts(path)) {
      walked += "/" + part;
      auto found = nfs().Lookup(dir, part);
      if (found.ok()) {
        dir = found->fh;
        continue;
      }
      ASSIGN_OR_RETURN(NfsFattr made, DoMkdir(dir, part));
      dir = made.fh;
      dir_cache_[walked] = dir;
    }
    return OkStatus();
  }

  Status WriteWholeFile(const std::string& path,
                        const std::string& contents) override {
    ASSIGN_OR_RETURN(auto parent_leaf, ResolveParentFh(path));
    auto [parent, leaf] = parent_leaf;
    NfsFh fh;
    auto existing = nfs().Lookup(parent, leaf);
    if (existing.ok()) {
      fh = existing->fh;
      SetAttrRequest truncate;
      truncate.size = 0;
      RETURN_IF_ERROR(nfs().SetAttr(fh, truncate).status());
    } else {
      ASSIGN_OR_RETURN(NfsFattr attr, DoCreate(parent, leaf));
      fh = attr.fh;
    }
    Bytes data(contents.begin(), contents.end());
    return nfs().Write(fh, 0, data).status();
  }

  Result<std::string> ReadWholeFile(const std::string& path) override {
    ASSIGN_OR_RETURN(auto parent_leaf, ResolveParentFh(path));
    auto [parent, leaf] = parent_leaf;
    ASSIGN_OR_RETURN(NfsFattr attr, nfs().Lookup(parent, leaf));
    std::string out;
    out.reserve(attr.size);
    uint64_t offset = 0;
    while (offset < attr.size) {
      uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(attr.size - offset, 1 << 16));
      ASSIGN_OR_RETURN(Bytes data, nfs().Read(attr.fh, offset, chunk));
      if (data.empty()) {
        break;
      }
      out.append(data.begin(), data.end());
      offset += data.size();
    }
    return out;
  }

  Result<std::vector<std::pair<std::string, bool>>> ListDir(
      const std::string& path) override {
    ASSIGN_OR_RETURN(NfsFh dir, ResolveDirFh(path));
    ASSIGN_OR_RETURN(std::vector<NfsDirEntry> entries, nfs().ReadDir(dir));
    std::vector<std::pair<std::string, bool>> out;
    out.reserve(entries.size());
    for (const NfsDirEntry& e : entries) {
      out.emplace_back(e.name, e.type == FileType::kDirectory);
    }
    return out;
  }

 protected:
  virtual NfsClient& nfs() = 0;
  virtual Result<NfsFattr> DoCreate(const NfsFh& dir,
                                    const std::string& name) = 0;
  virtual Result<NfsFattr> DoMkdir(const NfsFh& dir,
                                   const std::string& name) = 0;

  Result<NfsFh> Root() {
    if (!root_.has_value()) {
      ASSIGN_OR_RETURN(NfsFattr attr, nfs().GetRoot());
      root_ = attr.fh;
    }
    return *root_;
  }

  Result<NfsFh> ResolveDirFh(const std::string& path) {
    auto cached = dir_cache_.find(path);
    if (cached != dir_cache_.end()) {
      return cached->second;
    }
    ASSIGN_OR_RETURN(NfsFh dir, Root());
    std::string walked;
    for (const std::string& part : PathParts(path)) {
      walked += "/" + part;
      ASSIGN_OR_RETURN(NfsFattr attr, nfs().Lookup(dir, part));
      dir = attr.fh;
      dir_cache_[walked] = dir;
    }
    return dir;
  }

  Result<std::pair<NfsFh, std::string>> ResolveParentFh(
      const std::string& path) {
    std::vector<std::string> parts = PathParts(path);
    if (parts.empty()) {
      return InvalidArgumentError("no leaf in path");
    }
    std::string leaf = parts.back();
    std::string parent_path;
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
      parent_path += "/" + parts[i];
    }
    if (parent_path.empty()) {
      ASSIGN_OR_RETURN(NfsFh root, Root());
      return std::make_pair(root, leaf);
    }
    ASSIGN_OR_RETURN(NfsFh dir, ResolveDirFh(parent_path));
    return std::make_pair(dir, leaf);
  }

 private:
  std::optional<NfsFh> root_;
  std::map<std::string, NfsFh> dir_cache_;
};

// ---------------------------------------------------------------- CFS-NE

class CfsNeBackend : public RemoteBackendBase {
 public:
  CfsNeBackend(std::unique_ptr<CfsNeHost> host,
               std::unique_ptr<NfsClient> client)
      : host_(std::move(host)), client_(std::move(client)) {}

  ~CfsNeBackend() override {
    client_->rpc()->Close();
    host_.reset();
  }

  std::string name() const override { return "CFS-NE"; }

 protected:
  NfsClient& nfs() override { return *client_; }
  Result<NfsFattr> DoCreate(const NfsFh& dir,
                            const std::string& name) override {
    return client_->Create(dir, name, 0644);
  }
  Result<NfsFattr> DoMkdir(const NfsFh& dir,
                           const std::string& name) override {
    return client_->Mkdir(dir, name, 0755);
  }

 private:
  std::unique_ptr<CfsNeHost> host_;
  std::unique_ptr<NfsClient> client_;
};

// ---------------------------------------------------------------- DisCFS

class DiscfsBackend : public RemoteBackendBase {
 public:
  DiscfsBackend(std::unique_ptr<DiscfsHost> host,
                std::unique_ptr<DiscfsClient> client)
      : host_(std::move(host)), client_(std::move(client)) {}

  ~DiscfsBackend() override {
    client_->Close();
    host_.reset();
  }

  std::string name() const override { return "DisCFS"; }

  DiscfsServer* server() { return &host_->server(); }

 protected:
  NfsClient& nfs() override { return client_->nfs(); }
  Result<NfsFattr> DoCreate(const NfsFh& dir,
                            const std::string& name) override {
    // Plain NFS CREATE: the benchmark user's blanket credential already
    // covers new files, so there is no need to mint one per file. (Doing so
    // would also grow the KeyNote session linearly with the tree and every
    // cold policy evaluation is O(session size) — see the
    // BM_KeyNoteQuerySessionSize micro-benchmark.)
    return client_->nfs().Create(dir, name, 0644);
  }
  Result<NfsFattr> DoMkdir(const NfsFh& dir,
                           const std::string& name) override {
    return client_->nfs().Mkdir(dir, name, 0755);
  }

 private:
  std::unique_ptr<DiscfsHost> host_;
  std::unique_ptr<DiscfsClient> client_;
};

}  // namespace

Result<std::unique_ptr<FsBackend>> MakeFfsBackend(const BackendOptions& opts) {
  std::shared_ptr<BlockDevice> device = MakeDevice(opts);
  ASSIGN_OR_RETURN(std::shared_ptr<FfsVfs> vfs, FormatVolume(device, opts));
  return std::unique_ptr<FsBackend>(
      new FfsBackend(std::move(vfs), std::move(device), MountOptions(opts)));
}

Result<std::unique_ptr<FsBackend>> RemountFfsBackend(
    std::unique_ptr<FsBackend> backend) {
  auto* ffs = dynamic_cast<FfsBackend*>(backend.get());
  if (ffs == nullptr) {
    return InvalidArgumentError("remount needs an FFS backend");
  }
  RETURN_IF_ERROR(ffs->vfs()->ffs()->Sync());
  std::shared_ptr<BlockDevice> device = ffs->device();
  FfsMountOptions mount = ffs->mount();
  backend.reset();  // unmount before the fresh mount reads the device
  ASSIGN_OR_RETURN(std::unique_ptr<Ffs> fs, Ffs::Mount(device, mount));
  return std::unique_ptr<FsBackend>(new FfsBackend(
      std::make_shared<FfsVfs>(std::move(fs)), std::move(device), mount));
}

Result<std::unique_ptr<FsBackend>> MakeCfsNeBackend(
    const BackendOptions& opts) {
  ASSIGN_OR_RETURN(std::shared_ptr<FfsVfs> vfs, MakeVolume(opts));
  ASSIGN_OR_RETURN(std::unique_ptr<CfsNeHost> host,
                   CfsNeHost::Start(std::move(vfs)));
  // Pace the client link at the paper's testbed speed (DISCFS_LINK_MBPS to
  // change, 0 to disable).
  ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> transport,
                   TcpTransport::Connect("127.0.0.1", host->port()));
  ASSIGN_OR_RETURN(
      std::unique_ptr<NfsClient> client,
      ConnectCfsNeOver(
          MaybeShape(std::move(transport), LinkModelFromEnv())));
  return std::unique_ptr<FsBackend>(
      new CfsNeBackend(std::move(host), std::move(client)));
}

Result<std::unique_ptr<FsBackend>> MakeDiscfsBackend(
    const BackendOptions& opts) {
  ASSIGN_OR_RETURN(std::shared_ptr<FfsVfs> vfs, MakeVolume(opts));

  auto rand = [](size_t n) { return SysRandomBytes(n); };
  DsaPrivateKey admin_key = DsaPrivateKey::Generate(Dsa1024(), rand);
  DsaPrivateKey user_key = DsaPrivateKey::Generate(Dsa1024(), rand);

  DiscfsServerConfig config;
  config.server_key = admin_key;
  config.policy_cache_size = opts.policy_cache_size;
  config.policy_cache_ttl_s = opts.policy_cache_ttl_s;
  ASSIGN_OR_RETURN(std::unique_ptr<DiscfsHost> host,
                   DiscfsHost::Start(std::move(vfs), std::move(config)));

  ChannelIdentity identity{user_key, rand};
  // The shaped link sits UNDER the secure channel: ciphertext crosses the
  // modeled wire, exactly as IPsec packets crossed the paper's Ethernet.
  ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> transport,
                   TcpTransport::Connect("127.0.0.1", host->port()));
  ASSIGN_OR_RETURN(
      std::unique_ptr<DiscfsClient> client,
      DiscfsClient::ConnectOver(
          MaybeShape(std::move(transport), LinkModelFromEnv()), identity,
          admin_key.public_key()));

  // The administrator grants the benchmark user the whole store (blanket
  // credential, no HANDLE clause); every distinct handle still pays one
  // cold KeyNote evaluation, then hits the policy cache.
  CredentialOptions options;
  options.permissions = "RWX";
  options.comment = "benchmark user grant";
  ASSIGN_OR_RETURN(std::string credential,
                   IssueCredential(admin_key, user_key.public_key(),
                                   /*handle=*/"", options));
  RETURN_IF_ERROR(client->SubmitCredential(credential).status());

  return std::unique_ptr<FsBackend>(
      new DiscfsBackend(std::move(host), std::move(client)));
}

Result<std::vector<std::unique_ptr<FsBackend>>> MakeAllBackends(
    const BackendOptions& opts) {
  std::vector<std::unique_ptr<FsBackend>> backends;
  ASSIGN_OR_RETURN(std::unique_ptr<FsBackend> ffs, MakeFfsBackend(opts));
  backends.push_back(std::move(ffs));
  ASSIGN_OR_RETURN(std::unique_ptr<FsBackend> cfs, MakeCfsNeBackend(opts));
  backends.push_back(std::move(cfs));
  ASSIGN_OR_RETURN(std::unique_ptr<FsBackend> dis, MakeDiscfsBackend(opts));
  backends.push_back(std::move(dis));
  return backends;
}

DiscfsServer* BackendDiscfsServer(FsBackend& backend) {
  auto* discfs = dynamic_cast<DiscfsBackend*>(&backend);
  return discfs == nullptr ? nullptr : discfs->server();
}

Ffs* BackendFfs(FsBackend& backend) {
  auto* ffs = dynamic_cast<FfsBackend*>(&backend);
  return ffs == nullptr ? nullptr : ffs->vfs()->ffs();
}

}  // namespace discfs::bench
