#include "src/nfs/nfs_server.h"

#include <algorithm>
#include <mutex>

#include "src/util/strings.h"

namespace discfs {
namespace {

constexpr uint32_t kR = 4;
constexpr uint32_t kW = 2;
constexpr uint32_t kX = 1;

constexpr uint32_t kMaxReadCount = 1 << 22;  // 4 MiB per READ

}  // namespace

Result<InodeAttr> NfsServer::CheckFh(const NfsFh& fh) {
  auto attr = vfs_->GetAttr(fh.inode);
  if (!attr.ok()) {
    return NotFoundError("stale file handle (no such inode)");
  }
  if (attr->generation != fh.generation) {
    return NotFoundError("stale file handle (generation mismatch)");
  }
  return attr;
}

Status NfsServer::RunHook(NfsProc proc, const NfsFh& fh, uint32_t needed,
                          const RpcContext& ctx) {
  if (!access_hook_) {
    return OkStatus();
  }
  NfsAccessRequest request;
  request.proc = proc;
  request.fh = fh;
  request.needed = needed;
  request.ctx = &ctx;
  return access_hook_(request);
}

NfsServer::AllStripes NfsServer::LockAllStripes() {
  AllStripes locks;
  for (size_t i = 0; i < kInodeStripes; ++i) {
    locks[i] = std::unique_lock<std::shared_mutex>(inode_stripes_[i].mu);
  }
  return locks;
}

Result<NfsFattr> NfsServer::GetRoot() {
  std::shared_lock<std::shared_mutex> stripe(StripeFor(vfs_->root()));
  ASSIGN_OR_RETURN(InodeAttr attr, vfs_->GetAttr(vfs_->root()));
  return FattrFromInode(attr);
}

Result<NfsFattr> NfsServer::GetAttr(const NfsFh& fh) {
  std::shared_lock<std::shared_mutex> stripe(StripeFor(fh.inode));
  ASSIGN_OR_RETURN(InodeAttr attr, CheckFh(fh));
  return FattrFromInode(attr);
}

Result<NfsFattr> NfsServer::SetAttr(const NfsFh& fh,
                                    const SetAttrRequest& req) {
  std::unique_lock<std::shared_mutex> stripe(StripeFor(fh.inode));
  RETURN_IF_ERROR(CheckFh(fh).status());
  RETURN_IF_ERROR(vfs_->SetAttr(fh.inode, req));
  ASSIGN_OR_RETURN(InodeAttr attr, vfs_->GetAttr(fh.inode));
  return FattrFromInode(attr);
}

Result<NfsFattr> NfsServer::Lookup(const NfsFh& dir, const std::string& name) {
  std::shared_lock<std::shared_mutex> stripe(StripeFor(dir.inode));
  RETURN_IF_ERROR(CheckFh(dir).status());
  ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Lookup(dir.inode, name));
  return FattrFromInode(attr);
}

Result<Bytes> NfsServer::Read(const NfsFh& fh, uint64_t offset,
                              uint32_t count) {
  std::shared_lock<std::shared_mutex> stripe(StripeFor(fh.inode));
  RETURN_IF_ERROR(CheckFh(fh).status());
  if (count > kMaxReadCount) {
    return InvalidArgumentError("read count too large");
  }
  Bytes out(count);
  ASSIGN_OR_RETURN(size_t n, vfs_->Read(fh.inode, offset, count, out.data()));
  out.resize(n);
  return out;
}

Result<NfsFattr> NfsServer::Write(const NfsFh& fh, uint64_t offset,
                                  const Bytes& data) {
  std::unique_lock<std::shared_mutex> stripe(StripeFor(fh.inode));
  RETURN_IF_ERROR(CheckFh(fh).status());
  ASSIGN_OR_RETURN(size_t n,
                   vfs_->Write(fh.inode, offset, data.data(), data.size()));
  if (n != data.size()) {
    return IoError("short write");
  }
  ASSIGN_OR_RETURN(InodeAttr attr, vfs_->GetAttr(fh.inode));
  return FattrFromInode(attr);
}

Result<NfsFattr> NfsServer::Create(const NfsFh& dir, const std::string& name,
                                   uint32_t mode) {
  // Per-directory: creates in other directories, and data ops on other
  // inodes, proceed in parallel. The new inode needs no stripe (see the
  // locking notes in nfs_server.h).
  std::unique_lock<std::shared_mutex> stripe(StripeFor(dir.inode));
  RETURN_IF_ERROR(CheckFh(dir).status());
  ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Create(dir.inode, name, mode));
  return FattrFromInode(attr);
}

Result<NfsFattr> NfsServer::Mkdir(const NfsFh& dir, const std::string& name,
                                  uint32_t mode) {
  AllStripes all = LockAllStripes();
  RETURN_IF_ERROR(CheckFh(dir).status());
  ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Mkdir(dir.inode, name, mode));
  return FattrFromInode(attr);
}

Status NfsServer::Remove(const NfsFh& dir, const std::string& name) {
  // Per-directory: the parent's stripe orders this against lookups and
  // creates in the same directory, the target's against its readers and
  // writers. Resolve the target first, lock both stripes, then confirm
  // the name still maps to it (a concurrent remove + create may have
  // rebound it while nothing was held).
  for (;;) {
    InodeNum target = 0;
    {
      std::shared_lock<std::shared_mutex> stripe(StripeFor(dir.inode));
      RETURN_IF_ERROR(CheckFh(dir).status());
      ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Lookup(dir.inode, name));
      target = attr.inode;
    }
    // Two stripes are always taken in index order (one if they coincide).
    const size_t lo = std::min(dir.inode % kInodeStripes,
                               target % kInodeStripes);
    const size_t hi = std::max(dir.inode % kInodeStripes,
                               target % kInodeStripes);
    std::unique_lock<std::shared_mutex> first(inode_stripes_[lo].mu);
    std::unique_lock<std::shared_mutex> second;
    if (hi != lo) {
      second = std::unique_lock<std::shared_mutex>(inode_stripes_[hi].mu);
    }
    RETURN_IF_ERROR(CheckFh(dir).status());
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Lookup(dir.inode, name));
    if (attr.inode == target) {
      return vfs_->Remove(dir.inode, name);
    }
  }
}

Status NfsServer::Rmdir(const NfsFh& dir, const std::string& name) {
  AllStripes all = LockAllStripes();
  RETURN_IF_ERROR(CheckFh(dir).status());
  return vfs_->Rmdir(dir.inode, name);
}

Status NfsServer::Rename(const NfsFh& from_dir, const std::string& from_name,
                         const NfsFh& to_dir, const std::string& to_name) {
  AllStripes all = LockAllStripes();
  RETURN_IF_ERROR(CheckFh(from_dir).status());
  RETURN_IF_ERROR(CheckFh(to_dir).status());
  return vfs_->Rename(from_dir.inode, from_name, to_dir.inode, to_name);
}

Status NfsServer::Link(const NfsFh& dir, const std::string& name,
                       const NfsFh& target) {
  AllStripes all = LockAllStripes();
  RETURN_IF_ERROR(CheckFh(dir).status());
  RETURN_IF_ERROR(CheckFh(target).status());
  return vfs_->Link(dir.inode, name, target.inode);
}

Result<NfsFattr> NfsServer::Symlink(const NfsFh& dir, const std::string& name,
                                    const std::string& target) {
  AllStripes all = LockAllStripes();
  RETURN_IF_ERROR(CheckFh(dir).status());
  ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Symlink(dir.inode, name, target));
  return FattrFromInode(attr);
}

Result<std::string> NfsServer::ReadLink(const NfsFh& fh) {
  std::shared_lock<std::shared_mutex> stripe(StripeFor(fh.inode));
  RETURN_IF_ERROR(CheckFh(fh).status());
  return vfs_->ReadLink(fh.inode);
}

Result<std::vector<NfsDirEntry>> NfsServer::ReadDir(const NfsFh& dir) {
  std::shared_lock<std::shared_mutex> stripe(StripeFor(dir.inode));
  RETURN_IF_ERROR(CheckFh(dir).status());
  ASSIGN_OR_RETURN(std::vector<DirEntry> raw, vfs_->ReadDir(dir.inode));
  std::vector<NfsDirEntry> entries;
  entries.reserve(raw.size());
  for (const DirEntry& e : raw) {
    // Each entry carries a full handle so clients can chain operations
    // without extra LOOKUPs.
    auto attr = vfs_->GetAttr(e.inode);
    if (!attr.ok()) {
      continue;  // raced with a concurrent remove
    }
    entries.push_back(
        NfsDirEntry{e.name, NfsFh{attr->inode, attr->generation}, e.type});
  }
  return entries;
}

Result<NfsStatFs> NfsServer::StatFs() {
  // No stripe: the volume counters are read under Ffs's allocator lock.
  ASSIGN_OR_RETURN(StatFsInfo info, vfs_->StatFs());
  NfsStatFs out;
  out.block_size = info.block_size;
  out.total_blocks = info.total_blocks;
  out.free_blocks = info.free_blocks;
  out.total_inodes = info.total_inodes;
  out.free_inodes = info.free_inodes;
  return out;
}

void NfsServer::RegisterAll(RpcDispatcher& dispatcher) {
  auto reg = [&](NfsProc proc, auto handler) {
    dispatcher.Register(
        kNfsProgram, static_cast<uint32_t>(proc),
        [this, handler](const Bytes& args,
                        const RpcContext& ctx) -> Result<Bytes> {
          ++ops_served_;
          return handler(args, ctx);
        });
  };

  reg(NfsProc::kNull,
      [](const Bytes&, const RpcContext&) -> Result<Bytes> {
        return Bytes();
      });

  reg(NfsProc::kGetRoot,
      [this](const Bytes&, const RpcContext&) -> Result<Bytes> {
        ASSIGN_OR_RETURN(NfsFattr attr, GetRoot());
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kGetAttr,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        RETURN_IF_ERROR(RunHook(NfsProc::kGetAttr, fh, 0, ctx));
        ASSIGN_OR_RETURN(NfsFattr attr, GetAttr(fh));
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kSetAttr,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        ASSIGN_OR_RETURN(SetAttrRequest req, ReadSetAttr(r));
        RETURN_IF_ERROR(RunHook(NfsProc::kSetAttr, fh, kW, ctx));
        ASSIGN_OR_RETURN(NfsFattr attr, SetAttr(fh, req));
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kLookup,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string name, r.GetString());
        RETURN_IF_ERROR(RunHook(NfsProc::kLookup, dir, kX, ctx));
        ASSIGN_OR_RETURN(NfsFattr attr, Lookup(dir, name));
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kReadLink,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        RETURN_IF_ERROR(RunHook(NfsProc::kReadLink, fh, kR, ctx));
        ASSIGN_OR_RETURN(std::string target, ReadLink(fh));
        XdrWriter w;
        w.PutString(target);
        return w.Take();
      });

  reg(NfsProc::kRead,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
        ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
        RETURN_IF_ERROR(RunHook(NfsProc::kRead, fh, kR, ctx));
        ASSIGN_OR_RETURN(Bytes data, Read(fh, offset, count));
        XdrWriter w;
        w.PutOpaque(data);
        return w.Take();
      });

  reg(NfsProc::kWrite,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
        ASSIGN_OR_RETURN(Bytes data, r.GetOpaque());
        RETURN_IF_ERROR(RunHook(NfsProc::kWrite, fh, kW, ctx));
        ASSIGN_OR_RETURN(NfsFattr attr, Write(fh, offset, data));
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kCreate,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string name, r.GetString());
        ASSIGN_OR_RETURN(uint32_t mode, r.GetU32());
        RETURN_IF_ERROR(RunHook(NfsProc::kCreate, dir, kW, ctx));
        ASSIGN_OR_RETURN(NfsFattr attr, Create(dir, name, mode));
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kRemove,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string name, r.GetString());
        RETURN_IF_ERROR(RunHook(NfsProc::kRemove, dir, kW, ctx));
        RETURN_IF_ERROR(Remove(dir, name));
        return Bytes();
      });

  reg(NfsProc::kRename,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh from_dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string from_name, r.GetString());
        ASSIGN_OR_RETURN(NfsFh to_dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string to_name, r.GetString());
        RETURN_IF_ERROR(RunHook(NfsProc::kRename, from_dir, kW, ctx));
        RETURN_IF_ERROR(RunHook(NfsProc::kRename, to_dir, kW, ctx));
        RETURN_IF_ERROR(Rename(from_dir, from_name, to_dir, to_name));
        return Bytes();
      });

  reg(NfsProc::kLink,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string name, r.GetString());
        ASSIGN_OR_RETURN(NfsFh target, ReadFh(r));
        RETURN_IF_ERROR(RunHook(NfsProc::kLink, dir, kW, ctx));
        RETURN_IF_ERROR(RunHook(NfsProc::kLink, target, kR, ctx));
        RETURN_IF_ERROR(Link(dir, name, target));
        return Bytes();
      });

  reg(NfsProc::kSymlink,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string name, r.GetString());
        ASSIGN_OR_RETURN(std::string target, r.GetString());
        RETURN_IF_ERROR(RunHook(NfsProc::kSymlink, dir, kW, ctx));
        ASSIGN_OR_RETURN(NfsFattr attr, Symlink(dir, name, target));
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kMkdir,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string name, r.GetString());
        ASSIGN_OR_RETURN(uint32_t mode, r.GetU32());
        RETURN_IF_ERROR(RunHook(NfsProc::kMkdir, dir, kW, ctx));
        ASSIGN_OR_RETURN(NfsFattr attr, Mkdir(dir, name, mode));
        XdrWriter w;
        WriteFattr(w, attr);
        return w.Take();
      });

  reg(NfsProc::kRmdir,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        ASSIGN_OR_RETURN(std::string name, r.GetString());
        RETURN_IF_ERROR(RunHook(NfsProc::kRmdir, dir, kW, ctx));
        RETURN_IF_ERROR(Rmdir(dir, name));
        return Bytes();
      });

  reg(NfsProc::kReadDir,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
        RETURN_IF_ERROR(RunHook(NfsProc::kReadDir, dir, kR, ctx));
        ASSIGN_OR_RETURN(std::vector<NfsDirEntry> entries, ReadDir(dir));
        XdrWriter w;
        WriteDirEntries(w, entries);
        return w.Take();
      });

  reg(NfsProc::kStatFs,
      [this](const Bytes&, const RpcContext&) -> Result<Bytes> {
        ASSIGN_OR_RETURN(NfsStatFs info, StatFs());
        XdrWriter w;
        WriteStatFs(w, info);
        return w.Take();
      });
}

}  // namespace discfs
