// User-level NFS server over a Vfs, in the mold of the paper's modified CFS
// daemon. Access control is pluggable: the plain server (the CFS-NE
// baseline) installs no hook and allows everything; the DisCFS server
// installs a hook that consults KeyNote — the paper's separation of
// mechanism (here) from policy (src/discfs).
#ifndef DISCFS_SRC_NFS_NFS_SERVER_H_
#define DISCFS_SRC_NFS_NFS_SERVER_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "src/keynote/lattice.h"
#include "src/nfs/protocol.h"
#include "src/rpc/rpc.h"
#include "src/vfs/vfs.h"

namespace discfs {

// Permission bits requested by an operation, in the paper's RWX lattice
// encoding (R=4, W=2, X=1).
struct NfsAccessRequest {
  NfsProc proc;
  NfsFh fh;             // object the permission applies to
  uint32_t needed = 0;  // RWX mask
  const RpcContext* ctx = nullptr;
};

class NfsServer {
 public:
  using AccessHook = std::function<Status(const NfsAccessRequest&)>;

  explicit NfsServer(std::shared_ptr<Vfs> vfs) : vfs_(std::move(vfs)) {}

  // Install the policy hook (DisCFS). Without one, all operations are
  // permitted (CFS-NE / plain NFS semantics).
  void set_access_hook(AccessHook hook) { access_hook_ = std::move(hook); }

  // Registers all NFS procedures under kNfsProgram.
  void RegisterAll(RpcDispatcher& dispatcher);

  // Direct entry points (used by the DisCFS server's augmented procedures
  // and by tests). These do NOT run the access hook; RPC handlers do.
  Result<NfsFattr> GetRoot();
  Result<NfsFattr> GetAttr(const NfsFh& fh);
  Result<NfsFattr> SetAttr(const NfsFh& fh, const SetAttrRequest& req);
  Result<NfsFattr> Lookup(const NfsFh& dir, const std::string& name);
  Result<Bytes> Read(const NfsFh& fh, uint64_t offset, uint32_t count);
  Result<NfsFattr> Write(const NfsFh& fh, uint64_t offset, const Bytes& data);
  Result<NfsFattr> Create(const NfsFh& dir, const std::string& name,
                          uint32_t mode);
  Result<NfsFattr> Mkdir(const NfsFh& dir, const std::string& name,
                         uint32_t mode);
  Status Remove(const NfsFh& dir, const std::string& name);
  Status Rmdir(const NfsFh& dir, const std::string& name);
  Status Rename(const NfsFh& from_dir, const std::string& from_name,
                const NfsFh& to_dir, const std::string& to_name);
  Status Link(const NfsFh& dir, const std::string& name, const NfsFh& target);
  Result<NfsFattr> Symlink(const NfsFh& dir, const std::string& name,
                           const std::string& target);
  Result<std::string> ReadLink(const NfsFh& fh);
  Result<std::vector<NfsDirEntry>> ReadDir(const NfsFh& dir);
  Result<NfsStatFs> StatFs();

  // Number of RPC-dispatched operations served (benchmark telemetry).
  uint64_t ops_served() const { return ops_served_; }

 private:
  // Validates that the handle references a live inode with a matching
  // generation; the NFS "stale file handle" condition otherwise.
  Result<InodeAttr> CheckFh(const NfsFh& fh);

  Status RunHook(NfsProc proc, const NfsFh& fh, uint32_t needed,
                 const RpcContext& ctx);

  std::shared_ptr<Vfs> vfs_;
  AccessHook access_hook_;

  // Per-inode stripes are the only lock, so independent files and
  // directories proceed in parallel on the worker pool:
  //   - reads of an inode take its stripe shared, Write/SetAttr exclusive;
  //   - Create takes the parent directory's stripe exclusive; Remove takes
  //     the parent's and the target's stripes exclusive and re-checks after
  //     locking that the name still maps to the same inode;
  //   - Mkdir/Rmdir/Rename/Link/Symlink move or re-parent names across
  //     directories, so they take every stripe exclusive (LockAllStripes).
  // Stripes are always taken in ascending index order, so no deadlocks.
  // StatFs takes none: Ffs's allocator lock guards the counters it reads.
  // A new inode from Create needs no stripe: until Create returns, every
  // handle naming that inode number is stale (its generation was bumped)
  // and CheckFh rejects it.
  // 32 stripes keep independent files apart, and few enough that a thread
  // holding all of them plus the storage layers' own locks stays inside
  // ThreadSanitizer's limit of 64 locks held at once.
  // Each stripe has a cache line to itself: readers of neighbouring
  // inodes must not bounce one line between cores.
  static constexpr size_t kInodeStripes = 32;
  struct alignas(64) Stripe {
    std::shared_mutex mu;
  };
  using AllStripes =
      std::array<std::unique_lock<std::shared_mutex>, kInodeStripes>;
  std::shared_mutex& StripeFor(InodeNum inode) {
    return inode_stripes_[inode % kInodeStripes].mu;
  }
  AllStripes LockAllStripes();
  std::array<Stripe, kInodeStripes> inode_stripes_;

  std::atomic<uint64_t> ops_served_{0};
};

}  // namespace discfs

#endif  // DISCFS_SRC_NFS_NFS_SERVER_H_
