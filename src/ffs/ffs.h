// FFS — an inode-based local filesystem over a BlockDevice, standing in for
// OpenBSD's Fast File System in the paper's stack. It serves two roles:
//   1. the storage substrate under the NFS/DisCFS servers, and
//   2. the "FFS" baseline measured in the paper's Figures 7-12.
//
// On-disk layout (block size fixed at format time, default 4096):
//   block 0:                superblock
//   blocks [ibm, ibm+n):    inode bitmap
//   blocks [dbm, dbm+m):    data bitmap (covers the data region)
//   blocks [itab, itab+k):  inode table (128-byte inodes)
//   blocks [data, end):     data blocks
//
// Files use 10 direct block pointers, one single-indirect and one
// double-indirect block (ext2-style). Directories are arrays of fixed
// 64-byte entries. Every inode carries a generation number, bumped on
// reuse, so NFS file handles (inode, generation) never resurrect — the
// handle scheme §5 of the paper borrows from 4.4BSD.
//
// Concurrency contract: Ffs always sits on a write-back BlockCache and may
// be called from many threads as long as the caller serializes per-object
// access the way NfsServer does:
//   - Create and Remove exclusive per parent directory (Remove also
//     exclusive on the target inode); namespace mutations in different
//     directories may run concurrently;
//   - Mkdir/Rmdir/Rename/Link/Symlink exclusive against everything;
//   - per-inode writes (Write/SetAttr) exclusive per inode, reads shared.
// Under that contract all shared internal state is safe: sub-block
// updates go through the cache's atomic Modify, allocation state (bitmaps,
// superblock counters) stays serialized by alloc_mu_, and the inode cache
// is sharded + write-through. Multi-block reads map the whole extent
// first and fetch it through BlockCache::ReadBlocks, which fills its
// misses in parallel. Check() requires a quiesced volume.
//
// Readahead policy lives here, per inode (a cursor in each inode-cache
// entry); BlockCache::Prefetch only executes it. A Read that starts where
// the previous read of that inode ended prefetches that file's next blocks.
#ifndef DISCFS_SRC_FFS_FFS_H_
#define DISCFS_SRC_FFS_FFS_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/blockdev/block_cache.h"
#include "src/blockdev/blockdev.h"
#include "src/util/status.h"

namespace discfs {

using InodeNum = uint32_t;

enum class FileType : uint8_t {
  kFree = 0,
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
};

struct InodeAttr {
  InodeNum inode = 0;
  uint32_t generation = 0;
  FileType type = FileType::kFree;
  uint32_t mode = 0;  // unix permission bits (low 12 bits)
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint32_t nlink = 0;
  uint64_t size = 0;
  int64_t atime = 0;
  int64_t mtime = 0;
  int64_t ctime = 0;
};

struct DirEntry {
  std::string name;
  InodeNum inode;
  FileType type;
};

struct SetAttrRequest {
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<uint64_t> size;  // truncate/extend
  std::optional<int64_t> atime;
  std::optional<int64_t> mtime;
};

struct StatFsInfo {
  uint32_t block_size = 0;
  uint64_t total_blocks = 0;
  uint64_t free_blocks = 0;
  uint32_t total_inodes = 0;
  uint32_t free_inodes = 0;
};

struct FfsMountOptions {
  // The block cache every mount reads and writes the device through.
  BlockCacheOptions cache;
};

struct FfsFormatOptions {
  FfsFormatOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): FfsFormatOptions{n} is
  // the established "format with n inodes" shorthand.
  FfsFormatOptions(uint32_t inodes) : inode_count(inodes) {}

  uint32_t inode_count = 4096;
  FfsMountOptions mount;
};

// fsck-style consistency report; `errors` empty means the volume is clean.
struct FsckReport {
  std::vector<std::string> errors;
  uint64_t files = 0;
  uint64_t directories = 0;
  uint64_t used_blocks = 0;
  bool clean() const { return errors.empty(); }
};

class Ffs {
 public:
  // 64-byte dir entry minus 4 (inode) + 1 (type) + 1 (name length).
  static constexpr size_t kMaxNameLen = 58;

  ~Ffs();  // flushes the block cache (Superblock is incomplete here)

  // Formats the device and mounts the fresh volume.
  static Result<std::unique_ptr<Ffs>> Format(
      std::shared_ptr<BlockDevice> device, const FfsFormatOptions& options);

  // Mounts an existing volume (validates the superblock).
  static Result<std::unique_ptr<Ffs>> Mount(
      std::shared_ptr<BlockDevice> device,
      const FfsMountOptions& options = {});

  InodeNum root() const { return root_inode_; }

  Result<InodeAttr> GetAttr(InodeNum inode);
  Status SetAttr(InodeNum inode, const SetAttrRequest& request);

  Result<InodeAttr> Lookup(InodeNum dir, const std::string& name);

  Result<InodeAttr> Create(InodeNum dir, const std::string& name,
                           uint32_t mode);
  Result<InodeAttr> Mkdir(InodeNum dir, const std::string& name,
                          uint32_t mode);
  Result<InodeAttr> Symlink(InodeNum dir, const std::string& name,
                            const std::string& target);
  Result<std::string> ReadLink(InodeNum inode);
  Status Link(InodeNum dir, const std::string& name, InodeNum target);

  Status Remove(InodeNum dir, const std::string& name);  // files & symlinks
  Status Rmdir(InodeNum dir, const std::string& name);   // empty dirs only
  Status Rename(InodeNum from_dir, const std::string& from_name,
                InodeNum to_dir, const std::string& to_name);

  Result<size_t> Read(InodeNum inode, uint64_t offset, size_t len,
                      uint8_t* out);
  // Extends the file as needed; returns bytes written (== len on success).
  Result<size_t> Write(InodeNum inode, uint64_t offset, const uint8_t* data,
                       size_t len);

  Result<std::vector<DirEntry>> ReadDir(InodeNum dir);

  Result<StatFsInfo> StatFs();

  // Durability barrier: flushes every dirty cached block to the device.
  Status Sync();

  // The write-back cache between Ffs and the device (never null).
  // Exposed for stats and crash-simulation tests.
  BlockCache* block_cache() const { return cache_.get(); }

  // Full-volume consistency check (reachability, bitmaps, link counts).
  Result<FsckReport> Check();

  // Current time source for inode timestamps (seconds); tests may override.
  void SetTimeSource(std::function<int64_t()> now) { now_ = std::move(now); }

 private:
  struct Superblock;
  struct DiskInode;
  struct InodeCache;

  // File blocks a sequential read keeps prefetched past its end.
  static constexpr uint64_t kReadaheadBlocks = 8;

  Ffs(std::shared_ptr<BlockDevice> device, const FfsMountOptions& options);

  Status LoadSuperblock();
  // Requires alloc_mu_ held (or a single-threaded mount/format path).
  Status WriteSuperblock();

  Result<DiskInode> ReadInode(InodeNum inode);
  Status WriteInode(InodeNum inode, const DiskInode& node);

  Result<InodeNum> AllocInode(FileType type, uint32_t mode);
  Status FreeInode(InodeNum inode);
  Result<uint64_t> AllocBlock();
  Status FreeBlock(uint64_t block);

  // Maps a file block index to a device block, optionally allocating the
  // path (direct / indirect / double-indirect). With `clear`, also zeroes
  // the pointer to the block it returns.
  Result<uint64_t> BMap(DiskInode& node, uint64_t file_block, bool allocate,
                        bool& dirty, bool clear = false);

  // Calls `fn` on every block `node` references: data blocks and the
  // (double-)indirect blocks mapping them, each after the blocks it maps.
  Status ForEachBlock(const DiskInode& node,
                      const std::function<Status(uint64_t)>& fn);
  Status FreeAllBlocks(DiskInode& node);
  Status TruncateTo(InodeNum inode, DiskInode& node, uint64_t new_size);

  // Calls `fn(slot, entry)` on each 64-byte directory slot in order (free
  // slots included) until it returns false.
  Status ScanDir(
      const DiskInode& dir_node,
      const std::function<bool(uint32_t slot, const uint8_t* entry)>& fn);
  Result<std::optional<std::pair<uint32_t, DirEntry>>> FindEntry(
      const DiskInode& dir_node, const std::string& name);
  // Directory `dir`, checked fit for `op` to add `name` to it.
  Result<DiskInode> DirForNewName(InodeNum dir, const std::string& name,
                                  const char* op);
  Status AddEntry(InodeNum dir, DiskInode& dir_node, const std::string& name,
                  InodeNum target, FileType type);
  Status RemoveEntrySlot(DiskInode& dir_node, uint32_t slot);
  Result<bool> DirIsEmpty(const DiskInode& dir_node);
  // True when directory `dir` is `top` or lies anywhere below it.
  Result<bool> DirIsWithin(InodeNum dir, InodeNum top);

  Result<size_t> ReadInternal(DiskInode& node, uint64_t offset, size_t len,
                              uint8_t* out);
  // After a Read of bytes [offset, end): maps and prefetches the blocks
  // the inode's read cursor asks for.
  void Readahead(InodeNum inode, DiskInode& node, uint64_t offset,
                 uint64_t end);
  Result<size_t> WriteInternal(InodeNum inode, DiskInode& node,
                               uint64_t offset, const uint8_t* data,
                               size_t len);

  InodeAttr ToAttr(InodeNum inode, const DiskInode& node) const;

  // Bitmap helpers: `bitmap_start` in blocks, index into the bitmap.
  Result<bool> BitmapGet(uint64_t bitmap_start, uint64_t index);
  Status BitmapSet(uint64_t bitmap_start, uint64_t index, bool value);
  Result<std::optional<uint64_t>> BitmapFindFree(uint64_t bitmap_start,
                                                 uint64_t count);

  // All I/O goes through the cache; sub-block updates use its atomic
  // Modify.
  std::unique_ptr<BlockCache> cache_;
  std::function<int64_t()> now_;
  std::unique_ptr<Superblock> sb_;
  // Serializes allocation state: bitmap find/set, superblock counters and
  // cursors, and StatFs.
  std::mutex alloc_mu_;
  std::unique_ptr<InodeCache> icache_;
  InodeNum root_inode_ = 1;
};

}  // namespace discfs

#endif  // DISCFS_SRC_FFS_FFS_H_
