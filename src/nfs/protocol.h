// NFSv2-style protocol definitions shared by the user-level server and
// client (RFC 1094 procedure numbering; ROOT and WRITECACHE are obsolete and
// not implemented; GETROOT stands in for the separate MOUNT protocol).
//
// File handles are (inode, generation) — the 4.4BSD-style handle the paper
// adopts for DisCFS (§5) — encoded as two u32s.
#ifndef DISCFS_SRC_NFS_PROTOCOL_H_
#define DISCFS_SRC_NFS_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ffs/ffs.h"
#include "src/util/status.h"
#include "src/wire/xdr.h"

namespace discfs {

// The real NFS RPC program number.
inline constexpr uint32_t kNfsProgram = 100003;

enum class NfsProc : uint32_t {
  kNull = 0,
  kGetAttr = 1,
  kSetAttr = 2,
  // 3 = ROOT (obsolete)
  kLookup = 4,
  kReadLink = 5,
  kRead = 6,
  // 7 = WRITECACHE (obsolete)
  kWrite = 8,
  kCreate = 9,
  kRemove = 10,
  kRename = 11,
  kLink = 12,
  kSymlink = 13,
  kMkdir = 14,
  kRmdir = 15,
  kReadDir = 16,
  kStatFs = 17,
  kGetRoot = 18,  // stands in for the MOUNT protocol
};

struct NfsFh {
  uint32_t inode = 0;
  uint32_t generation = 0;

  bool operator==(const NfsFh& o) const {
    return inode == o.inode && generation == o.generation;
  }
  bool operator<(const NfsFh& o) const {
    return inode != o.inode ? inode < o.inode : generation < o.generation;
  }
};

// A resolved handle that threads read without a lock. The handle is packed
// into one word (inode in the high half); inode 0 is never valid, so an
// empty slot reads as nullopt.
class AtomicFh {
 public:
  std::optional<NfsFh> Load() const {
    uint64_t packed = packed_.load(std::memory_order_acquire);
    if (packed == 0) {
      return std::nullopt;
    }
    return NfsFh{static_cast<uint32_t>(packed >> 32),
                 static_cast<uint32_t>(packed)};
  }
  void Store(const NfsFh& fh) {
    packed_.store((static_cast<uint64_t>(fh.inode) << 32) | fh.generation,
                  std::memory_order_release);
  }

 private:
  std::atomic<uint64_t> packed_{0};
};

// File attributes on the wire (the NFSv2 fattr, trimmed to what the stack
// uses).
struct NfsFattr {
  NfsFh fh;
  FileType type = FileType::kFree;
  uint32_t mode = 0;
  uint32_t nlink = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;
  int64_t atime = 0;
  int64_t mtime = 0;
  int64_t ctime = 0;
};

struct NfsDirEntry {
  std::string name;
  NfsFh fh;
  FileType type = FileType::kFree;
};

struct NfsStatFs {
  uint32_t block_size = 0;
  uint64_t total_blocks = 0;
  uint64_t free_blocks = 0;
  uint32_t total_inodes = 0;
  uint32_t free_inodes = 0;
};

// XDR codecs.
void WriteFh(XdrWriter& w, const NfsFh& fh);
Result<NfsFh> ReadFh(XdrReader& r);
void WriteFattr(XdrWriter& w, const NfsFattr& attr);
Result<NfsFattr> ReadFattr(XdrReader& r);
void WriteSetAttr(XdrWriter& w, const SetAttrRequest& req);
Result<SetAttrRequest> ReadSetAttr(XdrReader& r);
void WriteDirEntries(XdrWriter& w, const std::vector<NfsDirEntry>& entries);
Result<std::vector<NfsDirEntry>> ReadDirEntries(XdrReader& r);
void WriteStatFs(XdrWriter& w, const NfsStatFs& info);
Result<NfsStatFs> ReadStatFs(XdrReader& r);

NfsFattr FattrFromInode(const InodeAttr& attr);

}  // namespace discfs

#endif  // DISCFS_SRC_NFS_PROTOCOL_H_
