// Content-addressed chunk store over the NFS/FFS stack.
//
// Chunks are immutable blobs named by the SHA-256 of their content (64
// lowercase hex chars) and stored as regular files in the backing Ffs via
// NfsServer's direct entry points — never raw Vfs calls, because Ffs's
// concurrency contract requires NfsServer's inode-stripe serialization.
//
// On-disk layout (Ffs caps names at 58 bytes, shorter than a full hex id,
// so the id is split and also embedded verbatim in the chunk header):
//
//   /.lockbox/chunks/<hex[0:2]>/<hex[2:58]>
//     "CNK1" | u32 refcount (BE) | 32-byte raw id | chunk data
//
// Get() re-verifies the embedded id against the requested one, so a name
// collision in the truncated file name (or on-disk corruption) is detected
// rather than served.
//
// Put() of bytes that already exist bumps the refcount instead of storing
// a second copy — that is the dedup: identical public plaintext chunks
// from different users converge on one stored chunk. Release() decrements
// and garbage-collects the file at zero.
//
// Thread safety: refcount read-modify-write is serialized by per-chunk
// mutex shards (keyed by the value of the id's leading hex digit); the
// NfsServer calls inside take their own namespace/stripe locks, acquired
// strictly after the shard lock, so lock order is shard -> ns -> stripe.
// The directory spine is resolved once per prefix and its handles kept:
// the store never removes those directories.
#ifndef DISCFS_SRC_LOCKBOX_CHUNKSTORE_H_
#define DISCFS_SRC_LOCKBOX_CHUNKSTORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/nfs/nfs_server.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs {

class ChunkStore {
 public:
  // Computed over chunk content; also the store's addressing key.
  static std::string ChunkId(const Bytes& data);

  explicit ChunkStore(NfsServer* nfs) : nfs_(nfs) {}

  // Stores `data` (or bumps the refcount of the identical existing chunk)
  // and returns its id.
  Result<std::string> Put(const Bytes& data);

  // Returns the chunk's content. NotFound if no live chunk has this id.
  Result<Bytes> Get(const std::string& id);

  // Drops one reference; deletes the chunk file when the count hits zero.
  Status Release(const std::string& id);

  // Current reference count (0 if the chunk does not exist).
  Result<uint32_t> RefCount(const std::string& id);

  struct Stats {
    uint64_t puts = 0;        // total Put() calls
    uint64_t dedup_hits = 0;  // Puts satisfied by an existing chunk
    uint64_t stored = 0;      // chunks written (unique content)
    uint64_t removed = 0;     // chunks garbage-collected at refcount zero
  };
  Stats stats() const {
    return {puts_.load(), dedup_hits_.load(), stored_.load(), removed_.load()};
  }

  // --- integrity audit (PR 10) ---
  // Mark-and-sweep consistency check between the stored chunks and the
  // live lockbox records. Mark: decode every /.lockbox/box sidecar and
  // count the references each chunk id receives. Sweep: walk every stored
  // chunk file, read its header, and compare the persisted refcount with
  // the live count. Advisory: run it while lockbox mutation is quiesced
  // (a concurrent Put/Release legitimately shows as a transient skew).
  struct AuditReport {
    uint64_t live_records = 0;     // sidecars decoded
    uint64_t chunks_scanned = 0;   // stored chunk files walked
    uint64_t live_references = 0;  // record -> chunk edges counted
    // Stored but referenced by no record: leaked space, never data loss.
    std::vector<std::string> orphaned;
    // Header refcount above the live count: Release can never reach zero,
    // so the chunk would leak even after every referencing record dies.
    std::vector<std::string> over_referenced;
    // Header refcount below the live count: the dangerous direction — a
    // future Release could garbage-collect data a live record still needs.
    std::vector<std::string> under_referenced;
    // Referenced by a record but not stored: data loss already happened.
    std::vector<std::string> missing;
    // Unreadable header, bad magic, or embedded id disagreeing with the
    // file's location.
    std::vector<std::string> corrupt;
    bool clean() const {
      return orphaned.empty() && over_referenced.empty() &&
             under_referenced.empty() && missing.empty() && corrupt.empty();
    }
  };
  Result<AuditReport> Audit();

  // Refcount shard of `id`: the value (0-15) of its leading hex digit, so
  // uniformly distributed ids spread over every shard. Public for tests.
  static size_t ShardIndex(const std::string& id);

 private:
  static constexpr size_t kShards = 16;
  static constexpr size_t kHeaderSize = 4 + 4 + 32;  // magic, refcount, id
  static constexpr size_t kRefCountOffset = 4;

  static constexpr size_t kPrefixes = 256;  // two hex digits

  // Resolves (creating on demand) /.lockbox/chunks/<prefix>; `prefix` is
  // two lowercase hex digits. After the first success the handle comes
  // from prefix_dirs_ without touching init_mu_ or the namespace.
  Result<NfsFh> PrefixDir(const std::string& prefix, bool create);
  // Lookup of the chunk file plus header validation against `id`.
  Result<NfsFh> FindChunk(const std::string& id);
  Result<uint32_t> ReadRefCount(const NfsFh& fh);
  Status WriteRefCount(const NfsFh& fh, uint32_t count);

  std::mutex& ShardFor(const std::string& id) {
    return shards_[ShardIndex(id)];
  }

  NfsServer* nfs_;
  std::mutex init_mu_;  // guards lazy creation of the directory spine
  std::array<AtomicFh, kPrefixes> prefix_dirs_;
  std::array<std::mutex, kShards> shards_;
  std::atomic<uint64_t> puts_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  std::atomic<uint64_t> stored_{0};
  std::atomic<uint64_t> removed_{0};
};

}  // namespace discfs

#endif  // DISCFS_SRC_LOCKBOX_CHUNKSTORE_H_
