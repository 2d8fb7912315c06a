// Sharded write-back block cache with a prefetch mechanism.
//
// Sits between Ffs and a backing BlockDevice. Same shard idiom as
// PolicyCache / VerifiedSignatureCache: N independent shards, each a
// mutex + LRU list + hash map, so unrelated blocks never contend.
// Consecutive blocks map to the same shard in groups of 8 so a
// sequential scan (and its prefetch) stays shard-local.
//
// Write policy is write-back: Write()/Modify() dirty the cached copy
// without touching the device. Dirty blocks reach the device via
//   - eviction (LRU victim is written back before being dropped),
//   - the background flusher (woken when dirty count crosses the
//     watermark, and on a periodic interval),
//   - Sync(), the durability barrier Ffs uses at metadata sync points.
// DropDirty() discards all un-flushed dirty blocks — a crash simulation
// seam for fsck tests; the device is left exactly as of the last flush.
//
// Modify(block, fn) runs a read-modify-write atomically under the shard
// lock on the authoritative cached copy. Ffs uses it for every sub-block
// update (inode table slots, bitmap bits, indirect pointers) so two
// threads patching different inodes in the same 4 KiB block cannot lose
// each other's update.
//
// Device I/O never runs under a shard lock. A miss inserts an entry
// marked `filling` and reads the device with the lock dropped; other
// readers of that block wait on the shard's condvar instead of issuing
// a second read, and hits on other blocks of the shard proceed. A
// write-back marks the entry `writing`, writes a snapshot with the lock
// dropped, and marks it clean only if no newer write landed meanwhile
// (the entry's version is unchanged). Eviction skips busy entries.
// ReadBlocks() claims every missing block of an extent at once and fills
// them in parallel on a small I/O pool; Prefetch() is fire-and-forget on
// the same pool. The cache never decides what to prefetch: Ffs, which
// knows which blocks belong to one file and in what order, does. See
// README.md in this directory for the full design.
#ifndef DISCFS_SRC_BLOCKDEV_BLOCK_CACHE_H_
#define DISCFS_SRC_BLOCKDEV_BLOCK_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/blockdev/blockdev.h"
#include "src/util/status.h"
#include "src/util/worker_pool.h"

namespace discfs {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct BlockCacheOptions {
  // Total cached blocks across all shards.
  size_t capacity_blocks = 1024;
  // 0 = derived from capacity (~64 blocks/shard, power of two, <= 16).
  size_t num_shards = 0;
  // Flusher wakes when this many blocks are dirty. 0 = capacity/4.
  size_t flush_watermark = 0;
  // Periodic flush interval. 0 disables the periodic wakeup (the
  // flusher then only runs on watermark pressure).
  uint64_t flush_interval_ms = 200;
  // Run the background flusher thread at all. Tests that need exact
  // control over when write-back happens turn this off.
  bool flusher_thread = true;
};

struct BlockCacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> writebacks{0};
  std::atomic<uint64_t> readaheads{0};  // blocks filled by Prefetch()
  std::atomic<uint64_t> sync_flushes{0};
  std::atomic<uint64_t> dropped_dirty{0};
};

class BlockCache : public BlockDevice {
 public:
  BlockCache(std::shared_ptr<BlockDevice> base, BlockCacheOptions opts);
  // Flushes all dirty blocks and stops the flusher.
  ~BlockCache() override;

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return base_->block_count(); }

  Status Read(uint64_t block, uint8_t* buf) override;
  // Reads `len` bytes at `offset` within `block` (offset + len <=
  // block_size()): a pointer slot, an inode, or the part of a block a
  // small file read wants, without copying the rest of the block.
  Status ReadPart(uint64_t block, size_t offset, size_t len, uint8_t* out);
  // Reads `blocks` into `out` (blocks.size() * block_size() bytes, in
  // order). Every missing block is claimed up front and the claims are
  // filled concurrently on the I/O pool and the calling thread, so an
  // extent of N cold blocks costs about N / (pool size + 1) device
  // latencies instead of N.
  Status ReadBlocks(const std::vector<uint64_t>& blocks, uint8_t* out);
  // Fire-and-forget readahead: claims each absent block of `blocks` on the
  // calling thread (so a read arriving before the fill waits for it rather
  // than missing) and fills the claims on the I/O pool. Opportunistic: it
  // only takes clean idle victims, stops at the first full shard without
  // one, never waits, and starts no pool when nothing is claimed.
  void Prefetch(const std::vector<uint64_t>& blocks);
  // Full-block overwrite: installs the new contents dirty without
  // reading the device.
  Status Write(uint64_t block, const uint8_t* buf) override;

  // Atomic read-modify-write under the shard lock. `fn` receives the
  // cached block contents (filled from the device on miss) and may
  // mutate them in place; the block is marked dirty afterwards.
  Status Modify(uint64_t block, const std::function<void(uint8_t*)>& fn);

  // Durability barrier: writes every dirty block to the device, waiting
  // out any write-back already in flight. On return all writes that
  // happened-before the call are on the device.
  Status Sync();

  // Crash simulation: discards all dirty blocks without writing them.
  // Returns how many were dropped. The device then holds exactly the
  // image as of the last flush/Sync.
  size_t DropDirty();

  // Physical I/O counters (the backing device's).
  const BlockDeviceStats& stats() const override { return base_->stats(); }
  // Hits and misses are counted per shard, next to the shard lock, so a
  // hit writes no process-wide cache line; each call folds them into the
  // returned counters. Call it again for fresh values.
  const BlockCacheStats& cache_stats() const;
  void ResetCacheStats();

  // Exports the cache counters (and dirty/cached block levels) as gauges
  // on `registry`, labeled {kind}. The registry reads them only at scrape
  // time; the cache must outlive it.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  size_t dirty_blocks() const {
    return dirty_count_.load(std::memory_order_relaxed);
  }
  size_t cached_blocks() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  using Lock = std::unique_lock<std::mutex>;

  struct Entry {
    std::vector<uint8_t> data;
    bool dirty = false;
    // A device read is filling `data` with the shard lock dropped; only
    // the filler touches the entry until it clears.
    bool filling = false;
    // A write-back of a snapshot of `data` is in flight.
    bool writing = false;
    // Bumped on every mutation: a write-back marks the entry clean only
    // if the version it snapshotted is still current.
    uint64_t version = 0;
    std::list<uint64_t>::iterator lru_it;
    bool busy() const { return filling || writing; }
  };
  // Line-aligned so neighbouring shards' locks never share a cache line.
  struct alignas(64) Shard {
    std::mutex mu;
    // Signalled whenever a fill or a write-back in this shard ends.
    std::condition_variable cv;
    std::unordered_map<uint64_t, Entry> map;
    // Front = most recently used.
    std::list<uint64_t> lru;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };
  // Claimed (`filling`) entries to fill from the device. Helpers on the
  // I/O pool and, for ReadBlocks, the calling thread pull claims off a
  // shared cursor, so the caller never waits on a helper that has not
  // started.
  struct FillBatch {
    struct Claim {
      uint64_t block;
      Entry* entry;
      uint8_t* out;  // where to copy the filled block; null for Prefetch
    };
    std::vector<Claim> claims;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // guarded by mu
    Status status;    // first fill error; guarded by mu
  };

  // I/O pool size: enough to overlap an extent's fills with the device
  // latency model, small enough to stay out of the RSS budget.
  static constexpr size_t kIoThreads = 4;

  Shard& ShardFor(uint64_t block) {
    // Group 8 consecutive blocks per shard so sequential runs and their
    // prefetch stay mostly shard-local, and scatter the groups with a
    // multiplicative hash: with plain `group & mask`, files laid out a
    // multiple of 8 * shards blocks apart share a shard at every offset,
    // and streams reading them in step convoy on one lock.
    const uint64_t group = block >> 3;
    return *shards_[(group * 0x9E3779B97F4A7C15ULL >> 32) & shard_mask_];
  }

  // *Locked helpers require the shard's mutex held. Those taking its
  // `Lock&` may drop it across device I/O: callers must not keep an
  // iterator or a non-busy Entry* across such a call.

  // Returns the resident entry for `block` with valid contents: waits out
  // another thread's fill, and on a miss inserts the entry and (with
  // `fill_from_device`) reads it with the lock dropped. A non-filled
  // insert is zeroed.
  Status AcquireLocked(Shard& shard, Lock& lock, uint64_t block,
                       bool fill_from_device, Entry** out);
  // Inserts an entry for absent `block`, first evicting clean idle LRU
  // victims while the shard is full. Never drops the lock. With
  // `allow_overflow` (demand misses) the victim is the LRU-most idle
  // entry; when it is dirty, or every entry is busy, the shard is left
  // over capacity for TrimLocked to fix. Without it (Prefetch) the
  // victim is the LRU-most clean idle entry, and when there is none it
  // inserts nothing and returns null.
  Entry* InsertLocked(Shard& shard, uint64_t block, bool allow_overflow);
  // Evicts down to capacity in strict LRU order over idle entries,
  // writing dirty victims back (drops the lock across each write).
  Status TrimLocked(Shard& shard, Lock& lock);
  // The least recently used non-busy (and, with `clean_only`, non-dirty)
  // entry, or null.
  Entry* LruIdleLocked(Shard& shard, uint64_t* block, bool clean_only);
  // Writes a snapshot of the dirty, idle `entry` with the lock dropped.
  Status WritebackLocked(Shard& shard, Lock& lock, uint64_t block,
                         Entry& entry);
  void EraseLocked(Shard& shard, uint64_t block);
  void MarkDirtyLocked(Entry& entry);
  void TouchLocked(Shard& shard, Entry& entry);

  // Runs the non-empty `batch` on the I/O pool; with `wait`, the caller
  // fills claims too and returns the first fill error once every claim is
  // done.
  Status RunBatch(const std::shared_ptr<FillBatch>& batch, bool wait);
  void DrainBatch(FillBatch& batch);
  Status FillClaim(const FillBatch::Claim& claim);
  WorkerPool* IoPool();

  Status FlushSome(size_t max_blocks, uint64_t* flushed);
  void FlusherMain();

  std::shared_ptr<BlockDevice> base_;
  BlockCacheOptions opts_;
  uint32_t block_size_;
  size_t shard_capacity_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<size_t> dirty_count_{0};
  mutable BlockCacheStats cache_stats_;

  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;
  std::thread flusher_;

  // Started on the first parallel fill, so a cache that never misses
  // never spawns it. Shut down first in the destructor.
  std::once_flag io_pool_once_;
  std::unique_ptr<WorkerPool> io_pool_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_BLOCKDEV_BLOCK_CACHE_H_
