#include "src/blockdev/block_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace discfs {
namespace {

size_t DeriveShards(size_t capacity_blocks, size_t requested) {
  if (requested != 0) {
    // Round down to a power of two, clamp to [1, 16].
    size_t shards = 1;
    while (shards * 2 <= requested && shards < 16) shards *= 2;
    return shards;
  }
  // ~64 blocks per shard, power of two, at most 16 shards; one shard
  // for small capacities (same sizing rule as the signature cache).
  size_t shards = 1;
  while (shards < 16 && capacity_blocks / (shards * 2) >= 64) shards *= 2;
  return shards;
}

}  // namespace

BlockCache::BlockCache(std::shared_ptr<BlockDevice> base,
                       BlockCacheOptions opts)
    : base_(std::move(base)), opts_(opts), block_size_(base_->block_size()) {
  if (opts_.capacity_blocks < 8) opts_.capacity_blocks = 8;
  size_t shards = DeriveShards(opts_.capacity_blocks, opts_.num_shards);
  shard_mask_ = shards - 1;
  shard_capacity_ = std::max<size_t>(4, opts_.capacity_blocks / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (opts_.flush_watermark == 0) {
    opts_.flush_watermark = std::max<size_t>(1, opts_.capacity_blocks / 4);
  }
  if (opts_.flusher_thread) {
    flusher_ = std::thread([this] { FlusherMain(); });
  }
}

BlockCache::~BlockCache() {
  // Prefetch fills may still be queued; they touch shards_ and base_.
  if (io_pool_ != nullptr) {
    io_pool_->Shutdown();
  }
  (void)Sync();
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flusher_mu_);
      stop_flusher_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
}

WorkerPool* BlockCache::IoPool() {
  std::call_once(io_pool_once_, [this] {
    io_pool_ = std::make_unique<WorkerPool>(kIoThreads);
  });
  return io_pool_.get();
}

void BlockCache::TouchLocked(Shard& shard, Entry& entry) {
  // Relinks the node in place: a hit allocates nothing under the lock.
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
}

void BlockCache::MarkDirtyLocked(Entry& entry) {
  entry.version++;
  if (!entry.dirty) {
    entry.dirty = true;
    dirty_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void BlockCache::EraseLocked(Shard& shard, uint64_t block) {
  auto it = shard.map.find(block);
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
}

BlockCache::Entry* BlockCache::LruIdleLocked(Shard& shard, uint64_t* block,
                                             bool clean_only) {
  for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
    Entry& entry = shard.map.find(*it)->second;
    if (!entry.busy() && !(clean_only && entry.dirty)) {
      *block = *it;
      return &entry;
    }
  }
  return nullptr;
}

Status BlockCache::WritebackLocked(Shard& shard, Lock& lock, uint64_t block,
                                   Entry& entry) {
  // The entry cannot be evicted or dropped while `writing` is set, and a
  // Write/Modify meanwhile only changes `data` and bumps the version.
  entry.writing = true;
  std::vector<uint8_t> snapshot = entry.data;
  const uint64_t version = entry.version;
  lock.unlock();
  Status st = base_->Write(block, snapshot.data());
  lock.lock();
  entry.writing = false;
  shard.cv.notify_all();
  if (!st.ok()) {
    return st;
  }
  cache_stats_.writebacks.fetch_add(1, std::memory_order_relaxed);
  if (entry.version == version) {
    entry.dirty = false;
    dirty_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  return OkStatus();
}

BlockCache::Entry* BlockCache::InsertLocked(Shard& shard, uint64_t block,
                                            bool allow_overflow) {
  while (shard.map.size() >= shard_capacity_) {
    uint64_t victim = 0;
    // Demand inserts keep strict LRU (a dirty victim is left for
    // TrimLocked to write back); Prefetch settles for the oldest clean
    // idle entry rather than wait on a write-back.
    Entry* entry = LruIdleLocked(shard, &victim,
                                 /*clean_only=*/!allow_overflow);
    if (entry == nullptr || entry->dirty) {
      break;
    }
    EraseLocked(shard, victim);
    cache_stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  if (shard.map.size() >= shard_capacity_ && !allow_overflow) {
    return nullptr;
  }
  Entry& entry = shard.map[block];
  entry.data.resize(block_size_);
  shard.lru.push_front(block);
  entry.lru_it = shard.lru.begin();
  return &entry;
}

Status BlockCache::TrimLocked(Shard& shard, Lock& lock) {
  while (shard.map.size() > shard_capacity_) {
    uint64_t victim = 0;
    Entry* entry = LruIdleLocked(shard, &victim, /*clean_only=*/false);
    if (entry == nullptr) {
      return OkStatus();  // all busy: whoever finishes trims
    }
    if (entry->dirty) {
      // Strict LRU: the oldest idle entry is the victim even when dirty.
      RETURN_IF_ERROR(WritebackLocked(shard, lock, victim, *entry));
      continue;  // the lock was dropped: pick the victim afresh
    }
    EraseLocked(shard, victim);
    cache_stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return OkStatus();
}

Status BlockCache::AcquireLocked(Shard& shard, Lock& lock, uint64_t block,
                                 bool fill_from_device, Entry** out) {
  for (;;) {
    auto it = shard.map.find(block);
    if (it != shard.map.end()) {
      if (it->second.filling) {
        // Another thread's device read: wait for it rather than issue a
        // second one. It may fail and erase the entry, hence the re-find.
        shard.cv.wait(lock);
        continue;
      }
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      TouchLocked(shard, it->second);
      *out = &it->second;
      return OkStatus();
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    Entry* entry = InsertLocked(shard, block, /*allow_overflow=*/true);
    if (fill_from_device) {
      entry->filling = true;
      lock.unlock();
      Status st = base_->Read(block, entry->data.data());
      lock.lock();
      entry->filling = false;
      shard.cv.notify_all();
      if (!st.ok()) {
        EraseLocked(shard, block);
        return st;
      }
    }
    *out = entry;
    return OkStatus();
  }
}

Status BlockCache::Read(uint64_t block, uint8_t* buf) {
  return ReadPart(block, 0, block_size_, buf);
}

Status BlockCache::ReadPart(uint64_t block, size_t offset, size_t len,
                            uint8_t* out) {
  if (block >= base_->block_count()) {
    return OutOfRangeError(StrPrintf("cache read past device end: block %llu",
                                     static_cast<unsigned long long>(block)));
  }
  if (offset + len > block_size_) {
    return OutOfRangeError("cache read past block end");
  }
  Shard& shard = ShardFor(block);
  Lock lock(shard.mu);
  Entry* entry = nullptr;
  RETURN_IF_ERROR(AcquireLocked(shard, lock, block, /*fill_from_device=*/true,
                                &entry));
  std::memcpy(out, entry->data.data() + offset, len);
  return TrimLocked(shard, lock);
}

Status BlockCache::ReadBlocks(const std::vector<uint64_t>& blocks,
                              uint8_t* out) {
  if (blocks.size() == 1) {
    return Read(blocks[0], out);
  }
  for (uint64_t block : blocks) {
    if (block >= base_->block_count()) {
      return OutOfRangeError(
          StrPrintf("cache read past device end: block %llu",
                    static_cast<unsigned long long>(block)));
    }
  }
  // Claim every missing block before reading any, so the fills overlap.
  // All-hit extents (the common warm case) allocate no batch.
  std::shared_ptr<FillBatch> batch;
  std::vector<size_t> in_flight;  // resident but being filled by another
  for (size_t i = 0; i < blocks.size(); ++i) {
    Shard& shard = ShardFor(blocks[i]);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(blocks[i]);
    if (it != shard.map.end()) {
      if (it->second.filling) {
        in_flight.push_back(i);
        continue;
      }
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      TouchLocked(shard, it->second);
      std::memcpy(out + i * block_size_, it->second.data.data(), block_size_);
      continue;
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    Entry* entry = InsertLocked(shard, blocks[i], /*allow_overflow=*/true);
    entry->filling = true;
    if (batch == nullptr) {
      batch = std::make_shared<FillBatch>();
    }
    batch->claims.push_back({blocks[i], entry, out + i * block_size_});
  }
  if (batch != nullptr) {
    RETURN_IF_ERROR(RunBatch(batch, /*wait=*/true));
  }
  for (size_t i : in_flight) {
    Shard& shard = ShardFor(blocks[i]);
    Lock lock(shard.mu);
    Entry* entry = nullptr;
    RETURN_IF_ERROR(AcquireLocked(shard, lock, blocks[i],
                                  /*fill_from_device=*/true, &entry));
    std::memcpy(out + i * block_size_, entry->data.data(), block_size_);
    RETURN_IF_ERROR(TrimLocked(shard, lock));
  }
  return OkStatus();
}

Status BlockCache::RunBatch(const std::shared_ptr<FillBatch>& batch,
                            bool wait) {
  const size_t n = batch->claims.size();
  // The caller works the batch too, so it needs one helper fewer.
  const size_t helpers = std::min(kIoThreads, wait ? n - 1 : n);
  if (helpers > 0) {
    WorkerPool* pool = IoPool();
    for (size_t h = 0; h < helpers; ++h) {
      pool->Submit([this, batch] { DrainBatch(*batch); });
    }
  }
  if (!wait) {
    return OkStatus();
  }
  DrainBatch(*batch);
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] { return batch->done == n; });
  return batch->status;
}

void BlockCache::DrainBatch(FillBatch& batch) {
  for (;;) {
    const size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.claims.size()) {
      return;
    }
    Status st = FillClaim(batch.claims[i]);
    std::lock_guard<std::mutex> lock(batch.mu);
    if (!st.ok() && batch.status.ok()) {
      batch.status = st;
    }
    if (++batch.done == batch.claims.size()) {
      batch.cv.notify_all();
    }
  }
}

Status BlockCache::FillClaim(const FillBatch::Claim& claim) {
  Status st = base_->Read(claim.block, claim.entry->data.data());
  Shard& shard = ShardFor(claim.block);
  Lock lock(shard.mu);
  claim.entry->filling = false;
  shard.cv.notify_all();
  if (!st.ok()) {
    EraseLocked(shard, claim.block);
    return st;
  }
  if (claim.out != nullptr) {
    std::memcpy(claim.out, claim.entry->data.data(), block_size_);
  } else {
    cache_stats_.readaheads.fetch_add(1, std::memory_order_relaxed);
  }
  return TrimLocked(shard, lock);
}

Status BlockCache::Write(uint64_t block, const uint8_t* buf) {
  if (block >= base_->block_count()) {
    return OutOfRangeError(StrPrintf("cache write past device end: block %llu",
                                     static_cast<unsigned long long>(block)));
  }
  {
    Shard& shard = ShardFor(block);
    Lock lock(shard.mu);
    Entry* entry = nullptr;
    // Full-block overwrite: no need to read the old contents on miss.
    RETURN_IF_ERROR(AcquireLocked(shard, lock, block,
                                  /*fill_from_device=*/false, &entry));
    std::memcpy(entry->data.data(), buf, block_size_);
    MarkDirtyLocked(*entry);
    RETURN_IF_ERROR(TrimLocked(shard, lock));
  }
  if (dirty_count_.load(std::memory_order_relaxed) >= opts_.flush_watermark) {
    flusher_cv_.notify_one();
  }
  return OkStatus();
}

Status BlockCache::Modify(uint64_t block,
                          const std::function<void(uint8_t*)>& fn) {
  if (block >= base_->block_count()) {
    return OutOfRangeError(StrPrintf("cache modify past device end: block %llu",
                                     static_cast<unsigned long long>(block)));
  }
  {
    Shard& shard = ShardFor(block);
    Lock lock(shard.mu);
    Entry* entry = nullptr;
    RETURN_IF_ERROR(AcquireLocked(shard, lock, block,
                                  /*fill_from_device=*/true, &entry));
    fn(entry->data.data());
    MarkDirtyLocked(*entry);
    RETURN_IF_ERROR(TrimLocked(shard, lock));
  }
  if (dirty_count_.load(std::memory_order_relaxed) >= opts_.flush_watermark) {
    flusher_cv_.notify_one();
  }
  return OkStatus();
}

Status BlockCache::Sync() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    Lock lock(shard.mu);
    std::vector<uint64_t> dirty;
    for (auto& [block, entry] : shard.map) {
      if (entry.dirty) {
        dirty.push_back(block);
      }
    }
    for (uint64_t block : dirty) {
      for (;;) {
        auto it = shard.map.find(block);
        if (it == shard.map.end() || !it->second.dirty) {
          break;
        }
        if (it->second.writing) {
          // Its snapshot may predate a write that happened-before this
          // Sync: wait it out, then write again if still dirty.
          shard.cv.wait(lock);
          continue;
        }
        RETURN_IF_ERROR(WritebackLocked(shard, lock, block, it->second));
        break;  // our snapshot holds every write that preceded the call
      }
    }
  }
  cache_stats_.sync_flushes.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

size_t BlockCache::DropDirty() {
  size_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    Lock lock(shard.mu);
    // A write-back in flight holds a pointer to its entry: let it land.
    shard.cv.wait(lock, [&shard] {
      for (auto& [block, entry] : shard.map) {
        if (entry.writing) {
          return false;
        }
      }
      return true;
    });
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->second.dirty) {
        shard.lru.erase(it->second.lru_it);
        it = shard.map.erase(it);
        dirty_count_.fetch_sub(1, std::memory_order_relaxed);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  cache_stats_.dropped_dirty.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

size_t BlockCache::cached_blocks() const {
  size_t total = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

const BlockCacheStats& BlockCache::cache_stats() const {
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& shard : shards_) {
    hits += shard->hits.load(std::memory_order_relaxed);
    misses += shard->misses.load(std::memory_order_relaxed);
  }
  cache_stats_.hits.store(hits, std::memory_order_relaxed);
  cache_stats_.misses.store(misses, std::memory_order_relaxed);
  return cache_stats_;
}

void BlockCache::ResetCacheStats() {
  for (auto& shard : shards_) {
    shard->hits.store(0, std::memory_order_relaxed);
    shard->misses.store(0, std::memory_order_relaxed);
  }
  cache_stats_.evictions.store(0, std::memory_order_relaxed);
  cache_stats_.writebacks.store(0, std::memory_order_relaxed);
  cache_stats_.readaheads.store(0, std::memory_order_relaxed);
  cache_stats_.sync_flushes.store(0, std::memory_order_relaxed);
  cache_stats_.dropped_dirty.store(0, std::memory_order_relaxed);
}

void BlockCache::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterGauge(
      "discfs_block_cache", "Block cache counters by kind", [this] {
        auto load = [](const std::atomic<uint64_t>& v) {
          return static_cast<double>(v.load(std::memory_order_relaxed));
        };
        const BlockCacheStats& stats = cache_stats();
        return std::vector<obs::GaugeSample>{
            {"kind=\"hits\"", load(stats.hits)},
            {"kind=\"misses\"", load(stats.misses)},
            {"kind=\"evictions\"", load(stats.evictions)},
            {"kind=\"writebacks\"", load(stats.writebacks)},
            {"kind=\"readaheads\"", load(stats.readaheads)},
            {"kind=\"sync_flushes\"", load(stats.sync_flushes)},
            {"kind=\"dropped_dirty\"", load(stats.dropped_dirty)},
        };
      });
  registry->RegisterGauge("discfs_block_cache_dirty_blocks",
                          "Dirty blocks awaiting write-back", [this] {
                            return std::vector<obs::GaugeSample>{
                                {"", static_cast<double>(dirty_blocks())}};
                          });
  registry->RegisterGauge("discfs_block_cache_cached_blocks",
                          "Resident cached blocks across all shards", [this] {
                            return std::vector<obs::GaugeSample>{
                                {"", static_cast<double>(cached_blocks())}};
                          });
}

void BlockCache::Prefetch(const std::vector<uint64_t>& blocks) {
  std::shared_ptr<FillBatch> batch;
  for (uint64_t block : blocks) {
    if (block >= base_->block_count()) {
      continue;
    }
    Shard& shard = ShardFor(block);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.count(block) != 0) {
      continue;
    }
    Entry* entry = InsertLocked(shard, block, /*allow_overflow=*/false);
    if (entry == nullptr) {
      break;
    }
    entry->filling = true;
    if (batch == nullptr) {
      batch = std::make_shared<FillBatch>();
    }
    batch->claims.push_back({block, entry, nullptr});
  }
  if (batch != nullptr) {
    (void)RunBatch(batch, /*wait=*/false);
  }
}

Status BlockCache::FlushSome(size_t max_blocks, uint64_t* flushed) {
  uint64_t done = 0;
  for (auto& shard_ptr : shards_) {
    if (done >= max_blocks) {
      break;
    }
    Shard& shard = *shard_ptr;
    Lock lock(shard.mu);
    // Flush least-recently-used dirty blocks first: hot blocks likely
    // get dirtied again, so flushing them early wastes device writes.
    std::vector<uint64_t> victims;
    for (auto it = shard.lru.rbegin();
         it != shard.lru.rend() && done + victims.size() < max_blocks; ++it) {
      const Entry& entry = shard.map.find(*it)->second;
      if (entry.dirty && !entry.busy()) {
        victims.push_back(*it);
      }
    }
    for (uint64_t block : victims) {
      auto it = shard.map.find(block);
      if (it == shard.map.end() || !it->second.dirty || it->second.busy()) {
        continue;  // evicted, cleaned or claimed while the lock was dropped
      }
      RETURN_IF_ERROR(WritebackLocked(shard, lock, block, it->second));
      ++done;
    }
  }
  if (flushed != nullptr) {
    *flushed = done;
  }
  return OkStatus();
}

void BlockCache::FlusherMain() {
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (!stop_flusher_) {
    auto woken = [this] {
      return stop_flusher_ ||
             dirty_count_.load(std::memory_order_relaxed) >=
                 opts_.flush_watermark;
    };
    if (opts_.flush_interval_ms > 0) {
      flusher_cv_.wait_for(
          lock, std::chrono::milliseconds(opts_.flush_interval_ms), woken);
    } else {
      flusher_cv_.wait(lock, woken);
    }
    if (stop_flusher_) {
      return;
    }
    // A clean cache needs no sweep, which would hold each shard lock in
    // turn while walking its LRU list: readers blocked behind it are woken
    // onto the flusher's CPU, and a stream of such wakeups can pile every
    // reader onto one CPU.
    if (dirty_count_.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    lock.unlock();
    (void)FlushSome(~0ULL, nullptr);
    lock.lock();
  }
}

}  // namespace discfs
