#include "src/blockdev/block_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/ffs/ffs.h"

namespace discfs {
namespace {

constexpr uint32_t kBlockSize = 512;

std::vector<uint8_t> Pattern(uint64_t block) {
  std::vector<uint8_t> data(kBlockSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((block * 37 + i) & 0xFF);
  }
  return data;
}

// A single-shard cache with the flusher off, so eviction order and
// write-back timing are fully deterministic.
BlockCacheOptions ManualOptions(size_t capacity) {
  BlockCacheOptions opts;
  opts.capacity_blocks = capacity;
  opts.num_shards = 1;
  opts.flusher_thread = false;
  return opts;
}

TEST(BlockCacheTest, HitMissEvictAccounting) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(8));
  ASSERT_EQ(cache.num_shards(), 1u);

  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(cache.cache_stats().misses.load(), 8u);
  EXPECT_EQ(cache.cache_stats().hits.load(), 0u);
  EXPECT_EQ(cache.cached_blocks(), 8u);

  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(cache.cache_stats().hits.load(), 8u);
  EXPECT_EQ(cache.cache_stats().evictions.load(), 0u);

  // A ninth block evicts the LRU victim (block 0) without growing the
  // cache; re-reading block 0 must then miss again.
  ASSERT_TRUE(cache.Read(8, buf.data()).ok());
  EXPECT_EQ(cache.cache_stats().evictions.load(), 1u);
  EXPECT_EQ(cache.cached_blocks(), 8u);
  uint64_t misses_before = cache.cache_stats().misses.load();
  ASSERT_TRUE(cache.Read(0, buf.data()).ok());
  EXPECT_EQ(cache.cache_stats().misses.load(), misses_before + 1);
}

TEST(BlockCacheTest, WriteBackDeferredUntilEviction) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(8));

  auto pattern = Pattern(0);
  ASSERT_TRUE(cache.Write(0, pattern.data()).ok());
  EXPECT_EQ(cache.dirty_blocks(), 1u);
  // Write-back hasn't happened: the device still holds zeros.
  std::vector<uint8_t> on_device(kBlockSize);
  ASSERT_TRUE(base->Read(0, on_device.data()).ok());
  EXPECT_EQ(on_device, std::vector<uint8_t>(kBlockSize, 0));

  // Fill the shard so block 0 becomes the eviction victim.
  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 1; b <= 8; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_GE(cache.cache_stats().writebacks.load(), 1u);
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  ASSERT_TRUE(base->Read(0, on_device.data()).ok());
  EXPECT_EQ(on_device, pattern);
}

TEST(BlockCacheTest, SyncIsADurabilityBarrier) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(16));

  for (uint64_t b = 0; b < 5; ++b) {
    auto pattern = Pattern(b);
    ASSERT_TRUE(cache.Write(b, pattern.data()).ok());
  }
  EXPECT_EQ(cache.dirty_blocks(), 5u);
  EXPECT_EQ(base->stats().writes.load(), 0u);

  ASSERT_TRUE(cache.Sync().ok());
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  EXPECT_EQ(base->stats().writes.load(), 5u);
  for (uint64_t b = 0; b < 5; ++b) {
    std::vector<uint8_t> on_device(kBlockSize);
    ASSERT_TRUE(base->Read(b, on_device.data()).ok());
    EXPECT_EQ(on_device, Pattern(b));
  }
  // A second Sync with nothing dirty writes nothing.
  ASSERT_TRUE(cache.Sync().ok());
  EXPECT_EQ(base->stats().writes.load(), 5u);
}

TEST(BlockCacheTest, DropDirtyRestoresLastSyncImage) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(16));

  auto durable = Pattern(1);
  ASSERT_TRUE(cache.Write(1, durable.data()).ok());
  ASSERT_TRUE(cache.Sync().ok());

  auto lost = Pattern(99);
  ASSERT_TRUE(cache.Write(1, lost.data()).ok());
  ASSERT_TRUE(cache.Write(2, lost.data()).ok());
  EXPECT_EQ(cache.DropDirty(), 2u);
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  EXPECT_EQ(cache.cache_stats().dropped_dirty.load(), 2u);

  // Reads now refill from the device: the last-Sync image.
  std::vector<uint8_t> buf(kBlockSize);
  ASSERT_TRUE(cache.Read(1, buf.data()).ok());
  EXPECT_EQ(buf, durable);
  ASSERT_TRUE(cache.Read(2, buf.data()).ok());
  EXPECT_EQ(buf, std::vector<uint8_t>(kBlockSize, 0));
}

// Prefetch is the mechanism only (Ffs decides what to prefetch): it fills
// absent blocks in the background, skips resident ones, and gives up
// rather than evict a dirty block.
TEST(BlockCacheTest, PrefetchFillsAbsentBlocksInBackground) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  for (uint64_t b = 0; b < 64; ++b) {
    auto pattern = Pattern(b);
    ASSERT_TRUE(base->Write(b, pattern.data()).ok());
  }
  BlockCache cache(base, ManualOptions(8));
  std::vector<uint8_t> buf(kBlockSize);
  ASSERT_TRUE(cache.Read(3, buf.data()).ok());

  // Block 3 is resident and 99 is past the device: neither is fetched.
  cache.Prefetch({3, 4, 5, 6, 99});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cache.cache_stats().readaheads.load() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(cache.cache_stats().readaheads.load(), 3u);
  EXPECT_EQ(base->stats().reads.load(), 4u);  // 3, then 4..6 once each
  const uint64_t misses = cache.cache_stats().misses.load();
  for (uint64_t b = 3; b <= 6; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
    EXPECT_EQ(buf, Pattern(b)) << "block " << b;
  }
  EXPECT_EQ(cache.cache_stats().misses.load(), misses);  // all hits

  // A full shard of dirty blocks offers no clean victim: Prefetch claims
  // nothing and returns without writing anything back.
  for (uint64_t b = 10; b < 18; ++b) {
    auto pattern = Pattern(b);
    ASSERT_TRUE(cache.Write(b, pattern.data()).ok());
  }
  const uint64_t reads = base->stats().reads.load();
  cache.Prefetch({40, 41});
  EXPECT_EQ(cache.cached_blocks(), 8u);
  EXPECT_EQ(base->stats().reads.load(), reads);
  EXPECT_EQ(base->stats().writes.load(), 64u);  // only the setup writes
}

TEST(BlockCacheTest, ModifyIsAtomicAcrossThreads) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCacheOptions opts;
  opts.capacity_blocks = 16;
  opts.flush_interval_ms = 5;  // flusher racing the modifiers on purpose
  BlockCache cache(base, opts);

  // Each thread owns a 4-byte counter slot inside the same block and
  // increments it via Modify; no increment may be lost.
  constexpr int kThreads = 4;
  constexpr uint32_t kIters = 5000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failed, t] {
      for (uint32_t i = 0; i < kIters; ++i) {
        Status st = cache.Modify(0, [t](uint8_t* data) {
          uint32_t v;
          std::memcpy(&v, data + 4 * t, 4);
          ++v;
          std::memcpy(data + 4 * t, &v, 4);
        });
        if (!st.ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(cache.Sync().ok());

  std::vector<uint8_t> on_device(kBlockSize);
  ASSERT_TRUE(base->Read(0, on_device.data()).ok());
  for (int t = 0; t < kThreads; ++t) {
    uint32_t v;
    std::memcpy(&v, on_device.data() + 4 * t, 4);
    EXPECT_EQ(v, kIters) << "lost updates in slot " << t;
  }
}

TEST(BlockCacheTest, ConcurrentReadWriteStorm) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 1024);
  BlockCacheOptions opts;
  opts.capacity_blocks = 128;
  opts.flush_watermark = 16;
  opts.flush_interval_ms = 5;
  BlockCache cache(base, opts);

  // Two writers stamp disjoint block ranges with their block's pattern
  // (idempotent, so any write order converges); two readers scan and
  // prefetch ahead of themselves, racing fire-and-forget fills against
  // the writers, the flusher and eviction.
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&cache, &failed, w] {
      const uint64_t lo = w == 0 ? 0 : 512;
      uint64_t x = 12345 + w;
      for (int i = 0; i < 4000; ++i) {
        x = x * 1103515245 + 12345;  // LCG: deterministic "random" blocks
        uint64_t block = lo + (x >> 16) % 512;
        auto pattern = Pattern(block);
        if (!cache.Write(block, pattern.data()).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&cache, &failed, r] {
      std::vector<uint8_t> buf(kBlockSize);
      for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t b = static_cast<uint64_t>(r) * 512;
             b < static_cast<uint64_t>(r) * 512 + 512; ++b) {
          if (b % 4 == 0) {
            cache.Prefetch({b + 4, b + 5, b + 6, b + 7, b + 8});
          }
          if (!cache.Read(b, buf.data()).ok()) {
            failed = true;
            return;
          }
          // A block is either untouched (zeros) or fully stamped —
          // never a torn mix.
          if (buf[0] != 0 || buf[1] != 0) {
            if (buf != Pattern(b)) {
              failed = true;
              return;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(cache.Sync().ok());
  EXPECT_EQ(cache.dirty_blocks(), 0u);
}

// --- in-flight states: device I/O runs with the shard lock dropped ---

// A device whose reads and/or writes park until Open(), so a test can hold
// an I/O in flight and watch what the cache does meanwhile. Every wait in
// these tests is bounded: a cache that serializes behind a parked I/O
// fails the test instead of hanging it.
class GatedDevice : public BlockDevice {
 public:
  explicit GatedDevice(uint64_t blocks) : base_(kBlockSize, blocks) {}

  uint32_t block_size() const override { return base_.block_size(); }
  uint64_t block_count() const override { return base_.block_count(); }
  const BlockDeviceStats& stats() const override { return base_.stats(); }

  Status Read(uint64_t block, uint8_t* buf) override {
    Park(gate_reads_);
    return base_.Read(block, buf);
  }
  Status Write(uint64_t block, const uint8_t* buf) override {
    Park(gate_writes_);
    return base_.Write(block, buf);
  }

  void Gate(bool reads, bool writes) {
    std::lock_guard<std::mutex> lock(mu_);
    gate_reads_ = reads;
    gate_writes_ = writes;
  }
  void Open() {
    Gate(false, false);
    cv_.notify_all();
  }

  // True once at least `n` I/Os are parked at the same time.
  bool WaitParked(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kWait, [&] { return parked_ >= n; });
  }
  size_t parked() {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_;
  }

  static constexpr std::chrono::seconds kWait{5};

 private:
  void Park(const bool& gated) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!gated) {
      return;
    }
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !gated; });
    --parked_;
  }

  MemBlockDevice base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_reads_ = false;
  bool gate_writes_ = false;
  size_t parked_ = 0;
};

TEST(BlockCacheInFlight, HitCompletesWhileMissFillIsParked) {
  auto dev = std::make_shared<GatedDevice>(64);
  BlockCache cache(dev, ManualOptions(16));  // one shard: same lock
  std::vector<uint8_t> buf(kBlockSize);
  ASSERT_TRUE(cache.Read(1, buf.data()).ok());

  dev->Gate(/*reads=*/true, /*writes=*/false);
  std::thread miss([&cache] {
    std::vector<uint8_t> b(kBlockSize);
    EXPECT_TRUE(cache.Read(2, b.data()).ok());
  });
  const bool parked = dev->WaitParked(1);
  auto hit = std::async(std::launch::async, [&cache] {
    std::vector<uint8_t> b(kBlockSize);
    return cache.Read(1, b.data()).ok();
  });
  const bool hit_done =
      hit.wait_for(GatedDevice::kWait) == std::future_status::ready;
  dev->Open();
  miss.join();
  EXPECT_TRUE(parked);
  EXPECT_TRUE(hit_done) << "a hit waited behind another block's fill";
  EXPECT_TRUE(hit.get());
}

TEST(BlockCacheInFlight, ConcurrentMissesOfOneBlockReadTheDeviceOnce) {
  auto dev = std::make_shared<GatedDevice>(64);
  auto pattern = Pattern(5);
  ASSERT_TRUE(dev->Write(5, pattern.data()).ok());
  BlockCache cache(dev, ManualOptions(16));

  dev->Gate(/*reads=*/true, /*writes=*/false);
  constexpr int kReaders = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cache, &wrong, &pattern] {
      std::vector<uint8_t> b(kBlockSize);
      if (!cache.Read(5, b.data()).ok() || b != pattern) {
        wrong.fetch_add(1);
      }
    });
  }
  const bool parked = dev->WaitParked(1);
  // Give the other readers time to arrive: they must queue on the fill,
  // not park a second device read.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const size_t parked_reads = dev->parked();
  dev->Open();
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_TRUE(parked);
  EXPECT_EQ(parked_reads, 1u);
  EXPECT_EQ(dev->stats().reads.load(), 1u);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(BlockCacheInFlight, RedirtyDuringWritebackStaysDirty) {
  auto dev = std::make_shared<GatedDevice>(64);
  BlockCache cache(dev, ManualOptions(16));
  auto older = Pattern(1);
  auto newer = Pattern(2);
  ASSERT_TRUE(cache.Write(0, older.data()).ok());

  dev->Gate(/*reads=*/false, /*writes=*/true);
  std::thread sync([&cache] { EXPECT_TRUE(cache.Sync().ok()); });
  const bool parked = dev->WaitParked(1);
  auto rewrite = std::async(std::launch::async, [&cache, &newer] {
    return cache.Write(0, newer.data()).ok();
  });
  const bool rewrite_done =
      rewrite.wait_for(GatedDevice::kWait) == std::future_status::ready;
  dev->Open();
  sync.join();
  EXPECT_TRUE(parked);
  EXPECT_TRUE(rewrite_done) << "a write waited behind the block's write-back";
  EXPECT_TRUE(rewrite.get());

  // The in-flight write-back carried the older snapshot: the block must
  // still be dirty, and the next Sync must leave the newest bytes.
  EXPECT_EQ(cache.dirty_blocks(), 1u);
  ASSERT_TRUE(cache.Sync().ok());
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  std::vector<uint8_t> on_device(kBlockSize);
  ASSERT_TRUE(dev->Read(0, on_device.data()).ok());
  EXPECT_EQ(on_device, newer);
}

TEST(BlockCacheInFlight, ReadBlocksFillsAnExtentInParallel) {
  constexpr uint64_t kExtent = 16;
  auto dev = std::make_shared<GatedDevice>(64);
  for (uint64_t b = 0; b < kExtent; ++b) {
    auto pattern = Pattern(b);
    ASSERT_TRUE(dev->Write(b, pattern.data()).ok());
  }
  BlockCacheOptions opts;
  opts.capacity_blocks = 64;
  opts.flusher_thread = false;
  BlockCache cache(dev, opts);
  std::vector<uint8_t> buf(kBlockSize);
  ASSERT_TRUE(cache.Read(3, buf.data()).ok());  // one hit in the extent

  dev->Gate(/*reads=*/true, /*writes=*/false);
  std::vector<uint64_t> blocks;
  for (uint64_t b = 0; b < kExtent; ++b) {
    blocks.push_back(b);
  }
  std::vector<uint8_t> extent(kExtent * kBlockSize);
  std::thread reader([&cache, &blocks, &extent] {
    EXPECT_TRUE(cache.ReadBlocks(blocks, extent.data()).ok());
  });
  const bool overlapped = dev->WaitParked(2);
  dev->Open();
  reader.join();
  EXPECT_TRUE(overlapped) << "extent misses were read one at a time";
  EXPECT_EQ(dev->stats().reads.load(), kExtent);  // each block once
  for (uint64_t b = 0; b < kExtent; ++b) {
    EXPECT_TRUE(std::equal(extent.begin() + b * kBlockSize,
                           extent.begin() + (b + 1) * kBlockSize,
                           Pattern(b).begin()))
        << "block " << b;
  }
}

// Crash simulation end-to-end: churn a filesystem past a Sync point, drop
// everything un-synced, remount, and fsck must come back clean with the
// durable files intact.
TEST(BlockCacheTest, FfsSurvivesDroppedDirtyBlocks) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  FfsFormatOptions format;
  format.inode_count = 512;
  format.mount.cache.capacity_blocks = 512;
  format.mount.cache.flusher_thread = false;  // only Sync() reaches disk
  auto fs = Ffs::Format(dev, format);
  ASSERT_TRUE(fs.ok()) << fs.status();

  std::vector<uint8_t> data(8192, 0x5A);
  auto durable = (*fs)->Create((*fs)->root(), "durable.txt", 0644);
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE(
      (*fs)->Write(durable->inode, 0, data.data(), data.size()).ok());
  ASSERT_TRUE((*fs)->Sync().ok());

  // Post-Sync churn that will be lost in the "crash".
  for (int i = 0; i < 8; ++i) {
    auto f = (*fs)->Create((*fs)->root(), "lost" + std::to_string(i), 0644);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*fs)->Write(f->inode, 0, data.data(), data.size()).ok());
  }
  ASSERT_GT((*fs)->block_cache()->DropDirty(), 0u);
  fs->reset();  // nothing dirty remains, so teardown flushes nothing

  auto remounted = Ffs::Mount(dev);
  ASSERT_TRUE(remounted.ok()) << remounted.status();
  auto report = (*remounted)->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
  EXPECT_EQ(report->files, 1u);

  auto found = (*remounted)->Lookup((*remounted)->root(), "durable.txt");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> back(data.size());
  auto n = (*remounted)->Read(found->inode, 0, back.size(), back.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace discfs
