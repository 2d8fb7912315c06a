#include "src/ffs/ffs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/util/prng.h"

namespace discfs {
namespace {

constexpr uint32_t kBlockSize = 4096;

std::unique_ptr<Ffs> MakeFs(uint64_t blocks = 4096,
                            uint32_t inodes = 1024) {
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, blocks);
  auto fs = Ffs::Format(dev, FfsFormatOptions{inodes});
  EXPECT_TRUE(fs.ok()) << fs.status();
  return std::move(fs).value();
}

TEST(Blockdev, ReadWriteRoundTrip) {
  MemBlockDevice dev(512, 16);
  std::vector<uint8_t> out(512, 0xab);
  ASSERT_TRUE(dev.Write(3, out.data()).ok());
  std::vector<uint8_t> in(512);
  ASSERT_TRUE(dev.Read(3, in.data()).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(Blockdev, OutOfRangeRejected) {
  MemBlockDevice dev(512, 4);
  std::vector<uint8_t> buf(512);
  EXPECT_FALSE(dev.Read(4, buf.data()).ok());
  EXPECT_FALSE(dev.Write(100, buf.data()).ok());
}

TEST(FfsTest, FormatAndRootExists) {
  auto fs = MakeFs();
  auto attr = fs->GetAttr(fs->root());
  ASSERT_TRUE(attr.ok()) << attr.status();
  EXPECT_EQ(attr->type, FileType::kDirectory);
  auto entries = fs->ReadDir(fs->root());
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(FfsTest, CreateLookupRoundTrip) {
  auto fs = MakeFs();
  auto created = fs->Create(fs->root(), "paper.txt", 0644);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->type, FileType::kRegular);
  EXPECT_EQ(created->mode, 0644u);
  EXPECT_EQ(created->size, 0u);
  EXPECT_EQ(created->nlink, 1u);

  auto found = fs->Lookup(fs->root(), "paper.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, created->inode);

  EXPECT_FALSE(fs->Lookup(fs->root(), "other.txt").ok());
}

TEST(FfsTest, CreateDuplicateRejected) {
  auto fs = MakeFs();
  ASSERT_TRUE(fs->Create(fs->root(), "x", 0644).ok());
  auto dup = fs->Create(fs->root(), "x", 0644);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(FfsTest, NameValidation) {
  auto fs = MakeFs();
  EXPECT_FALSE(fs->Create(fs->root(), "", 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), std::string(59, 'a'), 0644).ok());
  EXPECT_TRUE(fs->Create(fs->root(), std::string(58, 'a'), 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), "a/b", 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), ".", 0644).ok());
  EXPECT_FALSE(fs->Create(fs->root(), "..", 0644).ok());
}

TEST(FfsTest, WriteReadSmall) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  std::string msg = "hello discfs";
  auto wrote = fs->Write(f->inode, 0,
                         reinterpret_cast<const uint8_t*>(msg.data()),
                         msg.size());
  ASSERT_TRUE(wrote.ok()) << wrote.status();
  EXPECT_EQ(*wrote, msg.size());

  std::string back(msg.size(), '\0');
  auto read = fs->Read(f->inode, 0, msg.size(),
                       reinterpret_cast<uint8_t*>(back.data()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, msg.size());
  EXPECT_EQ(back, msg);

  auto attr = fs->GetAttr(f->inode);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, msg.size());
}

TEST(FfsTest, ReadPastEofTruncated) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data = {1, 2, 3};
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), 3).ok());
  Bytes buf(10);
  auto n = fs->Read(f->inode, 0, 10, buf.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  auto n2 = fs->Read(f->inode, 5, 10, buf.data());
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST(FfsTest, LargeFileThroughIndirectBlocks) {
  // > 10 direct blocks (40 KiB) and into the single-indirect range.
  auto fs = MakeFs(8192);
  auto f = fs->Create(fs->root(), "big", 0644);
  ASSERT_TRUE(f.ok());
  Prng prng(1);
  Bytes data = prng.NextBytes(500000);  // ~122 blocks
  auto wrote = fs->Write(f->inode, 0, data.data(), data.size());
  ASSERT_TRUE(wrote.ok()) << wrote.status();
  EXPECT_EQ(*wrote, data.size());

  Bytes back(data.size());
  auto read = fs->Read(f->inode, 0, back.size(), back.data());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(back, data);
}

TEST(FfsTest, DoubleIndirectRange) {
  // Write past 10 + 1024 blocks (~4.2 MB) to exercise the double-indirect
  // tree; use a sparse write to keep the test fast.
  auto fs = MakeFs(8192);
  auto f = fs->Create(fs->root(), "sparse", 0644);
  ASSERT_TRUE(f.ok());
  uint64_t offset = (10 + 1024 + 5) * uint64_t{kBlockSize} + 123;
  Bytes data = ToBytes("deep data");
  auto wrote = fs->Write(f->inode, offset, data.data(), data.size());
  ASSERT_TRUE(wrote.ok()) << wrote.status();

  Bytes back(data.size());
  auto read = fs->Read(f->inode, offset, back.size(), back.data());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(back, data);

  // The hole before it reads as zeros.
  Bytes hole(100);
  auto hole_read = fs->Read(f->inode, 4096, 100, hole.data());
  ASSERT_TRUE(hole_read.ok());
  EXPECT_EQ(hole, Bytes(100, 0));
}

TEST(FfsTest, OverwriteMiddle) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes base(10000, 'a');
  ASSERT_TRUE(fs->Write(f->inode, 0, base.data(), base.size()).ok());
  Bytes patch(100, 'b');
  ASSERT_TRUE(fs->Write(f->inode, 5000, patch.data(), patch.size()).ok());

  Bytes back(10000);
  ASSERT_TRUE(fs->Read(f->inode, 0, back.size(), back.data()).ok());
  EXPECT_EQ(back[4999], 'a');
  EXPECT_EQ(back[5000], 'b');
  EXPECT_EQ(back[5099], 'b');
  EXPECT_EQ(back[5100], 'a');
  auto attr = fs->GetAttr(f->inode);
  EXPECT_EQ(attr->size, 10000u);  // overwrite must not extend
}

TEST(FfsTest, TruncateShrinkFreesBlocks) {
  auto fs = MakeFs();
  // Force the root directory's entry block to exist before measuring, so
  // the free-block comparison below only sees the file's own blocks.
  ASSERT_TRUE(fs->Create(fs->root(), "placeholder", 0644).ok());
  auto before_stat = fs->StatFs();
  ASSERT_TRUE(before_stat.ok());
  uint64_t free_before = before_stat->free_blocks;

  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(200000, 'x');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());

  SetAttrRequest req;
  req.size = 100;
  ASSERT_TRUE(fs->SetAttr(f->inode, req).ok());
  auto attr = fs->GetAttr(f->inode);
  EXPECT_EQ(attr->size, 100u);

  // Contents preserved up to the cut.
  Bytes back(100);
  ASSERT_TRUE(fs->Read(f->inode, 0, 100, back.data()).ok());
  EXPECT_EQ(back, Bytes(100, 'x'));

  // Extending again reads zeros beyond 100.
  req.size = 300;
  ASSERT_TRUE(fs->SetAttr(f->inode, req).ok());
  Bytes ext(300);
  ASSERT_TRUE(fs->Read(f->inode, 0, 300, ext.data()).ok());
  EXPECT_EQ(ext[99], 'x');
  EXPECT_EQ(ext[100], 0);
  EXPECT_EQ(ext[299], 0);

  ASSERT_TRUE(fs->Remove(fs->root(), "f").ok());
  auto after_stat = fs->StatFs();
  ASSERT_TRUE(after_stat.ok());
  EXPECT_EQ(after_stat->free_blocks, free_before);  // everything returned
}

TEST(FfsTest, RemoveFreesInodeAndBlocks) {
  auto fs = MakeFs();
  auto before = fs->StatFs();
  ASSERT_TRUE(before.ok());

  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(50000, 'y');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs->Remove(fs->root(), "f").ok());

  auto after = fs->StatFs();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->free_inodes, before->free_inodes);
  // Root directory may have grown by a block for the entry; allow <= 1
  // block difference.
  EXPECT_GE(after->free_blocks + 1, before->free_blocks);
  EXPECT_FALSE(fs->Lookup(fs->root(), "f").ok());
}

TEST(FfsTest, GenerationBumpsOnReuse) {
  auto fs = MakeFs();
  auto f1 = fs->Create(fs->root(), "f1", 0644);
  ASSERT_TRUE(f1.ok());
  uint32_t gen1 = f1->generation;
  InodeNum ino = f1->inode;
  ASSERT_TRUE(fs->Remove(fs->root(), "f1").ok());
  auto f2 = fs->Create(fs->root(), "f2", 0644);
  ASSERT_TRUE(f2.ok());
  // The allocator cursor may pick a different inode; force reuse by
  // checking only when the number matches.
  if (f2->inode == ino) {
    EXPECT_GT(f2->generation, gen1);
  } else {
    // Walk: free f2, keep allocating until ino reused.
    ASSERT_TRUE(fs->Remove(fs->root(), "f2").ok());
    for (int i = 0; i < 2000; ++i) {
      auto f = fs->Create(fs->root(), "t" + std::to_string(i), 0644);
      ASSERT_TRUE(f.ok());
      if (f->inode == ino) {
        EXPECT_GT(f->generation, gen1);
        return;
      }
    }
    FAIL() << "inode never reused";
  }
}

TEST(FfsTest, MkdirAndNested) {
  auto fs = MakeFs();
  auto d1 = fs->Mkdir(fs->root(), "a", 0755);
  ASSERT_TRUE(d1.ok());
  auto d2 = fs->Mkdir(d1->inode, "b", 0755);
  ASSERT_TRUE(d2.ok());
  auto f = fs->Create(d2->inode, "c.txt", 0644);
  ASSERT_TRUE(f.ok());

  auto found_b = fs->Lookup(d1->inode, "b");
  ASSERT_TRUE(found_b.ok());
  EXPECT_EQ(found_b->inode, d2->inode);
  auto found_c = fs->Lookup(d2->inode, "c.txt");
  ASSERT_TRUE(found_c.ok());
}

TEST(FfsTest, RmdirOnlyWhenEmpty) {
  auto fs = MakeFs();
  auto d = fs->Mkdir(fs->root(), "d", 0755);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs->Create(d->inode, "f", 0644).ok());
  EXPECT_FALSE(fs->Rmdir(fs->root(), "d").ok());
  ASSERT_TRUE(fs->Remove(d->inode, "f").ok());
  EXPECT_TRUE(fs->Rmdir(fs->root(), "d").ok());
  EXPECT_FALSE(fs->Lookup(fs->root(), "d").ok());
}

TEST(FfsTest, RemoveDirectoryWithRemoveRejected) {
  auto fs = MakeFs();
  ASSERT_TRUE(fs->Mkdir(fs->root(), "d", 0755).ok());
  EXPECT_FALSE(fs->Remove(fs->root(), "d").ok());
  EXPECT_FALSE(fs->Rmdir(fs->root(), "nonexistent").ok());
}

TEST(FfsTest, RenameWithinDirectory) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "old", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs->Rename(fs->root(), "old", fs->root(), "new").ok());
  EXPECT_FALSE(fs->Lookup(fs->root(), "old").ok());
  auto found = fs->Lookup(fs->root(), "new");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, f->inode);
}

TEST(FfsTest, RenameAcrossDirectories) {
  auto fs = MakeFs();
  auto d1 = fs->Mkdir(fs->root(), "d1", 0755);
  auto d2 = fs->Mkdir(fs->root(), "d2", 0755);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  auto f = fs->Create(d1->inode, "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data = ToBytes("move me");
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());

  ASSERT_TRUE(fs->Rename(d1->inode, "f", d2->inode, "g").ok());
  EXPECT_FALSE(fs->Lookup(d1->inode, "f").ok());
  auto moved = fs->Lookup(d2->inode, "g");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->inode, f->inode);
  Bytes back(data.size());
  ASSERT_TRUE(fs->Read(moved->inode, 0, back.size(), back.data()).ok());
  EXPECT_EQ(back, data);
}

TEST(FfsTest, RenameReplacesExistingFile) {
  auto fs = MakeFs();
  auto a = fs->Create(fs->root(), "a", 0644);
  auto b = fs->Create(fs->root(), "b", 0644);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto before = fs->StatFs();
  ASSERT_TRUE(fs->Rename(fs->root(), "a", fs->root(), "b").ok());
  auto found = fs->Lookup(fs->root(), "b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, a->inode);
  EXPECT_FALSE(fs->Lookup(fs->root(), "a").ok());
  // b's old inode must be freed.
  auto after = fs->StatFs();
  EXPECT_EQ(after->free_inodes, before->free_inodes + 1);
}

// A directory moved into its own subtree would be cut off from the root
// (fsck: allocated but unreachable). Rename must refuse it at any depth.
TEST(FfsTest, RenameDirectoryIntoOwnSubtreeRejected) {
  auto fs = MakeFs();
  auto a = fs->Mkdir(fs->root(), "a", 0755);
  ASSERT_TRUE(a.ok());
  auto b = fs->Mkdir(a->inode, "b", 0755);
  ASSERT_TRUE(b.ok());
  auto c = fs->Mkdir(b->inode, "c", 0755);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(fs->Mkdir(b->inode, "taken", 0755).ok());

  for (InodeNum into : {a->inode, b->inode, c->inode}) {
    EXPECT_EQ(fs->Rename(fs->root(), "a", into, "loop").code(),
              StatusCode::kInvalidArgument);
  }
  // Replacing an existing (empty) directory inside the subtree is refused
  // too, before the victim is removed.
  EXPECT_EQ(fs->Rename(fs->root(), "a", b->inode, "taken").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(fs->Lookup(b->inode, "taken").ok());
  EXPECT_TRUE(fs->Lookup(fs->root(), "a").ok());

  // Moves that stay acyclic still work: up to the root, and sideways.
  ASSERT_TRUE(fs->Rename(b->inode, "c", fs->root(), "c").ok());
  ASSERT_TRUE(fs->Rename(fs->root(), "c", a->inode, "c").ok());

  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean())
      << report->errors.size() << " fsck errors, first: "
      << report->errors.front();
}

// Renaming a name onto itself, or onto another hard link of the same file,
// is a successful no-op (POSIX). Dropping the source name there would
// orphan the file in the first case and leave nlink too high in the second.
TEST(FfsTest, RenameOntoSameNameIsNoOp) {
  auto fs = MakeFs();
  auto a = fs->Create(fs->root(), "a", 0644);
  ASSERT_TRUE(a.ok());
  Bytes data = ToBytes("keep me");
  ASSERT_TRUE(fs->Write(a->inode, 0, data.data(), data.size()).ok());

  ASSERT_TRUE(fs->Rename(fs->root(), "a", fs->root(), "a").ok());
  auto found = fs->Lookup(fs->root(), "a");
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->inode, a->inode);
  EXPECT_EQ(found->nlink, 1u);
  Bytes back(data.size());
  ASSERT_TRUE(fs->Read(a->inode, 0, back.size(), back.data()).ok());
  EXPECT_EQ(back, data);

  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
}

TEST(FfsTest, RenameOntoHardLinkOfSameFileIsNoOp) {
  auto fs = MakeFs();
  auto a = fs->Create(fs->root(), "a", 0644);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(fs->Link(fs->root(), "b", a->inode).ok());

  ASSERT_TRUE(fs->Rename(fs->root(), "a", fs->root(), "b").ok());
  auto from = fs->Lookup(fs->root(), "a");
  auto to = fs->Lookup(fs->root(), "b");
  ASSERT_TRUE(from.ok()) << from.status();
  ASSERT_TRUE(to.ok()) << to.status();
  EXPECT_EQ(from->inode, a->inode);
  EXPECT_EQ(to->inode, a->inode);
  EXPECT_EQ(to->nlink, 2u);

  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
}

TEST(FfsTest, RenameMissingSourceFails) {
  auto fs = MakeFs();
  EXPECT_FALSE(fs->Rename(fs->root(), "nope", fs->root(), "x").ok());
}

TEST(FfsTest, HardLinks) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs->Link(fs->root(), "g", f->inode).ok());
  auto attr = fs->GetAttr(f->inode);
  EXPECT_EQ(attr->nlink, 2u);

  Bytes data = ToBytes("shared");
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  auto g = fs->Lookup(fs->root(), "g");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->inode, f->inode);

  // Removing one name keeps the file alive.
  ASSERT_TRUE(fs->Remove(fs->root(), "f").ok());
  auto still = fs->GetAttr(f->inode);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->nlink, 1u);
  ASSERT_TRUE(fs->Remove(fs->root(), "g").ok());
  EXPECT_FALSE(fs->GetAttr(f->inode).ok());
}

TEST(FfsTest, Symlinks) {
  auto fs = MakeFs();
  auto link = fs->Symlink(fs->root(), "lnk", "/discfs/testdir");
  ASSERT_TRUE(link.ok()) << link.status();
  EXPECT_EQ(link->type, FileType::kSymlink);
  auto target = fs->ReadLink(link->inode);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/discfs/testdir");
  auto f = fs->Create(fs->root(), "plain", 0644);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(fs->ReadLink(f->inode).ok());
}

TEST(FfsTest, ReadDirListsAllEntries) {
  auto fs = MakeFs();
  // Spill the directory across multiple blocks (64 entries per 4K block).
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fs->Create(fs->root(), "file" + std::to_string(i), 0644).ok());
  }
  auto entries = fs->ReadDir(fs->root());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 200u);
}

TEST(FfsTest, SetAttrModeAndTimes) {
  auto fs = MakeFs();
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  SetAttrRequest req;
  req.mode = 0000;  // the DisCFS attach trick: perms 000 until credentials
  req.uid = 1001;
  req.atime = 12345;
  req.mtime = 67890;
  ASSERT_TRUE(fs->SetAttr(f->inode, req).ok());
  auto attr = fs->GetAttr(f->inode);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->mode, 0u);
  EXPECT_EQ(attr->uid, 1001u);
  EXPECT_EQ(attr->atime, 12345);
  EXPECT_EQ(attr->mtime, 67890);
}

TEST(FfsTest, StatFsCounts) {
  auto fs = MakeFs();
  auto s0 = fs->StatFs();
  ASSERT_TRUE(s0.ok());
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(kBlockSize * 3, 'z');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  auto s1 = fs->StatFs();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->free_inodes, s0->free_inodes - 1);
  EXPECT_LT(s1->free_blocks, s0->free_blocks);
}

TEST(FfsTest, MountPersistsAcrossRemount) {
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, 4096);
  InodeNum ino;
  {
    auto fs = Ffs::Format(dev, FfsFormatOptions{256});
    ASSERT_TRUE(fs.ok());
    auto f = (*fs)->Create((*fs)->root(), "persist", 0644);
    ASSERT_TRUE(f.ok());
    ino = f->inode;
    Bytes data = ToBytes("survives remount");
    ASSERT_TRUE((*fs)->Write(ino, 0, data.data(), data.size()).ok());
  }
  auto fs2 = Ffs::Mount(dev);
  ASSERT_TRUE(fs2.ok()) << fs2.status();
  auto found = (*fs2)->Lookup((*fs2)->root(), "persist");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, ino);
  Bytes back(16);
  auto n = (*fs2)->Read(ino, 0, 16, back.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(ToString(back), "survives remount");
}

TEST(FfsTest, MountRejectsGarbageDevice) {
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  EXPECT_FALSE(Ffs::Mount(dev).ok());
}

TEST(FfsTest, OutOfSpaceSurfaced) {
  auto fs = MakeFs(/*blocks=*/64, /*inodes=*/32);  // tiny volume
  auto f = fs->Create(fs->root(), "f", 0644);
  ASSERT_TRUE(f.ok());
  Bytes chunk(kBlockSize, 'x');
  Status last = OkStatus();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    auto wrote =
        fs->Write(f->inode, uint64_t{kBlockSize} * i, chunk.data(),
                  chunk.size());
    last = wrote.status();
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(FfsTest, OutOfInodesSurfaced) {
  auto fs = MakeFs(/*blocks=*/4096, /*inodes=*/8);
  Status last = OkStatus();
  for (int i = 0; i < 20 && last.ok(); ++i) {
    last = fs->Create(fs->root(), "f" + std::to_string(i), 0644).status();
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(FfsTest, FsckCleanAfterOperations) {
  auto fs = MakeFs();
  ASSERT_TRUE(fs->Create(fs->root(), "a", 0644).ok());
  auto d = fs->Mkdir(fs->root(), "d", 0755);
  ASSERT_TRUE(d.ok());
  auto f = fs->Create(d->inode, "b", 0644);
  ASSERT_TRUE(f.ok());
  Bytes data(100000, 'q');
  ASSERT_TRUE(fs->Write(f->inode, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs->Link(d->inode, "b2", f->inode).ok());
  ASSERT_TRUE(fs->Remove(fs->root(), "a").ok());

  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
  EXPECT_EQ(report->directories, 2u);  // root + d
  EXPECT_EQ(report->files, 1u);
}

// --- readahead: the policy is per file, in Ffs ---

// Waits (bounded) until the cache has filled at least `n` prefetched
// blocks; fills run on the cache's I/O pool.
uint64_t WaitForReadaheads(const BlockCache& cache, uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cache.cache_stats().readaheads.load() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cache.cache_stats().readaheads.load();
}

Bytes FilePattern(uint64_t seed, size_t size) {
  Bytes data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>((seed * 131 + i / kBlockSize * 7 + i) &
                                   0xFF);
  }
  return data;
}

// Only a read that starts where the previous read of the same inode ended
// prefetches, and only that file's own mapped blocks: never past EOF
// (into whatever the device holds next), never through a hole.
TEST(FfsTest, ReadaheadTriggersOnlyOnSequentialStreams) {
  constexpr size_t kFileBlocks = 32;
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, 4096);
  InodeNum a = 0;
  InodeNum b = 0;
  InodeNum holey = 0;
  const Bytes a_data = FilePattern(1, kFileBlocks * kBlockSize);
  const Bytes b_data = FilePattern(2, kFileBlocks * kBlockSize);
  {
    auto fs = Ffs::Format(dev, FfsFormatOptions{64});
    ASSERT_TRUE(fs.ok()) << fs.status();
    auto fa = (*fs)->Create((*fs)->root(), "a", 0644);
    auto fb = (*fs)->Create((*fs)->root(), "b", 0644);
    auto fh = (*fs)->Create((*fs)->root(), "holey", 0644);
    ASSERT_TRUE(fa.ok() && fb.ok() && fh.ok());
    a = fa->inode;
    b = fb->inode;
    holey = fh->inode;
    ASSERT_TRUE((*fs)->Write(a, 0, a_data.data(), a_data.size()).ok());
    ASSERT_TRUE((*fs)->Write(b, 0, b_data.data(), b_data.size()).ok());
    // Blocks 0, 1 and 7 hold data; 2..6 are a hole.
    Bytes block(kBlockSize, 0x11);
    for (uint64_t fb_index : {0u, 1u, 7u}) {
      auto wrote = (*fs)->Write(holey, fb_index * kBlockSize, block.data(),
                                block.size());
      ASSERT_TRUE(wrote.ok()) << wrote.status();
    }
    ASSERT_TRUE((*fs)->Sync().ok());
  }
  // Every case starts from a cold cache: a fresh mount of the volume.
  auto cold = [&dev] {
    auto fs = Ffs::Mount(dev);
    EXPECT_TRUE(fs.ok()) << fs.status();
    return std::move(fs).value();
  };
  auto read_block = [](Ffs& fs, InodeNum inode, uint64_t fb) {
    Bytes buf(kBlockSize);
    auto n = fs.Read(inode, fb * kBlockSize, buf.size(), buf.data());
    EXPECT_TRUE(n.ok()) << n.status();
    return buf;
  };
  auto block_of = [](const Bytes& data, uint64_t fb) {
    return Bytes(data.begin() + fb * kBlockSize,
                 data.begin() + (fb + 1) * kBlockSize);
  };

  // A sequential scan of a cold file prefetches the rest of the file, and
  // the later reads hit: only the first two data blocks, the inode block,
  // the indirect block and the superblock ever miss.
  {
    auto fs = cold();
    BlockCache* cache = fs->block_cache();
    for (uint64_t fb = 0; fb < kFileBlocks; ++fb) {
      ASSERT_EQ(read_block(*fs, a, fb), block_of(a_data, fb)) << fb;
    }
    EXPECT_EQ(WaitForReadaheads(*cache, kFileBlocks - 2), kFileBlocks - 2);
    EXPECT_LE(cache->cache_stats().misses.load(), 5u);
    // No block was read from the device twice.
    const uint64_t demand = cache->cache_stats().misses.load();
    const uint64_t prefetched = cache->cache_stats().readaheads.load();
    EXPECT_EQ(cache->stats().reads.load(), demand + prefetched);
    // Nothing past a's EOF: b's first block (next on the device) is cold.
    const uint64_t misses = cache->cache_stats().misses.load();
    ASSERT_EQ(read_block(*fs, b, 0), block_of(b_data, 0));
    EXPECT_GT(cache->cache_stats().misses.load(), misses);
  }

  // Random extents never start where the previous read ended: no stream,
  // so the block after each extent is still cold. Whole-file re-reads
  // prefetch nothing either.
  {
    auto fs = cold();
    BlockCache* cache = fs->block_cache();
    Bytes extent(4 * kBlockSize);
    for (uint64_t first : {20u, 4u, 24u, 0u, 12u}) {
      auto n = fs->Read(a, first * kBlockSize, extent.size(), extent.data());
      ASSERT_TRUE(n.ok());
      ASSERT_EQ(*n, extent.size());
      EXPECT_TRUE(std::equal(extent.begin(), extent.end(),
                             a_data.begin() + first * kBlockSize));
    }
    const uint64_t misses = cache->cache_stats().misses.load();
    for (uint64_t fb : {8u, 16u, 28u}) {
      ASSERT_EQ(read_block(*fs, a, fb), block_of(a_data, fb));
    }
    EXPECT_EQ(cache->cache_stats().misses.load(), misses + 3);

    Bytes whole(b_data.size());
    for (int pass = 0; pass < 2; ++pass) {
      auto n = fs->Read(b, 0, whole.size(), whole.data());
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(whole, b_data);
    }
    EXPECT_EQ(cache->cache_stats().readaheads.load(), 0u);
  }

  // Two files read in interleaved order each keep their own stream: after
  // four blocks of each, both have a full window (blocks 2..9) prefetched,
  // and their next data blocks hit. The only new misses allowed are the
  // two files' indirect blocks, first mapped by the following window.
  {
    auto fs = cold();
    BlockCache* cache = fs->block_cache();
    for (uint64_t fb = 0; fb < 4; ++fb) {
      ASSERT_EQ(read_block(*fs, a, fb), block_of(a_data, fb));
      ASSERT_EQ(read_block(*fs, b, fb), block_of(b_data, fb));
    }
    EXPECT_EQ(WaitForReadaheads(*cache, 16), 16u);
    const uint64_t misses = cache->cache_stats().misses.load();
    for (uint64_t fb = 4; fb < 10; ++fb) {
      ASSERT_EQ(read_block(*fs, a, fb), block_of(a_data, fb));
      ASSERT_EQ(read_block(*fs, b, fb), block_of(b_data, fb));
    }
    EXPECT_LE(cache->cache_stats().misses.load(), misses + 2);
  }

  // A hole has no block to fetch: the window past block 1 covers 2..7,
  // of which only block 7 is mapped, and block 7 is the last before EOF.
  {
    auto fs = cold();
    BlockCache* cache = fs->block_cache();
    const Bytes data(kBlockSize, 0x11);
    ASSERT_EQ(read_block(*fs, holey, 0), data);
    const size_t cached = cache->cached_blocks();
    ASSERT_EQ(read_block(*fs, holey, 1), data);
    // Block 1 by demand, block 7 by prefetch: nothing else was claimed.
    EXPECT_EQ(cache->cached_blocks(), cached + 2);
    EXPECT_EQ(WaitForReadaheads(*cache, 1), 1u);
    const uint64_t misses = cache->cache_stats().misses.load();
    for (uint64_t fb = 2; fb < 7; ++fb) {
      EXPECT_EQ(read_block(*fs, holey, fb), Bytes(kBlockSize, 0)) << fb;
    }
    ASSERT_EQ(read_block(*fs, holey, 7), data);
    EXPECT_EQ(cache->cache_stats().misses.load(), misses);
    EXPECT_EQ(cache->cache_stats().readaheads.load(), 1u);
  }
}

// Four threads stream their own files sequentially (readahead filling on
// the I/O pool, a small cache evicting under them) while a fifth truncates
// and rewrites another file. Every read is exact, every wait bounded, and
// fsck is clean at the end.
TEST(FfsConcurrency, SequentialReadersWhileAnotherFileIsRewritten) {
  constexpr int kReaders = 4;
  constexpr size_t kFileBytes = 48 * kBlockSize;
  auto dev = std::make_shared<MemBlockDevice>(kBlockSize, 4096);
  FfsFormatOptions format{256};
  format.mount.cache.capacity_blocks = 96;
  format.mount.cache.flush_interval_ms = 5;
  auto formatted = Ffs::Format(dev, format);
  ASSERT_TRUE(formatted.ok()) << formatted.status();
  Ffs* fs = formatted->get();

  std::vector<InodeNum> files;
  std::vector<Bytes> contents;
  for (int r = 0; r < kReaders; ++r) {
    auto f = fs->Create(fs->root(), "seq" + std::to_string(r), 0644);
    ASSERT_TRUE(f.ok());
    contents.push_back(FilePattern(10 + r, kFileBytes));
    ASSERT_TRUE(
        fs->Write(f->inode, 0, contents.back().data(), kFileBytes).ok());
    files.push_back(f->inode);
  }
  auto victim = fs->Create(fs->root(), "victim", 0644);
  ASSERT_TRUE(victim.ok());

  std::atomic<int> failures{0};
  std::atomic<int> finished{0};
  auto fail = [&failures](const std::string& what) {
    ADD_FAILURE() << what;
    failures.fetch_add(1);
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Alternate 4 KiB and 8 KiB reads so some streams take the extent
      // path too.
      const size_t step = (r % 2 == 0 ? 1 : 2) * kBlockSize;
      Bytes buf(step);
      for (int pass = 0; pass < 6 && failures.load() == 0; ++pass) {
        for (uint64_t off = 0; off < kFileBytes; off += step) {
          auto n = fs->Read(files[r], off, step, buf.data());
          if (!n.ok() || *n != step ||
              !std::equal(buf.begin(), buf.end(), contents[r].begin() + off)) {
            fail("reader " + std::to_string(r) + " at " +
                 std::to_string(off) + " was not exact");
            break;
          }
        }
      }
      finished.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 40 && failures.load() == 0; ++round) {
      SetAttrRequest truncate;
      truncate.size = 0;
      if (!fs->SetAttr(victim->inode, truncate).ok()) {
        fail("truncate victim");
        break;
      }
      const Bytes data =
          FilePattern(100 + round, (8 + round % 24) * kBlockSize);
      auto wrote = fs->Write(victim->inode, 0, data.data(), data.size());
      if (!wrote.ok() || *wrote != data.size()) {
        fail("rewrite victim");
        break;
      }
      Bytes back(data.size());
      for (uint64_t off = 0; off < data.size(); off += kBlockSize) {
        auto n = fs->Read(victim->inode, off, kBlockSize, back.data() + off);
        if (!n.ok() || *n != kBlockSize) {
          fail("read back victim");
          break;
        }
      }
      if (back != data) {
        fail("victim round " + std::to_string(round) + " was not exact");
        break;
      }
    }
    finished.fetch_add(1);
  });

  // Bounded wait: a deadlock fails here instead of hanging the suite.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (finished.load() < static_cast<int>(threads.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (finished.load() < static_cast<int>(threads.size())) {
    std::fprintf(stderr,
                 "SequentialReadersWhileAnotherFileIsRewritten: %d of %zu "
                 "threads stuck\n",
                 static_cast<int>(threads.size()) - finished.load(),
                 threads.size());
    std::abort();  // a stuck thread cannot be joined
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GT(fs->block_cache()->cache_stats().readaheads.load(), 0u);

  ASSERT_TRUE(fs->Sync().ok());
  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
}

// Property test: random operation sequences against an in-memory model; the
// filesystem must agree with the model and pass fsck at the end.
class FfsModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FfsModelTest, RandomOperationsMatchModel) {
  Prng prng(GetParam());
  auto fs = MakeFs(8192, 512);

  // Model: path (dir inode, name) -> file contents. Single flat directory
  // namespace per directory; dirs tracked separately.
  std::map<std::pair<InodeNum, std::string>, std::string> files;
  std::vector<InodeNum> dirs{fs->root()};

  for (int step = 0; step < 400; ++step) {
    int op = static_cast<int>(prng.NextBelow(6));
    InodeNum dir = dirs[prng.NextBelow(dirs.size())];
    std::string name = "n" + std::to_string(prng.NextBelow(30));
    auto key = std::make_pair(dir, name);
    switch (op) {
      case 0: {  // create
        auto result = fs->Create(dir, name, 0644);
        bool exists = files.count(key) != 0;
        // Name may also be taken by a directory; treat any AlreadyExists as
        // consistent if either map has it.
        if (result.ok()) {
          EXPECT_FALSE(exists);
          files[key] = "";
        } else if (result.status().code() == StatusCode::kAlreadyExists) {
          // fine: name held by file or dir
        } else {
          FAIL() << result.status();
        }
        break;
      }
      case 1: {  // write
        if (files.count(key) == 0) {
          break;
        }
        auto attr = fs->Lookup(dir, name);
        ASSERT_TRUE(attr.ok());
        size_t off = prng.NextBelow(20000);
        Bytes data = prng.NextBytes(prng.NextBelow(8000));
        auto wrote = fs->Write(attr->inode, off, data.data(), data.size());
        ASSERT_TRUE(wrote.ok()) << wrote.status();
        std::string& content = files[key];
        if (content.size() < off + data.size()) {
          content.resize(off + data.size(), '\0');
        }
        std::memcpy(content.data() + off, data.data(), data.size());
        break;
      }
      case 2: {  // read & compare
        if (files.count(key) == 0) {
          break;
        }
        auto attr = fs->Lookup(dir, name);
        ASSERT_TRUE(attr.ok());
        const std::string& content = files[key];
        EXPECT_EQ(attr->size, content.size());
        Bytes buf(content.size() + 100);
        auto n = fs->Read(attr->inode, 0, buf.size(), buf.data());
        ASSERT_TRUE(n.ok());
        EXPECT_EQ(*n, content.size());
        EXPECT_EQ(std::string(buf.begin(), buf.begin() + *n), content);
        break;
      }
      case 3: {  // remove
        auto result = fs->Remove(dir, name);
        if (files.count(key) != 0) {
          EXPECT_TRUE(result.ok()) << result;
          files.erase(key);
        } else {
          EXPECT_FALSE(result.ok());
        }
        break;
      }
      case 4: {  // truncate
        if (files.count(key) == 0) {
          break;
        }
        auto attr = fs->Lookup(dir, name);
        ASSERT_TRUE(attr.ok());
        uint64_t new_size = prng.NextBelow(30000);
        SetAttrRequest req;
        req.size = new_size;
        ASSERT_TRUE(fs->SetAttr(attr->inode, req).ok());
        std::string& content = files[key];
        content.resize(new_size, '\0');
        break;
      }
      case 5: {  // mkdir (bounded)
        if (dirs.size() >= 8) {
          break;
        }
        std::string dname = "dir" + std::to_string(prng.NextBelow(10));
        auto result = fs->Mkdir(fs->root(), dname, 0755);
        if (result.ok()) {
          dirs.push_back(result->inode);
        }
        break;
      }
    }
  }

  // Final verification: every modeled file matches, then fsck.
  for (const auto& [key, content] : files) {
    auto attr = fs->Lookup(key.first, key.second);
    ASSERT_TRUE(attr.ok()) << key.second;
    EXPECT_EQ(attr->size, content.size());
    Bytes buf(content.size());
    auto n = fs->Read(attr->inode, 0, buf.size(), buf.data());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf.begin(), buf.end()), content);
  }
  auto report = fs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FfsModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1234));

}  // namespace
}  // namespace discfs
