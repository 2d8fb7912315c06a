#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/nfs/nfs_client.h"
#include "src/nfs/nfs_server.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

// NFS client/server joined by an in-process transport: exercises every
// procedure through the full XDR + RPC path.
class NfsE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dev = std::make_shared<MemBlockDevice>(4096, 8192);
    auto fs = Ffs::Format(dev, FfsFormatOptions{1024});
    ASSERT_TRUE(fs.ok());
    vfs_ = std::make_shared<FfsVfs>(std::move(fs).value());
    server_ = std::make_unique<NfsServer>(vfs_);
    server_->RegisterAll(dispatcher_);

    auto pair = InProcTransport::CreatePair();
    server_thread_ = std::thread([this, b = std::move(pair.b)]() mutable {
      RpcContext ctx;
      dispatcher_.ServeConnection(*b, ctx);
    });
    rpc_ = std::make_shared<RpcClient>(std::move(pair.a));
    client_ = std::make_unique<NfsClient>(rpc_);
  }

  void TearDown() override {
    rpc_->Close();
    server_thread_.join();
  }

  NfsFh Root() {
    auto root = client_->GetRoot();
    EXPECT_TRUE(root.ok());
    return root->fh;
  }

  std::shared_ptr<FfsVfs> vfs_;
  std::unique_ptr<NfsServer> server_;
  RpcDispatcher dispatcher_;
  std::shared_ptr<RpcClient> rpc_;
  std::unique_ptr<NfsClient> client_;
  std::thread server_thread_;
};

TEST_F(NfsE2E, NullProcedure) {
  EXPECT_TRUE(client_->Null().ok());
}

TEST_F(NfsE2E, GetRootAndGetAttr) {
  NfsFh root = Root();
  auto attr = client_->GetAttr(root);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDirectory);
  EXPECT_EQ(attr->fh, root);
}

TEST_F(NfsE2E, CreateWriteReadRoundTrip) {
  NfsFh root = Root();
  auto created = client_->Create(root, "data.bin", 0644);
  ASSERT_TRUE(created.ok()) << created.status();

  Bytes payload = Prng(5).NextBytes(100000);
  // Write in 8 KiB chunks, like a real client.
  for (size_t off = 0; off < payload.size(); off += 8192) {
    size_t len = std::min<size_t>(8192, payload.size() - off);
    Bytes chunk(payload.begin() + off, payload.begin() + off + len);
    auto attr = client_->Write(created->fh, off, chunk);
    ASSERT_TRUE(attr.ok()) << attr.status();
  }
  auto attr = client_->GetAttr(created->fh);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, payload.size());

  Bytes back;
  for (size_t off = 0; off < payload.size(); off += 16384) {
    auto chunk = client_->Read(created->fh, off, 16384);
    ASSERT_TRUE(chunk.ok());
    Append(back, *chunk);
  }
  EXPECT_EQ(back, payload);
}

TEST_F(NfsE2E, LookupAndStaleHandle) {
  NfsFh root = Root();
  auto created = client_->Create(root, "f", 0644);
  ASSERT_TRUE(created.ok());
  auto found = client_->Lookup(root, "f");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->fh, created->fh);

  ASSERT_TRUE(client_->Remove(root, "f").ok());
  auto stale = client_->GetAttr(created->fh);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
}

TEST_F(NfsE2E, StaleGenerationDetected) {
  NfsFh root = Root();
  auto created = client_->Create(root, "f", 0644);
  ASSERT_TRUE(created.ok());
  NfsFh wrong_gen{created->fh.inode, created->fh.generation + 1};
  auto result = client_->GetAttr(wrong_gen);
  EXPECT_FALSE(result.ok());
}

TEST_F(NfsE2E, SetAttrTruncates) {
  NfsFh root = Root();
  auto created = client_->Create(root, "f", 0644);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(client_->Write(created->fh, 0, Bytes(5000, 'x')).ok());
  SetAttrRequest req;
  req.size = 100;
  auto attr = client_->SetAttr(created->fh, req);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 100u);
}

TEST_F(NfsE2E, MkdirReaddirRmdir) {
  NfsFh root = Root();
  auto dir = client_->Mkdir(root, "sub", 0755);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(client_->Create(dir->fh, "a", 0644).ok());
  ASSERT_TRUE(client_->Create(dir->fh, "b", 0644).ok());

  auto entries = client_->ReadDir(dir->fh);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  // Entries carry full handles usable directly.
  for (const NfsDirEntry& e : *entries) {
    EXPECT_TRUE(client_->GetAttr(e.fh).ok()) << e.name;
  }

  EXPECT_FALSE(client_->Rmdir(root, "sub").ok());  // not empty
  ASSERT_TRUE(client_->Remove(dir->fh, "a").ok());
  ASSERT_TRUE(client_->Remove(dir->fh, "b").ok());
  EXPECT_TRUE(client_->Rmdir(root, "sub").ok());
}

TEST_F(NfsE2E, RenameOverWire) {
  NfsFh root = Root();
  auto d1 = client_->Mkdir(root, "d1", 0755);
  auto d2 = client_->Mkdir(root, "d2", 0755);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  auto f = client_->Create(d1->fh, "x", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(client_->Rename(d1->fh, "x", d2->fh, "y").ok());
  EXPECT_FALSE(client_->Lookup(d1->fh, "x").ok());
  EXPECT_TRUE(client_->Lookup(d2->fh, "y").ok());
}

// A client with write access to both directories must not be able to cut
// a subtree off the root by renaming a directory into itself.
TEST_F(NfsE2E, RenameDirectoryIntoOwnSubtreeRejectedOverWire) {
  NfsFh root = Root();
  auto a = client_->Mkdir(root, "a", 0755);
  ASSERT_TRUE(a.ok());
  auto b = client_->Mkdir(a->fh, "b", 0755);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(client_->Rename(root, "a", b->fh, "loop").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client_->Rename(root, "a", a->fh, "self").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(client_->Lookup(root, "a").ok());
  EXPECT_TRUE(client_->Lookup(a->fh, "b").ok());

  auto report = vfs_->ffs()->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean())
      << report->errors.size() << " fsck errors, first: "
      << report->errors.front();
}

// A client with W on the directory renames a name onto itself and onto
// another hard link of the same file: both are no-ops, and the volume
// stays consistent (no orphaned inode, no stale link count).
TEST_F(NfsE2E, RenameOntoSameFileIsNoOpOverWire) {
  NfsFh root = Root();
  auto f = client_->Create(root, "a", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(client_->Rename(root, "a", root, "a").ok());
  ASSERT_TRUE(client_->Link(root, "b", f->fh).ok());
  ASSERT_TRUE(client_->Rename(root, "a", root, "b").ok());

  auto a = client_->Lookup(root, "a");
  auto b = client_->Lookup(root, "b");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->fh.inode, f->fh.inode);
  EXPECT_EQ(b->fh.inode, f->fh.inode);
  EXPECT_EQ(b->nlink, 2u);

  auto report = vfs_->ffs()->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean())
      << report->errors.size() << " fsck errors, first: "
      << report->errors.front();
}

TEST_F(NfsE2E, LinkOverWire) {
  NfsFh root = Root();
  auto f = client_->Create(root, "orig", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(client_->Link(root, "alias", f->fh).ok());
  auto attr = client_->GetAttr(f->fh);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->nlink, 2u);
}

TEST_F(NfsE2E, SymlinkReadlinkOverWire) {
  NfsFh root = Root();
  auto link = client_->Symlink(root, "lnk", "/discfs/testdir");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(link->type, FileType::kSymlink);
  auto target = client_->ReadLink(link->fh);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/discfs/testdir");
}

TEST_F(NfsE2E, StatFsReflectsUsage) {
  auto before = client_->StatFs();
  ASSERT_TRUE(before.ok());
  NfsFh root = Root();
  auto f = client_->Create(root, "big", 0644);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(client_->Write(f->fh, 0, Bytes(65536, 'z')).ok());
  auto after = client_->StatFs();
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->free_blocks, before->free_blocks);
  EXPECT_EQ(after->block_size, 4096u);
}

TEST_F(NfsE2E, ErrorCodesPropagate) {
  NfsFh root = Root();
  EXPECT_EQ(client_->Lookup(root, "missing").status().code(),
            StatusCode::kNotFound);
  auto f = client_->Create(root, "dup", 0644);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(client_->Create(root, "dup", 0644).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(client_->Remove(root, "missing").code(), StatusCode::kNotFound);
}

TEST_F(NfsE2E, ServerCountsOps) {
  uint64_t before = server_->ops_served();
  ASSERT_TRUE(client_->Null().ok());
  ASSERT_TRUE(client_->Null().ok());
  EXPECT_EQ(server_->ops_served(), before + 2);
}

// Access-hook behaviour through the RPC surface: a hook that denies writes
// turns the plain NFS server into a read-only one.
TEST(NfsAccessHook, ReadOnlyPolicy) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{256});
  ASSERT_TRUE(fs.ok());
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  // Pre-seed a file.
  ASSERT_TRUE(WriteFileAt(*vfs, "/readme", "look but don't touch").ok());

  NfsServer server(vfs);
  server.set_access_hook([](const NfsAccessRequest& request) -> Status {
    if (request.needed & 2) {  // W
      return PermissionDeniedError("read-only export");
    }
    return OkStatus();
  });
  RpcDispatcher dispatcher;
  server.RegisterAll(dispatcher);

  auto pair = InProcTransport::CreatePair();
  std::thread server_thread([&dispatcher, b = std::move(pair.b)]() mutable {
    RpcContext ctx;
    dispatcher.ServeConnection(*b, ctx);
  });
  auto rpc = std::make_shared<RpcClient>(std::move(pair.a));
  NfsClient client(rpc);

  auto root = client.GetRoot();
  ASSERT_TRUE(root.ok());
  auto file = client.Lookup(root->fh, "readme");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(client.Read(file->fh, 0, 100).ok());
  EXPECT_EQ(client.Write(file->fh, 0, ToBytes("graffiti")).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(client.Create(root->fh, "new", 0644).status().code(),
            StatusCode::kPermissionDenied);
  rpc->Close();
  server_thread.join();
}

// Parameterized sweep: read/write round trips at many offsets and sizes
// (block boundaries, hole edges) through the full stack.
class NfsIoSweep : public NfsE2E,
                   public ::testing::WithParamInterface<
                       std::tuple<uint64_t, size_t>> {};

TEST_P(NfsIoSweep, OffsetSizeRoundTrip) {
  auto [offset, size] = GetParam();
  NfsFh root = Root();
  auto f = client_->Create(root, "sweep", 0644);
  ASSERT_TRUE(f.ok());
  Bytes payload = Prng(offset ^ size).NextBytes(size);
  ASSERT_TRUE(client_->Write(f->fh, offset, payload).ok());
  auto back = client_->Read(f->fh, offset, static_cast<uint32_t>(size));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  // Bytes before the offset read as zeros (hole).
  if (offset > 0) {
    auto hole = client_->Read(f->fh, 0, 1);
    ASSERT_TRUE(hole.ok());
    EXPECT_EQ((*hole)[0], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndSizes, NfsIoSweep,
    ::testing::Values(std::make_tuple(0ull, 1u), std::make_tuple(0ull, 4096u),
                      std::make_tuple(1ull, 4096u),
                      std::make_tuple(4095ull, 2u),
                      std::make_tuple(4096ull, 4096u),
                      std::make_tuple(40960ull, 8192u),
                      std::make_tuple(100000ull, 12345u)));

// Concurrency storm against the striped-lock server: data threads hammer
// independent files (per-inode stripes) while a namespace thread creates
// and removes entries under the root directory's stripe. Run under
// TSAN by tools/run_tsan.sh; correctness check is that every thread reads
// back exactly what it wrote and the volume fscks clean afterwards.
TEST(NfsConcurrency, IndependentFileStorm) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 16384);
  auto fs = Ffs::Format(dev, FfsFormatOptions{1024});
  ASSERT_TRUE(fs.ok());
  Ffs* ffs = fs->get();
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  NfsServer server(vfs);

  auto root = server.GetRoot();
  ASSERT_TRUE(root.ok());

  constexpr int kDataThreads = 4;
  std::vector<NfsFh> files;
  for (int t = 0; t < kDataThreads; ++t) {
    auto f = server.Create(root->fh, "storm" + std::to_string(t), 0644);
    ASSERT_TRUE(f.ok());
    files.push_back(f->fh);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kDataThreads; ++t) {
    threads.emplace_back([&server, &failures, fh = files[t], t] {
      Prng prng(7700 + t);
      for (int i = 0; i < 300; ++i) {
        uint64_t offset = (prng.Next() % 64) * 512;
        Bytes payload = prng.NextBytes(1 + prng.Next() % 2048);
        if (!server.Write(fh, offset, payload).ok()) {
          failures.fetch_add(1);
          return;
        }
        auto back = server.Read(fh, offset,
                                static_cast<uint32_t>(payload.size()));
        if (!back.ok() || *back != payload) {
          failures.fetch_add(1);
          return;
        }
        if (!server.GetAttr(fh).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  threads.emplace_back([&server, &failures, root_fh = root->fh] {
    for (int i = 0; i < 100; ++i) {
      std::string name = "churn" + std::to_string(i);
      auto f = server.Create(root_fh, name, 0644);
      if (!f.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (!server.Lookup(root_fh, name).ok() ||
          !server.ReadDir(root_fh).ok() ||
          !server.Remove(root_fh, name).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(ffs->Sync().ok());
  auto report = ffs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean())
      << report->errors.size() << " fsck errors, first: "
      << report->errors.front();
}

// Namespace storm against per-directory Create/Remove (directory and
// target stripes): threads create and remove in their own
// directories and in one shared directory, while readers read files that
// a remover is deleting under them. Every read must return exactly the
// bytes written or a stale-handle/not-found error, every surviving name
// must resolve, and the volume must fsck clean. A small block cache keeps
// eviction and write-back running throughout. Run under TSAN by
// tools/run_tsan.sh.
TEST(NfsConcurrency, PerDirectoryNamespaceStorm) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 16384);
  FfsFormatOptions format{2048};
  format.mount.cache.capacity_blocks = 64;
  format.mount.cache.flush_interval_ms = 5;
  auto fs = Ffs::Format(dev, format);
  ASSERT_TRUE(fs.ok());
  Ffs* ffs = fs->get();
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  NfsServer server(vfs);
  auto root = server.GetRoot();
  ASSERT_TRUE(root.ok());

  constexpr int kOwnDirThreads = 4;
  constexpr int kSharedThreads = 2;
  constexpr int kFilesPerThread = 40;
  std::vector<NfsFh> own_dirs;
  for (int t = 0; t < kOwnDirThreads; ++t) {
    auto d = server.Mkdir(root->fh, "dir" + std::to_string(t), 0755);
    ASSERT_TRUE(d.ok());
    own_dirs.push_back(d->fh);
  }
  auto shared_dir = server.Mkdir(root->fh, "shared", 0755);
  ASSERT_TRUE(shared_dir.ok());

  // Files the remover deletes while readers read them: multi-block, so
  // reads take the parallel extent path.
  constexpr int kVictims = 16;
  std::vector<NfsFh> victims;
  std::vector<Bytes> victim_data;
  Prng seed_prng(4242);
  for (int v = 0; v < kVictims; ++v) {
    auto f = server.Create(root->fh, "victim" + std::to_string(v), 0644);
    ASSERT_TRUE(f.ok());
    victim_data.push_back(seed_prng.NextBytes(5 * 4096 + 123));
    ASSERT_TRUE(server.Write(f->fh, 0, victim_data.back()).ok());
    victims.push_back(f->fh);
  }

  std::atomic<int> failures{0};
  std::atomic<bool> removing_done{false};
  auto fail = [&failures](const std::string& what) {
    ADD_FAILURE() << what;
    failures.fetch_add(1);
  };
  std::vector<std::thread> threads;

  // Create/write/read/remove in each thread's own directory; keep the
  // odd-numbered files so the end state is checkable.
  for (int t = 0; t < kOwnDirThreads; ++t) {
    threads.emplace_back([&server, &fail, dir = own_dirs[t], t] {
      Prng prng(9100 + t);
      for (int i = 0; i < kFilesPerThread; ++i) {
        const std::string name = "f" + std::to_string(i);
        auto f = server.Create(dir, name, 0644);
        if (!f.ok()) {
          return fail("create " + name + ": " + f.status().ToString());
        }
        Bytes payload = prng.NextBytes(1 + prng.Next() % 9000);
        if (!server.Write(f->fh, 0, payload).ok()) {
          return fail("write " + name);
        }
        auto back =
            server.Read(f->fh, 0, static_cast<uint32_t>(payload.size()));
        if (!back.ok() || *back != payload) {
          return fail("read-back " + name);
        }
        if (i % 2 == 0 && !server.Remove(dir, name).ok()) {
          return fail("remove " + name);
        }
      }
    });
  }
  // Create/remove races inside one shared directory.
  for (int t = 0; t < kSharedThreads; ++t) {
    threads.emplace_back([&server, &fail, dir = shared_dir->fh, t] {
      for (int i = 0; i < kFilesPerThread; ++i) {
        const std::string name =
            "s" + std::to_string(t) + "_" + std::to_string(i);
        if (!server.Create(dir, name, 0644).ok()) {
          return fail("shared create " + name);
        }
        if (!server.Lookup(dir, name).ok() || !server.ReadDir(dir).ok()) {
          return fail("shared lookup/readdir " + name);
        }
        if (!server.Remove(dir, name).ok()) {
          return fail("shared remove " + name);
        }
      }
    });
  }
  // Readers of the victims: exact bytes, or the handle went stale.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Prng prng(5300 + r);
      while (!removing_done.load()) {
        const size_t v = prng.Next() % kVictims;
        auto back = server.Read(victims[v], 0, 6 * 4096);
        if (back.ok()) {
          if (*back != victim_data[v]) {
            return fail("torn or foreign read of victim" + std::to_string(v));
          }
        } else if (back.status().code() != StatusCode::kNotFound) {
          return fail("victim read: " + back.status().ToString());
        }
      }
    });
  }
  threads.emplace_back([&server, &fail, &removing_done, root_fh = root->fh] {
    for (int v = 0; v < kVictims; ++v) {
      if (!server.Remove(root_fh, "victim" + std::to_string(v)).ok()) {
        fail("remove victim" + std::to_string(v));
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    removing_done.store(true);
  });
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kOwnDirThreads; ++t) {
    auto entries = server.ReadDir(own_dirs[t]);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(kFilesPerThread / 2));
    for (int i = 1; i < kFilesPerThread; i += 2) {
      EXPECT_TRUE(server.Lookup(own_dirs[t], "f" + std::to_string(i)).ok());
    }
  }
  auto shared_entries = server.ReadDir(shared_dir->fh);
  ASSERT_TRUE(shared_entries.ok());
  EXPECT_TRUE(shared_entries->empty());
  for (const NfsFh& fh : victims) {
    EXPECT_EQ(server.GetAttr(fh).status().code(), StatusCode::kNotFound);
  }

  ASSERT_TRUE(ffs->Sync().ok());
  auto report = ffs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean())
      << report->errors.size() << " fsck errors, first: "
      << report->errors.front();
}

// Storm over the namespace operations that take every stripe exclusive
// (Mkdir/Rmdir/Rename/Link/Symlink): each namespace thread works in its own
// directory, while readers re-read fixed files (exact bytes every time)
// and a Create/Remove thread churns beside them. The hard links land in
// the churn directory, so a Link that did not exclude the churn thread's
// Create could lose a directory entry to it. Every thread runs a bounded
// number of steps, the wait for them is bounded, and the volume must fsck
// clean. Run under TSAN by tools/run_tsan.sh.
TEST(NfsConcurrency, ExclusiveNamespaceStorm) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 16384);
  FfsFormatOptions format{2048};
  format.mount.cache.capacity_blocks = 64;
  format.mount.cache.flush_interval_ms = 5;
  auto fs = Ffs::Format(dev, format);
  ASSERT_TRUE(fs.ok());
  Ffs* ffs = fs->get();
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  NfsServer server(vfs);
  auto root = server.GetRoot();
  ASSERT_TRUE(root.ok());

  constexpr int kNamespaceThreads = 4;
  constexpr int kSteps = 24;
  std::vector<NfsFh> own_dirs;
  for (int t = 0; t < kNamespaceThreads; ++t) {
    auto d = server.Mkdir(root->fh, "ns" + std::to_string(t), 0755);
    ASSERT_TRUE(d.ok());
    own_dirs.push_back(d->fh);
  }
  auto churn_dir = server.Mkdir(root->fh, "churn", 0755);
  ASSERT_TRUE(churn_dir.ok());
  constexpr int kFixed = 4;
  std::vector<NfsFh> fixed;
  std::vector<Bytes> fixed_data;
  Prng seed_prng(6161);
  for (int f = 0; f < kFixed; ++f) {
    auto file = server.Create(root->fh, "fixed" + std::to_string(f), 0644);
    ASSERT_TRUE(file.ok());
    fixed_data.push_back(seed_prng.NextBytes(3 * 4096 + 77));
    ASSERT_TRUE(server.Write(file->fh, 0, fixed_data.back()).ok());
    fixed.push_back(file->fh);
  }

  std::atomic<int> failures{0};
  std::atomic<int> writers_done{0};
  std::atomic<int> finished{0};
  auto fail = [&failures](const std::string& what) {
    ADD_FAILURE() << what;
    failures.fetch_add(1);
  };
  std::vector<std::thread> threads;

  // Per step: mkdir a subdirectory, create a file in it, hard-link it
  // into the churn directory and symlink beside it, move the file out,
  // rename the subdirectory, refuse a move of it into itself, rmdir it,
  // drop the link. Even steps then remove what they made; odd steps keep
  // the moved file and the symlink.
  for (int t = 0; t < kNamespaceThreads; ++t) {
    threads.emplace_back([&, dir = own_dirs[t], t] {
      Prng prng(8800 + t);
      for (int i = 0; i < kSteps && failures.load() == 0; ++i) {
        const std::string n = std::to_string(i);
        const std::string link_name = "l" + std::to_string(t) + "_" + n;
        auto sub = server.Mkdir(dir, "d" + n, 0755);
        if (!sub.ok()) {
          fail("mkdir d" + n + ": " + sub.status().ToString());
          break;
        }
        auto file = server.Create(sub->fh, "f", 0644);
        Bytes payload = prng.NextBytes(1 + prng.Next() % 6000);
        if (!file.ok() || !server.Write(file->fh, 0, payload).ok()) {
          fail("create/write d" + n + "/f");
          break;
        }
        if (!server.Link(churn_dir->fh, link_name, file->fh).ok()) {
          fail("link " + link_name);
          break;
        }
        auto link = server.Symlink(dir, "s" + n, "target" + n);
        if (!link.ok()) {
          fail("symlink s" + n);
          break;
        }
        if (server.ReadLink(link->fh).value_or("") != "target" + n) {
          fail("readlink s" + n);
          break;
        }
        if (!server.Rename(sub->fh, "f", dir, "r" + n).ok() ||
            !server.Rename(dir, "d" + n, dir, "m" + n).ok()) {
          fail("rename step " + n);
          break;
        }
        if (server.Rename(dir, "m" + n, sub->fh, "loop").code() !=
            StatusCode::kInvalidArgument) {
          fail("rename of m" + n + " into itself was not refused");
          break;
        }
        if (!server.Rmdir(dir, "m" + n).ok() ||
            !server.Remove(churn_dir->fh, link_name).ok()) {
          fail("rmdir/unlink step " + n);
          break;
        }
        auto back =
            server.Read(file->fh, 0, static_cast<uint32_t>(payload.size()));
        if (!back.ok() || *back != payload) {
          fail("read-back r" + n);
          break;
        }
        if (i % 2 == 1) {
          continue;  // odd steps keep r<i> and s<i>
        }
        if (!server.Remove(dir, "r" + n).ok() ||
            !server.Remove(dir, "s" + n).ok()) {
          fail("cleanup step " + n);
          break;
        }
      }
      writers_done.fetch_add(1);
      finished.fetch_add(1);
    });
  }
  // Create/Remove churn beside the hard links.
  threads.emplace_back([&, dir = churn_dir->fh] {
    for (int i = 0; i < 4 * kSteps && failures.load() == 0; ++i) {
      const std::string name = "c" + std::to_string(i);
      auto f = server.Create(dir, name, 0644);
      if (!f.ok() || !server.Write(f->fh, 0, Bytes(100, 'c')).ok() ||
          !server.Remove(dir, name).ok()) {
        fail("churn " + name);
        break;
      }
    }
    writers_done.fetch_add(1);
    finished.fetch_add(1);
  });
  // Readers: exact bytes on every read while the namespace moves around
  // them; they stop when every writer is done.
  constexpr int kWriters = kNamespaceThreads + 1;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Prng prng(7300 + r);
      while (writers_done.load() < kWriters && failures.load() == 0) {
        const size_t f = prng.Next() % kFixed;
        auto back = server.Read(fixed[f], 0, 4 * 4096);
        if (!back.ok() || *back != fixed_data[f]) {
          fail("fixed" + std::to_string(f) + " read was not exact");
          break;
        }
        if (!server.GetAttr(fixed[f]).ok()) {
          fail("fixed" + std::to_string(f) + " getattr");
          break;
        }
      }
      finished.fetch_add(1);
    });
  }

  // Bounded wait: a deadlocked storm fails here instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (finished.load() < static_cast<int>(threads.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (finished.load() < static_cast<int>(threads.size())) {
    std::fprintf(stderr, "ExclusiveNamespaceStorm: %d of %zu threads stuck\n",
                 static_cast<int>(threads.size()) - finished.load(),
                 threads.size());
    std::abort();  // a stuck thread cannot be joined
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kNamespaceThreads; ++t) {
    auto entries = server.ReadDir(own_dirs[t]);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(kSteps));  // r + s, odd
    for (int i = 1; i < kSteps; i += 2) {
      auto kept = server.Lookup(own_dirs[t], "r" + std::to_string(i));
      ASSERT_TRUE(kept.ok());
      EXPECT_EQ(kept->nlink, 1u);
      EXPECT_TRUE(server.Lookup(own_dirs[t], "s" + std::to_string(i)).ok());
    }
  }
  auto churn_entries = server.ReadDir(churn_dir->fh);
  ASSERT_TRUE(churn_entries.ok());
  EXPECT_TRUE(churn_entries->empty());

  ASSERT_TRUE(ffs->Sync().ok());
  auto report = ffs->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean())
      << report->errors.size() << " fsck errors, first: "
      << report->errors.front();
}

}  // namespace
}  // namespace discfs
