// Lockbox sharing layer (server-side storage + client-side sealing).
//
// The server half, LockboxService, persists wire::LockboxRecord sidecars
// at /.lockbox/box/<inode> and feeds their payloads through the
// content-addressed ChunkStore. It enforces no policy itself — the
// DisCFS procedures (PutLockbox/GetLockbox/GrantAccess/RevokeAccess in
// src/discfs/server.cc) run the KeyNote admission check first, so a
// revocation accepted anywhere in the cluster denies lockbox fetches here
// exactly like it denies NFS reads.
//
// The client half is three free functions: generate a random content key,
// seal a payload under it (ChaCha20-Poly1305), open it back. The content
// key itself travels only inside per-recipient keywrap blobs
// (src/crypto/keywrap.h) carried in the record's entries — the server
// stores ciphertext and wrapped keys, never key material it can use.
//
// Locking: per-handle mutex stripes make the sidecar read-modify-write of
// Grant/Revoke/Put atomic. The stripe is acquired before any ChunkStore or
// NfsServer call, so the global order is
//   lockbox stripe -> chunk shard -> nfs inode stripes
// and never the reverse.
#ifndef DISCFS_SRC_LOCKBOX_LOCKBOX_H_
#define DISCFS_SRC_LOCKBOX_LOCKBOX_H_

#include <array>
#include <functional>
#include <mutex>
#include <string>

#include "src/lockbox/chunkstore.h"
#include "src/nfs/nfs_server.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/wire/lockbox.h"

namespace discfs {

// --- client-side sealing helpers ---

// Fresh random per-file content key (Aead::kKeySize bytes).
Bytes GenerateContentKey(const std::function<Bytes(size_t)>& rand_bytes);

// nonce || ChaCha20-Poly1305 box of `plaintext` under `content_key`.
Bytes SealPayload(const Bytes& content_key, const Bytes& plaintext,
                  const std::function<Bytes(size_t)>& rand_bytes);

// Inverse of SealPayload; UNAUTHENTICATED on any tampering, INVALID_ARGUMENT
// on a content key that is not Aead::kKeySize bytes.
Result<Bytes> OpenPayload(const Bytes& content_key, const Bytes& sealed);

// --- server-side storage ---

class LockboxService {
 public:
  // Bounds accepted by Put (`chunk_size` in bytes).
  static constexpr uint32_t kMinChunkSize = 1 << 9;
  static constexpr uint32_t kMaxChunkSize = 1 << 20;

  LockboxService(NfsServer* nfs, ChunkStore* chunks)
      : nfs_(nfs), chunks_(chunks) {}

  struct Box {
    wire::LockboxRecord record;
    Bytes payload;
  };

  // Stores (or replaces) the lockbox for record.handle: splits `payload`
  // into record.chunk_size pieces through the chunk store, fills
  // record.chunks / record.payload_size, persists the sidecar, and returns
  // the record as stored. Chunks of a replaced record are released first.
  Result<wire::LockboxRecord> Put(wire::LockboxRecord record,
                                  const Bytes& payload);

  // Record plus reassembled payload.
  Result<Box> Get(uint32_t handle);
  // Record only (no chunk fetches) — what Grant/Revoke callers inspect.
  Result<wire::LockboxRecord> GetRecord(uint32_t handle);

  // Adds (or replaces) the recipient's wrapped-key entry.
  Status Grant(uint32_t handle, const wire::LockboxEntry& entry);
  // Drops the recipient's entry; NotFound when there is none.
  Status Revoke(uint32_t handle, const std::string& recipient);

  // Releases the record's chunks and deletes the sidecar.
  Status Remove(uint32_t handle);

 private:
  static constexpr size_t kStripes = 64;

  // Resolves (creating on demand) /.lockbox/box. After the first success
  // the handle comes from box_dir_; the directory is never removed.
  Result<NfsFh> BoxDir(bool create);
  Result<wire::LockboxRecord> LoadLocked(uint32_t handle);
  Status StoreLocked(const wire::LockboxRecord& record);

  std::mutex& StripeFor(uint32_t handle) {
    return stripes_[handle % kStripes];
  }

  NfsServer* nfs_;
  ChunkStore* chunks_;
  std::mutex init_mu_;  // guards lazy creation of /.lockbox/box
  AtomicFh box_dir_;
  std::array<std::mutex, kStripes> stripes_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_LOCKBOX_LOCKBOX_H_
