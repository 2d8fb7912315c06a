// Workload inputs, generated from the run's seed before timing starts:
// keys, credential corpora, payloads and operation plans. The program sees
// only these; the same seed and shape give byte-identical inputs
// (InputsDigest), which the self-tests check.
#ifndef DISCFSBENCH_SRC_INPUTS_H_
#define DISCFSBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/dsa.h"
#include "src/util/bytes.h"

namespace discfsbench {

// Independent sub-seed for (label, index) under the run seed.
uint64_t DeriveSeed(uint64_t seed, std::string_view label, uint64_t index);
// DSA-512 key from a derived seed.
discfs::DsaPrivateKey MakeKey(uint64_t seed, std::string_view label,
                              uint64_t index);
// Pseudo-random bytes from a derived seed.
discfs::Bytes MakeBytes(uint64_t seed, std::string_view label, uint64_t index,
                        size_t size);
// The POLICY assertion every node installs: the admin key holds RWX over
// the DisCFS application domain.
std::string AdminPolicy(const discfs::DsaPrivateKey& admin);

// ------------------------------------------------------------- hot_read

struct HotReadShape {
  size_t readers = 4;
  size_t files = 64;
  size_t slice = 16;  // files each reader touches
  size_t file_bytes = 4096;
  size_t ops_per_reader = 1 << 16;  // plan length, cycled
  double getattr_share = 0.2;
};

struct HotOp {
  bool getattr = false;
  uint32_t file = 0;  // index into the reader's slice
};

struct HotReadInputs {
  discfs::DsaPrivateKey admin, server, intermediary;
  std::vector<discfs::DsaPrivateKey> readers;
  std::vector<discfs::Bytes> files;  // contents, by file index
  // Credentials: admin -> intermediary (blanket), then one per file from
  // the intermediary naming every reader (each reads only its slice).
  std::vector<std::string> corpus;
  std::vector<std::vector<HotOp>> ops;  // per reader
};
HotReadInputs MakeHotReadKeysAndFiles(uint64_t seed, const HotReadShape& shape);
// `handles[f]` is the inode file f was created as.
void SignHotReadCorpus(HotReadInputs& in, const HotReadShape& shape,
                       const std::vector<uint32_t>& handles);

// --------------------------------------------------------- policy_churn

struct PolicyChurnShape {
  size_t intermediaries = 10;
  size_t licensees = 100;       // per corpus credential (disjunction)
  size_t reader_files = 2048;   // tiny files the reader may read
  size_t synthetic = 1000;      // corpus credentials on synthetic handles
  size_t file_bytes = 64;
  size_t fresh = 2400;          // pre-signed fresh submits
  size_t grants = 2400;         // pre-signed revocation-sample grants
  size_t new_users = 600;       // pre-generated session identities
  size_t read_plan = 1 << 16;   // read-stream plan length, cycled
  size_t submit_plan = 1 << 14; // submit-stream plan length, cycled
  double resubmit_share = 0.2;
};

struct PolicyChurnInputs {
  discfs::DsaPrivateKey admin, server_a, server_b, reader;
  std::vector<discfs::DsaPrivateKey> intermediaries;
  std::vector<discfs::DsaPrivateKey> new_users;
  std::vector<discfs::Bytes> files;  // reader files; the last is the
                                     // revocation-sample file
  // Installed on both nodes. The reader's grants are blanket delegations
  // (every handle but the sample file's) from each intermediary, inside
  // 100-licensee disjunctions.
  std::vector<std::string> corpus;
  std::vector<std::string> fresh;    // submit stream (never installed)
  std::vector<std::string> grants;   // intermediary 0 -> reader, sample file
  std::vector<uint32_t> read_plan;   // reader file indices
  // Submit stream: index into `fresh`, or ~index for a re-submit of an
  // earlier fresh credential (a signature-cache hit).
  std::vector<int64_t> submit_plan;
};
PolicyChurnInputs MakePolicyChurnKeysAndFiles(uint64_t seed,
                                              const PolicyChurnShape& shape);
// `handles[i]` is file i's inode (identical on both nodes).
void SignPolicyChurnCorpus(PolicyChurnInputs& in,
                           const PolicyChurnShape& shape,
                           const std::vector<uint32_t>& handles);

// ----------------------------------------------------------- sync_mixed

struct SyncMixedShape {
  size_t users = 4;
  size_t big_file_bytes = 8 << 20;  // one per user
  size_t segment = 64 << 10;        // NFS READ/WRITE size and alignment
  size_t nfs_pool = 32;             // distinct segment contents
  size_t hot_segments = 16;         // per file, the skewed-read hot set
  double hot_share = 0.8;
  size_t sealed_slots = 8;          // lockbox files per user, sealed
  size_t public_slots = 8;          // and public
  size_t lockbox_bytes = 16 << 10;
  size_t lockbox_pool = 8;          // contents per pool
  size_t edit_patches = 64;
  size_t ops_per_user = 1 << 15;    // plan length, cycled
};

enum class SyncKind : uint8_t {
  kNfsRead,
  kNfsWrite,
  kGet,
  kPutSealedFresh,
  kPutSealedEdit,
  kPutPublicDup,
  kPutPublicUnique,
};

struct SyncOp {
  SyncKind kind = SyncKind::kNfsRead;
  uint32_t target = 0;   // segment (NFS) or lockbox slot
  uint32_t payload = 0;  // pool index (or patch index for edits)
};

// A ~1% edit: `runs` byte ranges overwritten with fresh bytes.
struct Patch {
  std::vector<std::pair<uint32_t, discfs::Bytes>> runs;
};

struct SyncMixedInputs {
  discfs::DsaPrivateKey admin, server;
  std::vector<discfs::DsaPrivateKey> users;
  std::vector<std::vector<discfs::DsaPrivateKey>> devices;  // 2-3 per user
  std::vector<discfs::Bytes> nfs_pool;
  std::vector<std::vector<uint32_t>> initial_segments;  // per user
  std::vector<discfs::Bytes> public_shared;             // same for all users
  std::vector<std::vector<discfs::Bytes>> public_unique;  // per user
  std::vector<std::vector<discfs::Bytes>> sealed_pool;    // per user
  std::vector<Patch> patches;
  std::vector<std::vector<SyncOp>> ops;  // per user
};
SyncMixedInputs MakeSyncMixedInputs(uint64_t seed, const SyncMixedShape& shape);
// Applies a patch in place (runs beyond the payload are clipped).
void ApplyPatch(const Patch& patch, discfs::Bytes& data);

// SHA-256 (hex) over every generated input of a workload.
std::string InputsDigest(const HotReadInputs& in);
std::string InputsDigest(const PolicyChurnInputs& in);
std::string InputsDigest(const SyncMixedInputs& in);

}  // namespace discfsbench

#endif  // DISCFSBENCH_SRC_INPUTS_H_
