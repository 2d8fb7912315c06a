#include "discfsbench/src/inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/crypto/groups.h"
#include "src/crypto/sha.h"
#include "src/discfs/credentials.h"
#include "src/keynote/assertion.h"
#include "src/util/hex.h"
#include "src/util/prng.h"

namespace discfsbench {

using discfs::Bytes;
using discfs::DsaPrivateKey;

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Runs fn(i) for i in [0, n) on up to four threads. Signing a corpus is
// set-up work (counted in setup_s), not load.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

std::string Sign(const discfs::keynote::AssertionBuilder& builder,
                 const DsaPrivateKey& key) {
  auto text = builder.Sign(key, discfs::keynote::SignatureAlgorithm::kDsaSha1);
  if (!text.ok()) {
    std::fprintf(stderr, "credential signing failed: %s\n",
                 text.status().ToString().c_str());
    std::abort();
  }
  return std::move(text).value();
}

std::string Quoted(const std::string& principal) {
  return "\"" + principal + "\"";
}

std::string Blanket(const DsaPrivateKey& issuer, const DsaPrivateKey& subject) {
  auto text = discfs::IssueCredential(issuer, subject.public_key(), "",
                                      discfs::CredentialOptions{});
  if (!text.ok()) {
    std::fprintf(stderr, "credential signing failed: %s\n",
                 text.status().ToString().c_str());
    std::abort();
  }
  return std::move(text).value();
}

class Digest {
 public:
  void Add(const Bytes& b) {
    AddU64(b.size());
    sha_.Update(b);
  }
  void Add(const std::string& s) {
    AddU64(s.size());
    sha_.Update(std::string_view(s));
  }
  void Add(const DsaPrivateKey& k) { Add(k.Serialize()); }
  void AddU64(uint64_t v) {
    uint8_t buf[8];
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    sha_.Update(buf, sizeof(buf));
  }
  std::string Hex() { return discfs::HexEncode(sha_.Finish()); }

 private:
  discfs::Sha256 sha_;
};

}  // namespace

uint64_t DeriveSeed(uint64_t seed, std::string_view label, uint64_t index) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the label
  for (char c : label) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return SplitMix(SplitMix(seed ^ h) + index);
}

DsaPrivateKey MakeKey(uint64_t seed, std::string_view label, uint64_t index) {
  return DsaPrivateKey::Generate(
      discfs::Dsa512(),
      discfs::LockedPrngBytes(DeriveSeed(seed, label, index)));
}

Bytes MakeBytes(uint64_t seed, std::string_view label, uint64_t index,
                size_t size) {
  discfs::Prng prng(DeriveSeed(seed, label, index));
  return prng.NextBytes(size);
}

std::string AdminPolicy(const DsaPrivateKey& admin) {
  return "Authorizer: \"POLICY\"\n"
         "Licensees: \"" +
         admin.public_key().ToKeyNoteString() +
         "\"\n"
         "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n";
}

// ------------------------------------------------------------- hot_read

HotReadInputs MakeHotReadKeysAndFiles(uint64_t seed,
                                      const HotReadShape& shape) {
  HotReadInputs in;
  in.admin = MakeKey(seed, "hot.admin", 0);
  in.server = MakeKey(seed, "hot.server", 0);
  in.intermediary = MakeKey(seed, "hot.intermediary", 0);
  for (size_t r = 0; r < shape.readers; ++r) {
    in.readers.push_back(MakeKey(seed, "hot.reader", r));
  }
  for (size_t f = 0; f < shape.files; ++f) {
    in.files.push_back(MakeBytes(seed, "hot.file", f, shape.file_bytes));
  }
  for (size_t r = 0; r < shape.readers; ++r) {
    discfs::Prng prng(DeriveSeed(seed, "hot.ops", r));
    std::vector<HotOp> ops(shape.ops_per_reader);
    for (HotOp& op : ops) {
      op.getattr = prng.NextDouble() < shape.getattr_share;
      op.file = static_cast<uint32_t>(prng.NextBelow(shape.slice));
    }
    in.ops.push_back(std::move(ops));
  }
  return in;
}

void SignHotReadCorpus(HotReadInputs& in, const HotReadShape& shape,
                       const std::vector<uint32_t>& handles) {
  std::string readers;
  for (const DsaPrivateKey& r : in.readers) {
    readers += (readers.empty() ? "" : " || ") +
               Quoted(r.public_key().ToKeyNoteString());
  }
  in.corpus.assign(1 + shape.files, "");
  in.corpus[0] = Blanket(in.admin, in.intermediary);
  ParallelFor(shape.files, [&](size_t f) {
    discfs::keynote::AssertionBuilder b;
    b.SetAuthorizer(in.intermediary.public_key().ToKeyNoteString())
        .SetLicensees(readers)
        .SetConditions(discfs::BuildConditions(std::to_string(handles[f]),
                                               discfs::CredentialOptions{}))
        .SetComment("hot_read file " + std::to_string(f));
    in.corpus[1 + f] = Sign(b, in.intermediary);
  });
}

// --------------------------------------------------------- policy_churn

PolicyChurnInputs MakePolicyChurnKeysAndFiles(uint64_t seed,
                                              const PolicyChurnShape& shape) {
  PolicyChurnInputs in;
  in.admin = MakeKey(seed, "churn.admin", 0);
  in.server_a = MakeKey(seed, "churn.server", 0);
  in.server_b = MakeKey(seed, "churn.server", 1);
  in.reader = MakeKey(seed, "churn.reader", 0);
  for (size_t i = 0; i < shape.intermediaries; ++i) {
    in.intermediaries.push_back(MakeKey(seed, "churn.intermediary", i));
  }
  in.new_users.resize(shape.new_users);
  ParallelFor(shape.new_users, [&](size_t i) {
    in.new_users[i] = MakeKey(seed, "churn.new_user", i);
  });
  for (size_t f = 0; f <= shape.reader_files; ++f) {
    in.files.push_back(MakeBytes(seed, "churn.file", f, shape.file_bytes));
  }
  discfs::Prng prng(DeriveSeed(seed, "churn.read_plan", 0));
  for (size_t i = 0; i < shape.read_plan; ++i) {
    in.read_plan.push_back(
        static_cast<uint32_t>(prng.NextBelow(shape.reader_files)));
  }
  discfs::Prng sub(DeriveSeed(seed, "churn.submit_plan", 0));
  int64_t next_fresh = 0;
  for (size_t i = 0; i < shape.submit_plan; ++i) {
    if (next_fresh > 0 && sub.NextDouble() < shape.resubmit_share) {
      in.submit_plan.push_back(
          ~static_cast<int64_t>(sub.NextBelow(static_cast<uint64_t>(
              std::min<int64_t>(next_fresh, shape.fresh)))));
    } else {
      in.submit_plan.push_back(next_fresh++);
    }
  }
  return in;
}

void SignPolicyChurnCorpus(PolicyChurnInputs& in,
                           const PolicyChurnShape& shape,
                           const std::vector<uint32_t>& handles) {
  const size_t inters = in.intermediaries.size();
  // Corpus: admin -> each intermediary (blanket); each intermediary ->
  // the reader among 99 synthetic licensees, on every handle but the
  // revocation-sample file; then `synthetic` credentials naming 100
  // synthetic licensees each on synthetic handles.
  const size_t bulk = inters + shape.synthetic;
  const std::string reader = in.reader.public_key().ToKeyNoteString();
  const std::string sample = std::to_string(handles[shape.reader_files]);
  in.corpus.assign(inters + bulk, "");
  in.fresh.assign(shape.fresh, "");
  in.grants.assign(shape.grants, "");
  for (size_t i = 0; i < inters; ++i) {
    in.corpus[i] = Blanket(in.admin, in.intermediaries[i]);
  }
  ParallelFor(bulk + shape.fresh + shape.grants, [&](size_t k) {
    discfs::keynote::AssertionBuilder b;
    if (k < bulk) {
      const DsaPrivateKey& inter = in.intermediaries[k % inters];
      std::string licensees;
      size_t synthetic = shape.licensees;
      std::string conditions;
      if (k < inters) {
        licensees = Quoted(reader);
        --synthetic;
        conditions = "(app_domain == \"DisCFS\") && (HANDLE != \"" + sample +
                     "\") -> \"RWX\";";
      } else {
        conditions =
            discfs::BuildConditions(std::to_string(10'000'000 + k), {});
      }
      for (size_t j = 0; j < synthetic; ++j) {
        licensees += (licensees.empty() ? "" : " || ") +
                     Quoted("u" + std::to_string(k * shape.licensees + j));
      }
      b.SetAuthorizer(inter.public_key().ToKeyNoteString())
          .SetLicensees(licensees)
          .SetConditions(conditions)
          .SetComment("corpus " + std::to_string(k));
      in.corpus[inters + k] = Sign(b, inter);
    } else if (k < bulk + shape.fresh) {
      // Fresh submit: a new principal on a synthetic handle.
      size_t i = k - bulk;
      const DsaPrivateKey& inter = in.intermediaries[i % inters];
      b.SetAuthorizer(inter.public_key().ToKeyNoteString())
          .SetLicensees(Quoted("fresh" + std::to_string(i)))
          .SetConditions(discfs::BuildConditions(
              std::to_string(20'000'000 + i), {}))
          .SetComment("fresh " + std::to_string(i));
      in.fresh[i] = Sign(b, inter);
    } else {
      // Revocation sample grant: intermediary 0 -> reader on the sample
      // file; each text differs, so each is a distinct credential id.
      size_t i = k - bulk - shape.fresh;
      b.SetAuthorizer(in.intermediaries[0].public_key().ToKeyNoteString())
          .SetLicensees(Quoted(reader))
          .SetConditions(discfs::BuildConditions(sample, {}))
          .SetComment("grant " + std::to_string(i));
      in.grants[i] = Sign(b, in.intermediaries[0]);
    }
  });
}

// ----------------------------------------------------------- sync_mixed

SyncMixedInputs MakeSyncMixedInputs(uint64_t seed,
                                    const SyncMixedShape& shape) {
  SyncMixedInputs in;
  in.admin = MakeKey(seed, "sync.admin", 0);
  in.server = MakeKey(seed, "sync.server", 0);
  size_t device_index = 0;
  for (size_t u = 0; u < shape.users; ++u) {
    in.users.push_back(MakeKey(seed, "sync.user", u));
    std::vector<DsaPrivateKey> devices;
    for (size_t d = 0; d < 2 + u % 2; ++d) {
      devices.push_back(MakeKey(seed, "sync.device", device_index++));
    }
    in.devices.push_back(std::move(devices));
  }
  for (size_t i = 0; i < shape.nfs_pool; ++i) {
    in.nfs_pool.push_back(MakeBytes(seed, "sync.nfs", i, shape.segment));
  }
  const size_t segments = shape.big_file_bytes / shape.segment;
  for (size_t u = 0; u < shape.users; ++u) {
    discfs::Prng prng(DeriveSeed(seed, "sync.initial", u));
    std::vector<uint32_t> initial(segments);
    for (uint32_t& s : initial) {
      s = static_cast<uint32_t>(prng.NextBelow(shape.nfs_pool));
    }
    in.initial_segments.push_back(std::move(initial));
  }
  for (size_t i = 0; i < shape.lockbox_pool; ++i) {
    in.public_shared.push_back(
        MakeBytes(seed, "sync.public_shared", i, shape.lockbox_bytes));
  }
  for (size_t u = 0; u < shape.users; ++u) {
    std::vector<Bytes> unique, sealed;
    for (size_t i = 0; i < shape.lockbox_pool; ++i) {
      unique.push_back(MakeBytes(seed, "sync.public_unique",
                                 u * shape.lockbox_pool + i,
                                 shape.lockbox_bytes));
      sealed.push_back(MakeBytes(seed, "sync.sealed",
                                 u * shape.lockbox_pool + i,
                                 shape.lockbox_bytes));
    }
    in.public_unique.push_back(std::move(unique));
    in.sealed_pool.push_back(std::move(sealed));
  }
  // ~1% edits: four runs of lockbox_bytes/400 bytes each.
  discfs::Prng edits(DeriveSeed(seed, "sync.patch", 0));
  const size_t run = std::max<size_t>(1, shape.lockbox_bytes / 400);
  for (size_t p = 0; p < shape.edit_patches; ++p) {
    Patch patch;
    for (int r = 0; r < 4; ++r) {
      uint32_t at = static_cast<uint32_t>(
          edits.NextBelow(shape.lockbox_bytes - run));
      patch.runs.push_back({at, edits.NextBytes(run)});
    }
    in.patches.push_back(std::move(patch));
  }
  // Mix: 25% NFS READ, 25% NFS WRITE, 25% lockbox GET, 25% lockbox PUT
  // (sealed fresh 30%, sealed edit 30%, public duplicate 20%, public
  // unique 20%). NFS offsets are skewed onto a hot set.
  const size_t slots = shape.sealed_slots + shape.public_slots;
  for (size_t u = 0; u < shape.users; ++u) {
    discfs::Prng prng(DeriveSeed(seed, "sync.ops", u));
    auto segment = [&] {
      return static_cast<uint32_t>(prng.NextDouble() < shape.hot_share
                                       ? prng.NextBelow(shape.hot_segments)
                                       : prng.NextBelow(segments));
    };
    std::vector<SyncOp> ops(shape.ops_per_user);
    for (SyncOp& op : ops) {
      double x = prng.NextDouble();
      if (x < 0.25) {
        op = {SyncKind::kNfsRead, segment(), 0};
      } else if (x < 0.50) {
        op = {SyncKind::kNfsWrite, segment(),
              static_cast<uint32_t>(prng.NextBelow(shape.nfs_pool))};
      } else if (x < 0.75) {
        op = {SyncKind::kGet, static_cast<uint32_t>(prng.NextBelow(slots)), 0};
      } else {
        double y = prng.NextDouble();
        uint32_t sealed_slot =
            static_cast<uint32_t>(prng.NextBelow(shape.sealed_slots));
        uint32_t public_slot = static_cast<uint32_t>(
            shape.sealed_slots + prng.NextBelow(shape.public_slots));
        uint32_t pool =
            static_cast<uint32_t>(prng.NextBelow(shape.lockbox_pool));
        if (y < 0.3) {
          op = {SyncKind::kPutSealedFresh, sealed_slot, pool};
        } else if (y < 0.6) {
          op = {SyncKind::kPutSealedEdit, sealed_slot,
                static_cast<uint32_t>(prng.NextBelow(shape.edit_patches))};
        } else if (y < 0.8) {
          op = {SyncKind::kPutPublicDup, public_slot, pool};
        } else {
          op = {SyncKind::kPutPublicUnique, public_slot, pool};
        }
      }
    }
    in.ops.push_back(std::move(ops));
  }
  return in;
}

void ApplyPatch(const Patch& patch, Bytes& data) {
  for (const auto& [at, bytes] : patch.runs) {
    for (size_t i = 0; i < bytes.size() && at + i < data.size(); ++i) {
      data[at + i] = bytes[i];
    }
  }
}

// -------------------------------------------------------------- digests

std::string InputsDigest(const HotReadInputs& in) {
  Digest d;
  d.Add(in.admin);
  d.Add(in.server);
  d.Add(in.intermediary);
  for (const auto& k : in.readers) d.Add(k);
  for (const auto& f : in.files) d.Add(f);
  for (const auto& c : in.corpus) d.Add(c);
  for (const auto& ops : in.ops) {
    for (const HotOp& op : ops) d.AddU64(op.file * 2 + op.getattr);
  }
  return d.Hex();
}

std::string InputsDigest(const PolicyChurnInputs& in) {
  Digest d;
  d.Add(in.admin);
  d.Add(in.server_a);
  d.Add(in.server_b);
  d.Add(in.reader);
  for (const auto& k : in.intermediaries) d.Add(k);
  for (const auto& k : in.new_users) d.Add(k);
  for (const auto& f : in.files) d.Add(f);
  for (const auto& c : in.corpus) d.Add(c);
  for (const auto& c : in.fresh) d.Add(c);
  for (const auto& c : in.grants) d.Add(c);
  for (uint32_t i : in.read_plan) d.AddU64(i);
  for (int64_t i : in.submit_plan) d.AddU64(static_cast<uint64_t>(i));
  return d.Hex();
}

std::string InputsDigest(const SyncMixedInputs& in) {
  Digest d;
  d.Add(in.admin);
  d.Add(in.server);
  for (const auto& k : in.users) d.Add(k);
  for (const auto& ds : in.devices) {
    for (const auto& k : ds) d.Add(k);
  }
  for (const auto& b : in.nfs_pool) d.Add(b);
  for (const auto& v : in.initial_segments) {
    for (uint32_t s : v) d.AddU64(s);
  }
  for (const auto& b : in.public_shared) d.Add(b);
  for (const auto& v : in.public_unique) {
    for (const auto& b : v) d.Add(b);
  }
  for (const auto& v : in.sealed_pool) {
    for (const auto& b : v) d.Add(b);
  }
  for (const Patch& p : in.patches) {
    for (const auto& [at, bytes] : p.runs) {
      d.AddU64(at);
      d.Add(bytes);
    }
  }
  for (const auto& ops : in.ops) {
    for (const SyncOp& op : ops) {
      d.AddU64(static_cast<uint64_t>(op.kind));
      d.AddU64(op.target);
      d.AddU64(op.payload);
    }
  }
  return d.Hex();
}

}  // namespace discfsbench
