#include "src/lockbox/chunkstore.h"

#include <algorithm>
#include <unordered_map>

#include "src/crypto/sha.h"
#include "src/util/hex.h"
#include "src/wire/lockbox.h"

namespace discfs {
namespace {

const Bytes kMagic = ToBytes("CNK1");

// Ffs caps directory-entry names at 58 bytes; the 64-char hex id is split
// into a 2-char fan-out directory and a 56-char file name.
constexpr size_t kIdHexLen = 2 * Sha256::kDigestSize;
constexpr size_t kPrefixLen = 2;
// 56 of the remaining 62 hex chars fit under kMaxNameLen; the dropped
// tail is covered by the full id embedded in the chunk header.
constexpr size_t kNameLen = 56;

std::string ChunkFileName(const std::string& id) {
  return id.substr(kPrefixLen, kNameLen);
}

void AppendU32Be(Bytes& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

uint32_t LoadU32Be(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// Value of a lowercase hex digit, or -1.
int HexDigitValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

bool IsChunkId(const std::string& id) {
  if (id.size() != kIdHexLen) {
    return false;
  }
  return std::all_of(id.begin(), id.end(),
                     [](char c) { return HexDigitValue(c) >= 0; });
}

}  // namespace

std::string ChunkStore::ChunkId(const Bytes& data) {
  return HexEncode(Sha256::Hash(data));
}

size_t ChunkStore::ShardIndex(const std::string& id) {
  if (id.empty()) {
    return 0;
  }
  const int value = HexDigitValue(id[0]);
  return value < 0 ? 0 : static_cast<size_t>(value);
}

Result<NfsFh> ChunkStore::PrefixDir(const std::string& prefix, bool create) {
  const size_t slot = static_cast<size_t>(HexDigitValue(prefix[0]) * 16 +
                                          HexDigitValue(prefix[1]));
  if (std::optional<NfsFh> cached = prefix_dirs_[slot].Load()) {
    return *cached;
  }
  // Serialized so two threads creating the spine for different chunks
  // don't race Lookup-then-Mkdir on the same directory.
  std::lock_guard<std::mutex> lock(init_mu_);
  ASSIGN_OR_RETURN(NfsFattr root, nfs_->GetRoot());
  NfsFh dir = root.fh;
  for (const std::string& name :
       {std::string(".lockbox"), std::string("chunks"), prefix}) {
    Result<NfsFattr> found = nfs_->Lookup(dir, name);
    if (found.ok()) {
      dir = found->fh;
      continue;
    }
    if (found.status().code() != StatusCode::kNotFound || !create) {
      return found.status();
    }
    ASSIGN_OR_RETURN(NfsFattr made, nfs_->Mkdir(dir, name, 0755));
    dir = made.fh;
  }
  prefix_dirs_[slot].Store(dir);
  return dir;
}

Result<NfsFh> ChunkStore::FindChunk(const std::string& id) {
  if (!IsChunkId(id)) {
    return InvalidArgumentError("malformed chunk id: " + id);
  }
  ASSIGN_OR_RETURN(NfsFh dir, PrefixDir(id.substr(0, kPrefixLen), false));
  ASSIGN_OR_RETURN(NfsFattr attr, nfs_->Lookup(dir, ChunkFileName(id)));
  ASSIGN_OR_RETURN(Bytes header, nfs_->Read(attr.fh, 0, kHeaderSize));
  if (header.size() != kHeaderSize ||
      !std::equal(kMagic.begin(), kMagic.end(), header.begin())) {
    return DataLossError("chunk " + id + " has a corrupt header");
  }
  // The file name only carries 56 of the 64 hex chars; the header carries
  // the full id, so a truncated-name collision or corruption is caught
  // here instead of being served as the wrong chunk.
  ASSIGN_OR_RETURN(Bytes want, HexDecode(id));
  if (!std::equal(want.begin(), want.end(),
                  header.begin() + kRefCountOffset + 4)) {
    return DataLossError("chunk " + id + " header id mismatch");
  }
  return attr.fh;
}

Result<uint32_t> ChunkStore::ReadRefCount(const NfsFh& fh) {
  ASSIGN_OR_RETURN(Bytes raw, nfs_->Read(fh, kRefCountOffset, 4));
  if (raw.size() != 4) {
    return DataLossError("short refcount read");
  }
  return LoadU32Be(raw.data());
}

Status ChunkStore::WriteRefCount(const NfsFh& fh, uint32_t count) {
  Bytes raw;
  AppendU32Be(raw, count);
  return nfs_->Write(fh, kRefCountOffset, raw).status();
}

Result<std::string> ChunkStore::Put(const Bytes& data) {
  std::string id = ChunkId(data);
  std::lock_guard<std::mutex> lock(ShardFor(id));
  puts_.fetch_add(1);
  Result<NfsFh> existing = FindChunk(id);
  if (existing.ok()) {
    ASSIGN_OR_RETURN(uint32_t count, ReadRefCount(*existing));
    if (count == UINT32_MAX) {
      return ResourceExhaustedError("chunk " + id + " refcount overflow");
    }
    RETURN_IF_ERROR(WriteRefCount(*existing, count + 1));
    dedup_hits_.fetch_add(1);
    return id;
  }
  if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }
  ASSIGN_OR_RETURN(NfsFh dir, PrefixDir(id.substr(0, kPrefixLen), true));
  ASSIGN_OR_RETURN(NfsFattr created,
                   nfs_->Create(dir, ChunkFileName(id), 0644));
  Bytes file = kMagic;
  AppendU32Be(file, 1);
  ASSIGN_OR_RETURN(Bytes raw_id, HexDecode(id));
  Append(file, raw_id);
  Append(file, data);
  RETURN_IF_ERROR(nfs_->Write(created.fh, 0, file).status());
  stored_.fetch_add(1);
  return id;
}

Result<Bytes> ChunkStore::Get(const std::string& id) {
  std::lock_guard<std::mutex> lock(ShardFor(id));
  ASSIGN_OR_RETURN(NfsFh fh, FindChunk(id));
  ASSIGN_OR_RETURN(NfsFattr attr, nfs_->GetAttr(fh));
  if (attr.size < kHeaderSize) {
    return DataLossError("chunk " + id + " shorter than its header");
  }
  uint64_t len = attr.size - kHeaderSize;
  ASSIGN_OR_RETURN(
      Bytes data, nfs_->Read(fh, kHeaderSize, static_cast<uint32_t>(len)));
  if (data.size() != len) {
    return DataLossError("short chunk read for " + id);
  }
  return data;
}

Status ChunkStore::Release(const std::string& id) {
  std::lock_guard<std::mutex> lock(ShardFor(id));
  ASSIGN_OR_RETURN(NfsFh fh, FindChunk(id));
  ASSIGN_OR_RETURN(uint32_t count, ReadRefCount(fh));
  if (count > 1) {
    return WriteRefCount(fh, count - 1);
  }
  ASSIGN_OR_RETURN(NfsFh dir, PrefixDir(id.substr(0, kPrefixLen), false));
  RETURN_IF_ERROR(nfs_->Remove(dir, ChunkFileName(id)));
  removed_.fetch_add(1);
  return OkStatus();
}

Result<ChunkStore::AuditReport> ChunkStore::Audit() {
  AuditReport report;
  ASSIGN_OR_RETURN(NfsFattr root, nfs_->GetRoot());
  Result<NfsFattr> lockbox_dir = nfs_->Lookup(root.fh, ".lockbox");
  if (!lockbox_dir.ok()) {
    if (lockbox_dir.status().code() == StatusCode::kNotFound) {
      return report;  // nothing stored yet: vacuously clean
    }
    return lockbox_dir.status();
  }

  // Mark: how many live lockbox records reference each chunk id. Dedup
  // means one stored chunk can legitimately carry many references.
  std::unordered_map<std::string, uint32_t> live;
  Result<NfsFattr> box_dir = nfs_->Lookup(lockbox_dir->fh, "box");
  if (box_dir.ok()) {
    ASSIGN_OR_RETURN(std::vector<NfsDirEntry> sidecars,
                     nfs_->ReadDir(box_dir->fh));
    for (const NfsDirEntry& sidecar : sidecars) {
      if (sidecar.type == FileType::kDirectory) {
        continue;
      }
      ASSIGN_OR_RETURN(NfsFattr attr, nfs_->GetAttr(sidecar.fh));
      ASSIGN_OR_RETURN(
          Bytes raw,
          nfs_->Read(sidecar.fh, 0, static_cast<uint32_t>(attr.size)));
      Result<wire::LockboxRecord> record = wire::DecodeLockboxRecord(raw);
      if (!record.ok()) {
        report.corrupt.push_back("box/" + sidecar.name);
        continue;
      }
      report.live_records++;
      for (const std::string& id : record->chunks) {
        ++live[id];
        report.live_references++;
      }
    }
  } else if (box_dir.status().code() != StatusCode::kNotFound) {
    return box_dir.status();
  }

  // Sweep: every stored chunk's header refcount against its live count.
  std::unordered_map<std::string, uint32_t> stored;
  Result<NfsFattr> chunks_dir = nfs_->Lookup(lockbox_dir->fh, "chunks");
  if (chunks_dir.ok()) {
    ASSIGN_OR_RETURN(std::vector<NfsDirEntry> prefixes,
                     nfs_->ReadDir(chunks_dir->fh));
    for (const NfsDirEntry& prefix : prefixes) {
      if (prefix.type != FileType::kDirectory) {
        continue;
      }
      ASSIGN_OR_RETURN(std::vector<NfsDirEntry> files,
                       nfs_->ReadDir(prefix.fh));
      for (const NfsDirEntry& file : files) {
        if (file.type == FileType::kDirectory) {
          continue;
        }
        report.chunks_scanned++;
        const std::string where = prefix.name + "/" + file.name;
        Result<Bytes> header = nfs_->Read(file.fh, 0, kHeaderSize);
        if (!header.ok() || header->size() != kHeaderSize ||
            !std::equal(kMagic.begin(), kMagic.end(), header->begin())) {
          report.corrupt.push_back(where);
          continue;
        }
        const uint32_t refcount = LoadU32Be(header->data() + kRefCountOffset);
        // The file name only carries 58 of the 64 hex chars; the header
        // embeds the full id. The two must agree on their overlap.
        const std::string id = HexEncode(
            header->data() + kRefCountOffset + 4, Sha256::kDigestSize);
        if (id.substr(0, kPrefixLen) != prefix.name ||
            id.substr(kPrefixLen, kNameLen) != file.name) {
          report.corrupt.push_back(where);
          continue;
        }
        stored[id] = refcount;
        auto it = live.find(id);
        const uint32_t want = it == live.end() ? 0 : it->second;
        if (want == 0) {
          report.orphaned.push_back(id);
        } else if (refcount > want) {
          report.over_referenced.push_back(id);
        } else if (refcount < want) {
          report.under_referenced.push_back(id);
        }
      }
    }
  } else if (chunks_dir.status().code() != StatusCode::kNotFound) {
    return chunks_dir.status();
  }

  for (const auto& [id, count] : live) {
    if (stored.find(id) == stored.end()) {
      report.missing.push_back(id);
    }
  }
  // Deterministic output for tests and the bench report.
  std::sort(report.orphaned.begin(), report.orphaned.end());
  std::sort(report.over_referenced.begin(), report.over_referenced.end());
  std::sort(report.under_referenced.begin(), report.under_referenced.end());
  std::sort(report.missing.begin(), report.missing.end());
  std::sort(report.corrupt.begin(), report.corrupt.end());
  return report;
}

Result<uint32_t> ChunkStore::RefCount(const std::string& id) {
  std::lock_guard<std::mutex> lock(ShardFor(id));
  Result<NfsFh> fh = FindChunk(id);
  if (!fh.ok()) {
    if (fh.status().code() == StatusCode::kNotFound) {
      return 0u;
    }
    return fh.status();
  }
  return ReadRefCount(*fh);
}

}  // namespace discfs
