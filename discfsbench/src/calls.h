// Pipelined client calls. DiscfsClient's typed methods block, so the
// generators issue the same procedures through the client's RpcClient
// (CallAsync) with the argument encodings DiscfsClient and NfsClient use,
// and decode the replies the same way.
#ifndef DISCFSBENCH_SRC_CALLS_H_
#define DISCFSBENCH_SRC_CALLS_H_

#include <future>
#include <string>
#include <vector>

#include "src/discfs/client.h"
#include "src/discfs/protocol.h"
#include "src/nfs/protocol.h"
#include "src/obs/trace.h"
#include "src/wire/lockbox.h"
#include "src/wire/xdr.h"

namespace discfsbench {

using Reply = discfs::Result<discfs::Bytes>;

// Issues one call with `trace` (0 = untraced) installed as the calling
// thread's trace, so the RPC trailer carries it.
inline std::future<Reply> Issue(discfs::DiscfsClient& client, uint32_t prog,
                                uint32_t proc, const discfs::Bytes& args,
                                uint64_t trace) {
  discfs::obs::TraceScope scope(trace);
  return client.nfs().rpc()->CallAsync(prog, proc, args);
}

inline std::future<Reply> IssueNfs(discfs::DiscfsClient& client,
                                   discfs::NfsProc proc,
                                   const discfs::Bytes& args, uint64_t trace) {
  return Issue(client, discfs::kNfsProgram, static_cast<uint32_t>(proc), args,
               trace);
}

inline std::future<Reply> IssueDiscfs(discfs::DiscfsClient& client,
                                      discfs::DiscfsProc proc,
                                      const discfs::Bytes& args,
                                      uint64_t trace) {
  return Issue(client, discfs::kDiscfsProgram, static_cast<uint32_t>(proc),
               args, trace);
}

inline discfs::Bytes FhArgs(const discfs::NfsFh& fh) {
  discfs::XdrWriter w;
  discfs::WriteFh(w, fh);
  return w.Take();
}

inline discfs::Bytes ReadArgs(const discfs::NfsFh& fh, uint64_t offset,
                              uint32_t count) {
  discfs::XdrWriter w;
  discfs::WriteFh(w, fh);
  w.PutU64(offset);
  w.PutU32(count);
  return w.Take();
}

inline discfs::Bytes WriteArgs(const discfs::NfsFh& fh, uint64_t offset,
                               const discfs::Bytes& data) {
  discfs::XdrWriter w;
  discfs::WriteFh(w, fh);
  w.PutU64(offset);
  w.PutOpaque(data);
  return w.Take();
}

inline discfs::Bytes PutLockboxArgs(
    const discfs::NfsFh& fh, bool sealed, uint32_t chunk_size,
    const discfs::Bytes& payload,
    const std::vector<discfs::wire::LockboxEntry>& entries) {
  discfs::XdrWriter w;
  discfs::WriteFh(w, fh);
  w.PutBool(sealed);
  w.PutU32(chunk_size);
  w.PutOpaque(payload);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const discfs::wire::LockboxEntry& entry : entries) {
    w.PutString(entry.recipient);
    w.PutOpaque(entry.wrapped_key);
  }
  return w.Take();
}

inline discfs::Bytes StringArgs(const std::string& s) {
  discfs::XdrWriter w;
  w.PutString(s);
  return w.Take();
}

// READ reply -> data.
inline discfs::Result<discfs::Bytes> DecodeRead(const discfs::Bytes& reply) {
  discfs::XdrReader r(reply);
  return r.GetOpaque();
}

// GETATTR / WRITE reply -> attributes.
inline discfs::Result<discfs::NfsFattr> DecodeAttr(
    const discfs::Bytes& reply) {
  discfs::XdrReader r(reply);
  return discfs::ReadFattr(r);
}

// GetLockbox reply -> record + stored payload.
inline discfs::Result<discfs::LockboxFetch> DecodeLockbox(
    const discfs::Bytes& reply) {
  discfs::XdrReader r(reply);
  ASSIGN_OR_RETURN(discfs::Bytes encoded, r.GetOpaque(1 << 22));
  discfs::LockboxFetch fetch;
  ASSIGN_OR_RETURN(fetch.record, discfs::wire::DecodeLockboxRecord(encoded));
  ASSIGN_OR_RETURN(fetch.payload, r.GetOpaque(discfs::kMaxLockboxPayload));
  return fetch;
}

}  // namespace discfsbench

#endif  // DISCFSBENCH_SRC_CALLS_H_
