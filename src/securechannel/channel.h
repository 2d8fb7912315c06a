// SecureChannel — the repository's stand-in for the paper's IPsec tunnel.
//
// The paper (§4.3, §5) uses IPsec/IKE for exactly two properties:
//   (a) NFS traffic between client and server is confidential and
//       integrity-protected;
//   (b) the DisCFS server learns the client's *public key* during IKE key
//       establishment and associates every subsequent NFS request with it.
//
// This module provides both with a signed ephemeral Diffie-Hellman handshake
// (the IKE stand-in) and a ChaCha20-Poly1305 record layer with ESP-style
// sequence numbers and an anti-replay window (the ESP stand-in).
//
// Handshake (3 messages over an established transport):
//   C -> S : ClientHello  { client_identity_key, dh_c, nonce_c }
//   S -> C : ServerHello  { server_identity_key, dh_s, nonce_s,
//                           SIG_server(transcript_1) }
//   C -> S : ClientAuth   { SIG_client(transcript_2) }
// where transcript_1 = ClientHello || ServerHello-body and transcript_2 =
// transcript_1 || ServerHello-signature. Traffic keys come from
// HKDF(salt = nonce_c || nonce_s, ikm = DH secret). Each direction has its
// own key, which is what keeps the directions apart: record nonces are
// 0^4 || LE64(seq) on both sides, for a monotone per-direction sequence
// number that is also authenticated as AAD (BE64). See README.md for the
// record's wire layout.
#ifndef DISCFS_SRC_SECURECHANNEL_CHANNEL_H_
#define DISCFS_SRC_SECURECHANNEL_CHANNEL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "src/crypto/aead.h"
#include "src/crypto/dsa.h"
#include "src/net/transport.h"
#include "src/securechannel/replay_window.h"
#include "src/util/status.h"

namespace discfs {

struct ChannelIdentity {
  DsaPrivateKey key;
  std::function<Bytes(size_t)> rand_bytes;
};

class SecureChannel : public MsgStream {
 public:
  // Client side. If `expected_server` is set, the handshake fails unless the
  // server proves possession of exactly that key (the SFS-style
  // "self-certifying" check: the expected key typically comes from the
  // mount/attach specification).
  static Result<std::unique_ptr<SecureChannel>> ClientHandshake(
      std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity,
      const std::optional<DsaPublicKey>& expected_server);

  // Server side: accepts any client key (DisCFS authorizes by credentials,
  // not identity lists) and exposes it via peer_key().
  static Result<std::unique_ptr<SecureChannel>> ServerHandshake(
      std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity);

  // MsgStream: AEAD-sealed records over the inner transport. Send and Recv
  // each serialize internally but never against each other: the send state
  // (sequence counter) and receive state (replay window) are disjoint and
  // carry their own locks, so the RPC demux loop can sit in Recv while
  // worker threads stream replies through Send.
  Status Send(const Bytes& message) override;
  Result<Bytes> Recv() override;
  void Close() override;
  void Shutdown() override;

  // Non-blocking face for event-loop serving: readiness comes from the
  // inner transport's fd; TryRecv opens a record only when a whole sealed
  // frame is already available, and SendNonBlocking seals under the send
  // lock (sequence order preserved) before handing the wire bytes to the
  // transport's buffered non-blocking sender.
  int PollFd() const override { return transport_->PollFd(); }
  Result<std::optional<Bytes>> TryRecv() override;
  Result<bool> SendNonBlocking(const Bytes& message) override;
  Result<bool> FlushSend() override;

  // The authenticated identity of the other endpoint. For the server this
  // is the client key that DisCFS binds NFS requests to.
  const DsaPublicKey& peer_key() const { return peer_key_; }

 private:
  friend class ServerHandshakeMachine;
  // Lets tests build channels over known traffic keys to pin the record
  // layout and feed the record decoder hand-made frames.
  friend class SecureChannelTestPeer;

  SecureChannel(std::unique_ptr<MsgStream> transport, Bytes send_key,
                Bytes recv_key, DsaPublicKey peer_key);

  // Record nonce 0^4 ‖ LE64(seq), the same in both directions.
  static void BuildNonce(uint64_t seq, uint8_t nonce[Aead::kNonceSize]);
  // Authenticates + replay-checks one wire record (recv_mu_ held).
  Result<Bytes> OpenRecord(const Bytes& frame);
  // Seals `message` into a wire record (send_mu_ held).
  Bytes SealRecord(const Bytes& message);

  std::unique_ptr<MsgStream> transport_;
  Aead send_aead_;
  Aead recv_aead_;
  DsaPublicKey peer_key_;
  // Send direction: sequence allocation and the transport write happen
  // under send_mu_ so records hit the wire in sequence order.
  std::mutex send_mu_;
  uint64_t send_seq_ = 0;  // guarded by send_mu_
  // Receive direction: the blocking transport read and the replay-window
  // update happen under recv_mu_ (never held by a sender).
  std::mutex recv_mu_;
  ReplayWindow recv_window_;  // guarded by recv_mu_
};

// Sans-io server side of the same 3-message handshake: one machine per
// in-flight connection, driven a message at a time, so an event loop can
// interleave hundreds of half-open handshakes without parking a thread
// per connection (ServerHandshake blocks its caller twice; a slow or
// malicious client would pin a pool worker for the whole exchange).
//
// Usage: feed each inbound handshake frame to OnMessage; write any
// returned response back to the peer; once done(), call Finish with the
// transport to obtain the established SecureChannel. The machine does no
// I/O — readiness, timeouts and framing stay with the caller.
class ServerHandshakeMachine {
 public:
  explicit ServerHandshakeMachine(const ChannelIdentity& identity);

  struct Step {
    Bytes response;    // when non-empty, send to the peer
    bool done = false; // when true, call Finish
  };

  // Advances the handshake with one peer message. CPU-heavy (DH exchange
  // plus a DSA sign or verify) — run on a worker, not the poller thread.
  // Any error is terminal for this machine.
  Result<Step> OnMessage(const Bytes& message);

  bool done() const { return state_ == State::kDone; }

  // Binds the derived traffic keys to `transport`. Valid exactly once,
  // after done(); the machine is consumed.
  Result<std::unique_ptr<SecureChannel>> Finish(
      std::unique_ptr<MsgStream> transport);

  // The client identity authenticated by the handshake (set once done()).
  const std::optional<DsaPublicKey>& client_key() const { return client_key_; }

 private:
  enum class State { kAwaitClientHello, kAwaitClientAuth, kDone, kFailed };

  ChannelIdentity identity_;
  State state_ = State::kAwaitClientHello;
  Bytes transcript1_;
  Bytes server_sig_;
  Bytes send_key_;  // server -> client
  Bytes recv_key_;  // client -> server
  std::optional<DsaPublicKey> client_key_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_SECURECHANNEL_CHANNEL_H_
