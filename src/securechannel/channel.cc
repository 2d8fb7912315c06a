#include "src/securechannel/channel.h"

#include <cstring>

#include "src/crypto/dh.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

constexpr size_t kNonceLen = 16;

constexpr char kKdfInfoClient[] = "discfs-channel-v1 client->server";
constexpr char kKdfInfoServer[] = "discfs-channel-v1 server->client";

// Record frame: BE64 seq ‖ BE32 body length ‖ body ‖ zero pad to 4, where
// body = ciphertext ‖ tag. This is the XDR encoding of (u64, opaque).
constexpr size_t kSeqSize = 8;
constexpr size_t kRecordHeaderSize = kSeqSize + 4;
constexpr size_t kMaxRecordBody = size_t{1} << 26;  // XdrReader's opaque cap

size_t XdrPad(size_t n) { return (4 - n % 4) % 4; }

void StoreBE32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (24 - 8 * i));
  }
}

void StoreBE64(uint8_t* p, uint64_t v) {
  StoreBE32(p, static_cast<uint32_t>(v >> 32));
  StoreBE32(p + 4, static_cast<uint32_t>(v));
}

uint32_t LoadBE32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

uint64_t LoadBE64(const uint8_t* p) {
  return (uint64_t{LoadBE32(p)} << 32) | LoadBE32(p + 4);
}

struct Hello {
  Bytes identity_key;  // serialized DsaPublicKey
  Bytes dh_public;
  Bytes nonce;
};

Bytes EncodeHello(const Hello& h) {
  XdrWriter w;
  w.PutOpaque(h.identity_key);
  w.PutOpaque(h.dh_public);
  w.PutOpaque(h.nonce);
  return w.Take();
}

Result<Hello> DecodeHello(const Bytes& data) {
  XdrReader r(data);
  Hello h;
  ASSIGN_OR_RETURN(h.identity_key, r.GetOpaque());
  ASSIGN_OR_RETURN(h.dh_public, r.GetOpaque());
  ASSIGN_OR_RETURN(h.nonce, r.GetOpaque());
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in hello");
  }
  if (h.nonce.size() != kNonceLen) {
    return InvalidArgumentError("bad hello nonce length");
  }
  return h;
}

Bytes SignTranscript(const DsaPrivateKey& key, const Bytes& transcript) {
  DsaSignature sig = key.Sign(Sha256::Hash(transcript));
  return SerializeDsaSignature(sig, key.public_key().params());
}

Status VerifyTranscript(const DsaPublicKey& key, const Bytes& transcript,
                        const Bytes& sig_bytes) {
  ASSIGN_OR_RETURN(DsaSignature sig,
                   DeserializeDsaSignature(sig_bytes, key.params()));
  if (!key.Verify(Sha256::Hash(transcript), sig)) {
    return UnauthenticatedError("handshake signature verification failed");
  }
  return OkStatus();
}

struct TrafficKeys {
  Bytes client_to_server;
  Bytes server_to_client;
};

TrafficKeys DeriveKeys(const Bytes& dh_secret, const Bytes& nonce_c,
                       const Bytes& nonce_s) {
  Bytes salt = nonce_c;
  Append(salt, nonce_s);
  Bytes prk = HkdfExtract(salt, dh_secret);
  TrafficKeys keys;
  keys.client_to_server =
      HkdfExpand(prk, ToBytes(kKdfInfoClient), Aead::kKeySize);
  keys.server_to_client =
      HkdfExpand(prk, ToBytes(kKdfInfoServer), Aead::kKeySize);
  return keys;
}

}  // namespace

SecureChannel::SecureChannel(std::unique_ptr<MsgStream> transport,
                             Bytes send_key, Bytes recv_key,
                             DsaPublicKey peer_key)
    : transport_(std::move(transport)),
      send_aead_(std::move(send_key)),
      recv_aead_(std::move(recv_key)),
      peer_key_(std::move(peer_key)) {}

void SecureChannel::BuildNonce(uint64_t seq, uint8_t nonce[Aead::kNonceSize]) {
  std::memset(nonce, 0, 4);
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
}

Result<std::unique_ptr<SecureChannel>> SecureChannel::ClientHandshake(
    std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity,
    const std::optional<DsaPublicKey>& expected_server) {
  const DsaParams& group = identity.key.public_key().params();
  DhKeyPair dh = DhKeyPair::Generate(group, identity.rand_bytes);

  Hello client_hello{identity.key.public_key().Serialize(), dh.PublicValue(),
                     identity.rand_bytes(kNonceLen)};
  Bytes client_hello_bytes = EncodeHello(client_hello);
  RETURN_IF_ERROR(transport->Send(client_hello_bytes));

  ASSIGN_OR_RETURN(Bytes server_msg, transport->Recv());
  // ServerHello = hello-body || signature (XDR opaques).
  XdrReader r(server_msg);
  ASSIGN_OR_RETURN(Bytes server_hello_bytes, r.GetOpaque());
  ASSIGN_OR_RETURN(Bytes server_sig, r.GetOpaque());
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in server hello");
  }
  ASSIGN_OR_RETURN(Hello server_hello, DecodeHello(server_hello_bytes));
  ASSIGN_OR_RETURN(DsaPublicKey server_key,
                   DsaPublicKey::Deserialize(server_hello.identity_key));
  if (expected_server.has_value() && !(server_key == *expected_server)) {
    return UnauthenticatedError("server key does not match expected key");
  }

  Bytes transcript1 = client_hello_bytes;
  Append(transcript1, server_hello_bytes);
  RETURN_IF_ERROR(VerifyTranscript(server_key, transcript1, server_sig));

  ASSIGN_OR_RETURN(Bytes secret, dh.SharedSecret(server_hello.dh_public));
  TrafficKeys keys =
      DeriveKeys(secret, client_hello.nonce, server_hello.nonce);

  Bytes transcript2 = transcript1;
  Append(transcript2, server_sig);
  XdrWriter auth;
  auth.PutOpaque(SignTranscript(identity.key, transcript2));
  RETURN_IF_ERROR(transport->Send(auth.Take()));

  return std::unique_ptr<SecureChannel>(new SecureChannel(
      std::move(transport), std::move(keys.client_to_server),
      std::move(keys.server_to_client), std::move(server_key)));
}

Result<std::unique_ptr<SecureChannel>> SecureChannel::ServerHandshake(
    std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity) {
  // The blocking entry point is the sans-io machine plus a trivial driver;
  // there is exactly one handshake implementation.
  ServerHandshakeMachine machine(identity);
  while (!machine.done()) {
    ASSIGN_OR_RETURN(Bytes message, transport->Recv());
    ASSIGN_OR_RETURN(ServerHandshakeMachine::Step step,
                     machine.OnMessage(message));
    if (!step.response.empty()) {
      RETURN_IF_ERROR(transport->Send(step.response));
    }
  }
  return machine.Finish(std::move(transport));
}

ServerHandshakeMachine::ServerHandshakeMachine(const ChannelIdentity& identity)
    : identity_(identity) {}

Result<ServerHandshakeMachine::Step> ServerHandshakeMachine::OnMessage(
    const Bytes& message) {
  switch (state_) {
    case State::kAwaitClientHello: {
      state_ = State::kFailed;  // restored on success below
      ASSIGN_OR_RETURN(Hello client_hello, DecodeHello(message));
      ASSIGN_OR_RETURN(DsaPublicKey client_key,
                       DsaPublicKey::Deserialize(client_hello.identity_key));
      const DsaParams& group = identity_.key.public_key().params();
      if (!(client_key.params() == group)) {
        return InvalidArgumentError("client uses a different DH group");
      }
      DhKeyPair dh = DhKeyPair::Generate(group, identity_.rand_bytes);

      Hello server_hello{identity_.key.public_key().Serialize(),
                         dh.PublicValue(), identity_.rand_bytes(kNonceLen)};
      Bytes server_hello_bytes = EncodeHello(server_hello);

      transcript1_ = message;
      Append(transcript1_, server_hello_bytes);
      server_sig_ = SignTranscript(identity_.key, transcript1_);

      ASSIGN_OR_RETURN(Bytes secret, dh.SharedSecret(client_hello.dh_public));
      TrafficKeys keys =
          DeriveKeys(secret, client_hello.nonce, server_hello.nonce);
      send_key_ = std::move(keys.server_to_client);
      recv_key_ = std::move(keys.client_to_server);
      client_key_ = std::move(client_key);

      XdrWriter w;
      w.PutOpaque(server_hello_bytes);
      w.PutOpaque(server_sig_);
      state_ = State::kAwaitClientAuth;
      Step step;
      step.response = w.Take();
      return step;
    }
    case State::kAwaitClientAuth: {
      state_ = State::kFailed;
      XdrReader r(message);
      ASSIGN_OR_RETURN(Bytes client_sig, r.GetOpaque());
      if (!r.AtEnd()) {
        return DataLossError("trailing bytes in client auth");
      }
      Bytes transcript2 = transcript1_;
      Append(transcript2, server_sig_);
      RETURN_IF_ERROR(VerifyTranscript(*client_key_, transcript2, client_sig));
      state_ = State::kDone;
      Step step;
      step.done = true;
      return step;
    }
    case State::kDone:
      return FailedPreconditionError("handshake already complete");
    case State::kFailed:
      return FailedPreconditionError("handshake already failed");
  }
  return InternalError("bad handshake state");
}

Result<std::unique_ptr<SecureChannel>> ServerHandshakeMachine::Finish(
    std::unique_ptr<MsgStream> transport) {
  if (state_ != State::kDone) {
    return FailedPreconditionError("handshake not complete");
  }
  state_ = State::kFailed;  // keys are consumed; the machine is spent
  return std::unique_ptr<SecureChannel>(
      new SecureChannel(std::move(transport), std::move(send_key_),
                        std::move(recv_key_), std::move(*client_key_)));
}

Bytes SecureChannel::SealRecord(const Bytes& message) {
  ++send_seq_;
  // The whole frame is allocated once and the ciphertext and tag are
  // written straight into it; its first 8 bytes (BE64 seq) are the AAD.
  const size_t len = message.size();
  const size_t body = len + Aead::kTagSize;
  Bytes frame(kRecordHeaderSize + body + XdrPad(body));
  StoreBE64(frame.data(), send_seq_);
  StoreBE32(frame.data() + 8, static_cast<uint32_t>(body));
  uint8_t nonce[Aead::kNonceSize];
  BuildNonce(send_seq_, nonce);
  uint8_t* ciphertext = frame.data() + kRecordHeaderSize;
  send_aead_.SealInto(nonce, frame.data(), kSeqSize, message.data(), len,
                      ciphertext, ciphertext + len);
  return frame;
}

Status SecureChannel::Send(const Bytes& message) {
  // Seal and write under one lock so sequence numbers reach the wire in
  // order; the receiver's replay window then only ever advances.
  std::lock_guard<std::mutex> lock(send_mu_);
  return transport_->Send(SealRecord(message));
}

Result<bool> SecureChannel::SendNonBlocking(const Bytes& message) {
  std::lock_guard<std::mutex> lock(send_mu_);
  return transport_->SendNonBlocking(SealRecord(message));
}

Result<bool> SecureChannel::FlushSend() {
  std::lock_guard<std::mutex> lock(send_mu_);
  return transport_->FlushSend();
}

Result<Bytes> SecureChannel::OpenRecord(const Bytes& frame) {
  // The header is parsed by hand, with the bounds an XDR u64 + opaque read
  // enforces, before a byte of the body is touched.
  if (frame.size() < kRecordHeaderSize) {
    return DataLossError("record shorter than its header");
  }
  const uint64_t seq = LoadBE64(frame.data());
  const size_t body = LoadBE32(frame.data() + 8);
  if (body > kMaxRecordBody) {
    return DataLossError("record body exceeds limit");
  }
  const size_t padded = body + XdrPad(body);
  if (padded > frame.size() - kRecordHeaderSize) {
    return DataLossError("record body runs past the frame");
  }
  if (kRecordHeaderSize + padded != frame.size()) {
    return DataLossError("trailing bytes in record");
  }
  for (size_t i = kRecordHeaderSize + body; i < frame.size(); ++i) {
    if (frame[i] != 0) {
      return DataLossError("nonzero record padding");
    }
  }
  if (body < Aead::kTagSize) {
    return UnauthenticatedError("AEAD record too short");
  }
  const size_t len = body - Aead::kTagSize;
  uint8_t nonce[Aead::kNonceSize];
  BuildNonce(seq, nonce);
  const uint8_t* ciphertext = frame.data() + kRecordHeaderSize;
  Bytes plain(len);
  RETURN_IF_ERROR(recv_aead_.OpenInto(nonce, frame.data(), kSeqSize, ciphertext,
                                      len, ciphertext + len, plain.data()));
  // Replay check happens after authentication so an attacker cannot poison
  // the window with forged sequence numbers.
  if (!recv_window_.CheckAndUpdate(seq)) {
    return UnauthenticatedError("replayed or stale record");
  }
  return plain;
}

Result<Bytes> SecureChannel::Recv() {
  std::unique_lock<std::mutex> lock(recv_mu_);
  ASSIGN_OR_RETURN(Bytes frame, transport_->Recv());
  return OpenRecord(frame);
}

Result<std::optional<Bytes>> SecureChannel::TryRecv() {
  std::unique_lock<std::mutex> lock(recv_mu_);
  ASSIGN_OR_RETURN(std::optional<Bytes> frame, transport_->TryRecv());
  if (!frame.has_value()) {
    return std::optional<Bytes>();
  }
  ASSIGN_OR_RETURN(Bytes plain, OpenRecord(*frame));
  return std::optional<Bytes>(std::move(plain));
}

void SecureChannel::Close() { transport_->Close(); }

void SecureChannel::Shutdown() { transport_->Shutdown(); }

}  // namespace discfs
