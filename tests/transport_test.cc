#include <gtest/gtest.h>

#include <iterator>
#include <thread>
#include <vector>

#include "src/crypto/groups.h"
#include "src/net/transport.h"
#include "src/rpc/rpc.h"
#include "src/securechannel/channel.h"
#include "src/securechannel/replay_window.h"
#include "src/util/prng.h"
#include "src/wire/xdr.h"

namespace discfs {

// Builds a channel straight from traffic keys, skipping the handshake, so
// a test knows the keys its records are sealed under.
class SecureChannelTestPeer {
 public:
  static std::unique_ptr<SecureChannel> Make(
      std::unique_ptr<MsgStream> transport, Bytes send_key, Bytes recv_key,
      DsaPublicKey peer) {
    return std::unique_ptr<SecureChannel>(
        new SecureChannel(std::move(transport), std::move(send_key),
                          std::move(recv_key), std::move(peer)));
  }
};

namespace {

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

// ----- XDR -----

TEST(Xdr, U32RoundTrip) {
  XdrWriter w;
  w.PutU32(0);
  w.PutU32(0xdeadbeef);
  w.PutU32(0xffffffff);
  XdrReader r(w.data());
  EXPECT_EQ(r.GetU32().value(), 0u);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU32().value(), 0xffffffffu);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Xdr, BigEndianLayout) {
  XdrWriter w;
  w.PutU32(0x01020304);
  EXPECT_EQ(w.data(), (Bytes{1, 2, 3, 4}));
}

TEST(Xdr, U64AndBool) {
  XdrWriter w;
  w.PutU64(0x1122334455667788ULL);
  w.PutBool(true);
  w.PutBool(false);
  XdrReader r(w.data());
  EXPECT_EQ(r.GetU64().value(), 0x1122334455667788ULL);
  EXPECT_TRUE(r.GetBool().value());
  EXPECT_FALSE(r.GetBool().value());
}

TEST(Xdr, OpaquePadding) {
  XdrWriter w;
  w.PutOpaque({1, 2, 3});  // 4-byte length + 3 data + 1 pad
  EXPECT_EQ(w.data().size(), 8u);
  XdrReader r(w.data());
  EXPECT_EQ(r.GetOpaque().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(Xdr, StringRoundTrip) {
  XdrWriter w;
  w.PutString("testdir");
  w.PutString("");
  XdrReader r(w.data());
  EXPECT_EQ(r.GetString().value(), "testdir");
  EXPECT_EQ(r.GetString().value(), "");
}

TEST(Xdr, UnderrunDetected) {
  XdrWriter w;
  w.PutU32(7);
  XdrReader r(w.data());
  EXPECT_TRUE(r.GetU32().ok());
  EXPECT_FALSE(r.GetU32().ok());
}

TEST(Xdr, OpaqueLengthLimitEnforced) {
  XdrWriter w;
  w.PutU32(0xffffffff);  // absurd length
  XdrReader r(w.data());
  EXPECT_FALSE(r.GetOpaque().ok());
}

TEST(Xdr, BoolRejectsOutOfRange) {
  XdrWriter w;
  w.PutU32(2);
  XdrReader r(w.data());
  EXPECT_FALSE(r.GetBool().ok());
}

// ----- in-process transport -----

TEST(InProc, SendRecv) {
  auto pair = InProcTransport::CreatePair();
  ASSERT_TRUE(pair.a->Send(ToBytes("hello")).ok());
  auto msg = pair.b->Recv();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(ToString(*msg), "hello");
}

TEST(InProc, BidirectionalAndOrdered) {
  auto pair = InProcTransport::CreatePair();
  ASSERT_TRUE(pair.a->Send(ToBytes("one")).ok());
  ASSERT_TRUE(pair.a->Send(ToBytes("two")).ok());
  ASSERT_TRUE(pair.b->Send(ToBytes("ack")).ok());
  EXPECT_EQ(ToString(pair.b->Recv().value()), "one");
  EXPECT_EQ(ToString(pair.b->Recv().value()), "two");
  EXPECT_EQ(ToString(pair.a->Recv().value()), "ack");
}

TEST(InProc, CloseUnblocksReceiver) {
  auto pair = InProcTransport::CreatePair();
  std::thread t([&] { pair.a->Close(); });
  EXPECT_FALSE(pair.b->Recv().ok());
  t.join();
}

// ----- TCP transport -----

TEST(Tcp, ConnectSendRecv) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();

  std::thread server([&] {
    auto conn = (*listener)->Accept();
    ASSERT_TRUE(conn.ok());
    auto msg = (*conn)->Recv();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE((*conn)->Send(*msg).ok());  // echo
  });

  auto client = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok()) << client.status();
  Bytes payload = Prng(1).NextBytes(100000);  // multi-segment frame
  ASSERT_TRUE((*client)->Send(payload).ok());
  auto echoed = (*client)->Recv();
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, payload);
  server.join();
}

TEST(Tcp, EmptyFrame) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = (*listener)->Accept();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->Send(Bytes()).ok());
  });
  auto client = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto msg = (*client)->Recv();
  ASSERT_TRUE(msg.ok());
  EXPECT_TRUE(msg->empty());
  server.join();
}

TEST(Tcp, PeerCloseYieldsUnavailable) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = (*listener)->Accept();
    ASSERT_TRUE(conn.ok());
    (*conn)->Close();
  });
  auto client = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE((*client)->Recv().ok());
  server.join();
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Grab a port then close it so nothing is listening.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  uint16_t port = (*listener)->port();
  (*listener)->Close();
  EXPECT_FALSE(TcpTransport::Connect("127.0.0.1", port).ok());
}

// ----- replay window -----

TEST(ReplayWindowTest, MonotoneSequenceAccepted) {
  ReplayWindow w;
  for (uint64_t s = 1; s <= 100; ++s) {
    EXPECT_TRUE(w.CheckAndUpdate(s)) << s;
  }
}

TEST(ReplayWindowTest, ReplayRejected) {
  ReplayWindow w;
  EXPECT_TRUE(w.CheckAndUpdate(5));
  EXPECT_FALSE(w.CheckAndUpdate(5));
}

TEST(ReplayWindowTest, OutOfOrderWithinWindowAccepted) {
  ReplayWindow w;
  EXPECT_TRUE(w.CheckAndUpdate(10));
  EXPECT_TRUE(w.CheckAndUpdate(7));
  EXPECT_TRUE(w.CheckAndUpdate(9));
  EXPECT_FALSE(w.CheckAndUpdate(7));  // now a replay
}

TEST(ReplayWindowTest, TooOldRejected) {
  ReplayWindow w(64);
  EXPECT_TRUE(w.CheckAndUpdate(100));
  EXPECT_FALSE(w.CheckAndUpdate(36));  // 100-36 = 64 >= window
  EXPECT_TRUE(w.CheckAndUpdate(37));   // 63 < window
}

TEST(ReplayWindowTest, ZeroNeverValid) {
  ReplayWindow w;
  EXPECT_FALSE(w.CheckAndUpdate(0));
}

TEST(ReplayWindowTest, LargeJumpClearsBitmap) {
  ReplayWindow w;
  EXPECT_TRUE(w.CheckAndUpdate(1));
  EXPECT_TRUE(w.CheckAndUpdate(1000));
  EXPECT_TRUE(w.CheckAndUpdate(999));
  EXPECT_FALSE(w.CheckAndUpdate(1));  // far outside window
}

// ----- secure channel -----

class SecureChannelTest : public ::testing::Test {
 protected:
  SecureChannelTest()
      : server_key_(DsaPrivateKey::Generate(Dsa512(), TestRand(1))),
        client_key_(DsaPrivateKey::Generate(Dsa512(), TestRand(2))) {}

  struct Pair {
    std::unique_ptr<SecureChannel> client;
    std::unique_ptr<SecureChannel> server;
  };

  Result<Pair> Handshake(std::optional<DsaPublicKey> expected_server) {
    auto transports = InProcTransport::CreatePair();
    ChannelIdentity client_id{client_key_, TestRand(10)};
    ChannelIdentity server_id{server_key_, TestRand(11)};
    Result<std::unique_ptr<SecureChannel>> server_result =
        UnavailableError("not run");
    std::thread server_thread([&] {
      server_result =
          SecureChannel::ServerHandshake(std::move(transports.b), server_id);
    });
    auto client_result = SecureChannel::ClientHandshake(
        std::move(transports.a), client_id, expected_server);
    server_thread.join();
    RETURN_IF_ERROR(client_result.status());
    RETURN_IF_ERROR(server_result.status());
    Pair pair;
    pair.client = std::move(client_result).value();
    pair.server = std::move(server_result).value();
    return pair;
  }

  DsaPrivateKey server_key_;
  DsaPrivateKey client_key_;
};

TEST_F(SecureChannelTest, HandshakeAndExchange) {
  auto pair = Handshake(std::nullopt);
  ASSERT_TRUE(pair.ok()) << pair.status();
  ASSERT_TRUE(pair->client->Send(ToBytes("NFS LOOKUP /discfs/testdir")).ok());
  auto got = pair->server->Recv();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(ToString(*got), "NFS LOOKUP /discfs/testdir");
  ASSERT_TRUE(pair->server->Send(ToBytes("OK")).ok());
  EXPECT_EQ(ToString(pair->client->Recv().value()), "OK");
}

TEST_F(SecureChannelTest, ServerLearnsClientKey) {
  // The property DisCFS depends on: the server can bind requests to the
  // client's public key.
  auto pair = Handshake(std::nullopt);
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->server->peer_key(), client_key_.public_key());
  EXPECT_EQ(pair->client->peer_key(), server_key_.public_key());
}

TEST_F(SecureChannelTest, ClientPinsServerKey) {
  auto pair = Handshake(server_key_.public_key());
  ASSERT_TRUE(pair.ok());

  DsaPrivateKey imposter = DsaPrivateKey::Generate(Dsa512(), TestRand(99));
  auto bad = Handshake(imposter.public_key());
  EXPECT_FALSE(bad.ok());
}

TEST_F(SecureChannelTest, TrafficIsEncrypted) {
  auto transports = InProcTransport::CreatePair();
  // Tap the raw transport by wrapping: here we simply verify that a record
  // does not contain the plaintext.
  ChannelIdentity client_id{client_key_, TestRand(10)};
  ChannelIdentity server_id{server_key_, TestRand(11)};
  Result<std::unique_ptr<SecureChannel>> server_result =
      UnavailableError("not run");
  std::thread server_thread([&] {
    server_result =
        SecureChannel::ServerHandshake(std::move(transports.b), server_id);
  });
  auto client = SecureChannel::ClientHandshake(std::move(transports.a),
                                               client_id, std::nullopt);
  server_thread.join();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server_result.ok());

  // Send through the client, capture the raw frame server-side by receiving
  // through the *secure* channel (roundtrip sanity) — the encryption itself
  // is covered by the AEAD tests; here we check sequence enforcement below.
  std::string secret = "TOP-SECRET-PAYLOAD";
  ASSERT_TRUE((*client)->Send(ToBytes(secret)).ok());
  auto got = (*server_result)->Recv();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), secret);
}

TEST_F(SecureChannelTest, ManyMessagesBothDirections) {
  auto pair = Handshake(std::nullopt);
  ASSERT_TRUE(pair.ok());
  Prng prng(3);
  for (int i = 0; i < 200; ++i) {
    Bytes msg = prng.NextBytes(prng.NextBelow(4096));
    ASSERT_TRUE(pair->client->Send(msg).ok());
    auto got = pair->server->Recv();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, msg);
    ASSERT_TRUE(pair->server->Send(msg).ok());
    auto back = pair->client->Recv();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, msg);
  }
}

// ----- record layer: wire layout and decoder -----

// Keeps every frame a channel writes instead of delivering it.
class CaptureStream : public MsgStream {
 public:
  explicit CaptureStream(std::vector<Bytes>* frames) : frames_(frames) {}
  Status Send(const Bytes& message) override {
    frames_->push_back(message);
    return OkStatus();
  }
  Result<Bytes> Recv() override { return UnavailableError("capture only"); }
  void Close() override {}

 private:
  std::vector<Bytes>* frames_;
};

class RecordLayerTest : public SecureChannelTest {
 protected:
  RecordLayerTest() : c2s_(32, 0xc2), s2c_(32, 0x5c) {
    sender_ = SecureChannelTestPeer::Make(
        std::make_unique<CaptureStream>(&wire_), c2s_, s2c_,
        server_key_.public_key());
    auto transports = InProcTransport::CreatePair();
    inject_ = std::move(transports.a);
    receiver_ = SecureChannelTestPeer::Make(
        std::move(transports.b), s2c_, c2s_, client_key_.public_key());
  }

  // Hands `frame` to the receiving channel as if it came off the wire.
  Result<Bytes> Deliver(const Bytes& frame) {
    RETURN_IF_ERROR(inject_->Send(frame));
    return receiver_->Recv();
  }

  Bytes c2s_;
  Bytes s2c_;
  std::vector<Bytes> wire_;
  std::unique_ptr<SecureChannel> sender_;
  std::unique_ptr<MsgStream> inject_;
  std::unique_ptr<SecureChannel> receiver_;
};

// The record is the XDR pair (u64 seq, opaque body) with body = the AEAD
// seal under nonce 0^4 || LE64(seq) and aad BE64(seq). Channels that agree
// on this interoperate whatever their AEAD implementation.
TEST_F(RecordLayerTest, RecordLayoutIsXdrSeqAndSealedBody) {
  Prng prng(21);
  std::vector<Bytes> messages;
  for (size_t len : {0u, 1u, 2u, 3u, 4096u, 4097u}) {
    messages.push_back(prng.NextBytes(len));
    ASSERT_TRUE(sender_->Send(messages.back()).ok());
  }
  ASSERT_EQ(wire_.size(), messages.size());
  Aead aead(c2s_);
  for (size_t i = 0; i < wire_.size(); ++i) {
    const uint64_t seq = i + 1;
    XdrReader r(wire_[i]);
    auto wire_seq = r.GetU64();
    ASSERT_TRUE(wire_seq.ok());
    EXPECT_EQ(*wire_seq, seq);
    auto body = r.GetOpaque();
    ASSERT_TRUE(body.ok());
    EXPECT_TRUE(r.AtEnd());

    Bytes nonce(Aead::kNonceSize, 0);
    for (int b = 0; b < 8; ++b) {
      nonce[4 + b] = static_cast<uint8_t>(seq >> (8 * b));
    }
    XdrWriter aad;
    aad.PutU64(seq);
    Bytes aad_bytes = aad.Take();
    auto opened = aead.Open(nonce, aad_bytes, *body);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(*opened, messages[i]);

    // Byte for byte what an XDR encoder around Aead::Seal writes.
    XdrWriter w;
    w.PutU64(seq);
    w.PutOpaque(aead.Seal(nonce, aad_bytes, messages[i]));
    EXPECT_EQ(wire_[i], w.Take()) << "record " << seq;

    auto delivered = Deliver(wire_[i]);
    ASSERT_TRUE(delivered.ok()) << delivered.status();
    EXPECT_EQ(*delivered, messages[i]);
  }
}

TEST_F(RecordLayerTest, HeaderBoundsAreEnforced) {
  ASSERT_TRUE(sender_->Send(ToBytes("abcde")).ok());
  const Bytes good = wire_.back();  // 12 + 21 + 3 pad bytes
  ASSERT_EQ(good.size(), 36u);

  for (size_t len = 0; len < 12; ++len) {
    Bytes header(good.begin(), good.begin() + len);
    EXPECT_EQ(Deliver(header).status().code(), StatusCode::kDataLoss)
        << "header of " << len << " bytes";
  }
  Bytes past_end = good;
  past_end[11] += 4;
  EXPECT_EQ(Deliver(past_end).status().code(), StatusCode::kDataLoss);
  Bytes huge = good;
  huge[8] = 0xff;
  EXPECT_EQ(Deliver(huge).status().code(), StatusCode::kDataLoss);
  Bytes trailing = good;
  trailing.insert(trailing.end(), 4, 0);
  EXPECT_EQ(Deliver(trailing).status().code(), StatusCode::kDataLoss);
  Bytes dirty_pad = good;
  dirty_pad.back() = 1;
  EXPECT_EQ(Deliver(dirty_pad).status().code(), StatusCode::kDataLoss);
  // A body shorter than the tag, correctly framed.
  Bytes short_body(good.begin(), good.begin() + 8);
  XdrWriter w;
  w.PutOpaque(Bytes(15, 0));
  Append(short_body, w.Take());
  EXPECT_EQ(Deliver(short_body).status().code(), StatusCode::kUnauthenticated);

  auto opened = Deliver(good);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(ToString(*opened), "abcde");
  EXPECT_EQ(Deliver(good).status().code(), StatusCode::kUnauthenticated)
      << "a replayed record must be refused";
}

// Truncates, extends or flips bytes of `frame`; never returns it unchanged.
Bytes Mutate(const Bytes& frame, Prng& prng) {
  Bytes out;
  do {
    out = frame;
    switch (prng.NextBelow(3)) {
      case 0:
        out.resize(prng.NextBelow(frame.size()));
        break;
      case 1:
        Append(out, prng.NextBytes(1 + prng.NextBelow(16)));
        break;
      default:
        for (uint64_t n = 1 + prng.NextBelow(4); n > 0; --n) {
          out[prng.NextBelow(out.size())] ^=
              static_cast<uint8_t>(1 + prng.NextBelow(255));
        }
    }
  } while (out == frame);
  return out;
}

// A seeded mutation run over the record decoder: every damaged copy of a
// real record is refused (under ASAN, without reading out of bounds), and
// the genuine record after it still opens, so refused frames never moved
// the replay window.
TEST_F(RecordLayerTest, MutatedRecordsAreRejectedAndLeaveTheWindowAlone) {
  Prng prng(0x5eed);
  const size_t kLengths[] = {0, 1, 3, 15, 16, 17, 100, 255, 256, 1000, 4096};
  int mutations = 0;
  for (int round = 0; round < 110; ++round) {
    Bytes msg = prng.NextBytes(kLengths[round % std::size(kLengths)]);
    ASSERT_TRUE(sender_->Send(msg).ok());
    const Bytes frame = wire_.back();
    for (int i = 0; i < 100; ++i, ++mutations) {
      Result<Bytes> got = Deliver(Mutate(frame, prng));
      ASSERT_FALSE(got.ok()) << "round " << round << " mutation " << i;
    }
    auto got = Deliver(frame);
    ASSERT_TRUE(got.ok()) << "round " << round << ": " << got.status();
    EXPECT_EQ(*got, msg);
  }
  EXPECT_GE(mutations, 10000);
}

// ----- RPC -----

TEST(Rpc, CallOverInProc) {
  auto pair = InProcTransport::CreatePair();
  RpcDispatcher dispatcher;
  dispatcher.Register(1, 7, [](const Bytes& args, const RpcContext&) {
    Bytes out = args;
    std::reverse(out.begin(), out.end());
    return Result<Bytes>(out);
  });
  std::thread server([&] {
    RpcContext ctx;
    dispatcher.ServeConnection(*pair.b, ctx);
  });
  RpcClient client(std::move(pair.a));
  auto result = client.Call(1, 7, ToBytes("abc"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), "cba");
  client.Close();
  server.join();
}

TEST(Rpc, ServerErrorPropagatesCodeAndMessage) {
  auto pair = InProcTransport::CreatePair();
  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [](const Bytes&, const RpcContext&) {
    return Result<Bytes>(PermissionDeniedError("no credential for handle 42"));
  });
  std::thread server([&] {
    RpcContext ctx;
    dispatcher.ServeConnection(*pair.b, ctx);
  });
  RpcClient client(std::move(pair.a));
  auto result = client.Call(1, 1, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(result.status().message(), "no credential for handle 42");
  client.Close();
  server.join();
}

TEST(Rpc, UnknownProcedureRejected) {
  auto pair = InProcTransport::CreatePair();
  RpcDispatcher dispatcher;
  std::thread server([&] {
    RpcContext ctx;
    dispatcher.ServeConnection(*pair.b, ctx);
  });
  RpcClient client(std::move(pair.a));
  auto result = client.Call(9, 9, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  client.Close();
  server.join();
}

TEST(Rpc, SequentialCallsIncrementXid) {
  auto pair = InProcTransport::CreatePair();
  RpcDispatcher dispatcher;
  int calls = 0;
  dispatcher.Register(1, 2, [&calls](const Bytes&, const RpcContext&) {
    ++calls;
    return Result<Bytes>(Bytes{static_cast<uint8_t>(calls)});
  });
  std::thread server([&] {
    RpcContext ctx;
    dispatcher.ServeConnection(*pair.b, ctx);
  });
  RpcClient client(std::move(pair.a));
  for (int i = 1; i <= 10; ++i) {
    auto result = client.Call(1, 2, {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)[0], i);
  }
  client.Close();
  server.join();
}

TEST(Rpc, OverSecureChannelCarriesPeerKey) {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey client_key = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  auto transports = InProcTransport::CreatePair();
  ChannelIdentity client_id{client_key, TestRand(10)};
  ChannelIdentity server_id{server_key, TestRand(11)};

  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [&](const Bytes&, const RpcContext& ctx) {
    if (!ctx.peer_key.has_value()) {
      return Result<Bytes>(UnauthenticatedError("no peer key"));
    }
    return Result<Bytes>(ToBytes(ctx.peer_key->KeyId()));
  });

  std::thread server([&] {
    auto chan =
        SecureChannel::ServerHandshake(std::move(transports.b), server_id);
    ASSERT_TRUE(chan.ok());
    RpcContext ctx;
    ctx.peer_key = (*chan)->peer_key();
    dispatcher.ServeConnection(**chan, ctx);
  });

  auto chan = SecureChannel::ClientHandshake(std::move(transports.a),
                                             client_id, std::nullopt);
  ASSERT_TRUE(chan.ok());
  RpcClient client(std::move(chan).value());
  auto result = client.Call(1, 1, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ToString(*result), client_key.public_key().KeyId());
  client.Close();
  server.join();
}

}  // namespace
}  // namespace discfs
