#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"
#include "src/util/hex.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

Bytes FromHexOrDie(std::string_view h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok());
  return r.value();
}

// RFC 8439 §2.1.1 quarter-round test vector.
TEST(ChaCha20, QuarterRoundVector) {
  uint32_t a = 0x11111111, b = 0x01020304, c = 0x9b8d6f43, d = 0x01234567;
  ChaCha20::QuarterRound(a, b, c, d);
  EXPECT_EQ(a, 0xea2a92f4u);
  EXPECT_EQ(b, 0xcb1cf8ceu);
  EXPECT_EQ(c, 0x4581472eu);
  EXPECT_EQ(d, 0x5881c4bbu);
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x24);
  Bytes msg = ToBytes("attack at dawn, bring credentials");
  ChaCha20 enc(key, nonce, 1);
  Bytes ct = enc.Crypt(msg);
  EXPECT_NE(ct, msg);
  ChaCha20 dec(key, nonce, 1);
  EXPECT_EQ(dec.Crypt(ct), msg);
}

TEST(ChaCha20, KeystreamBlocksDiffer) {
  Bytes key(32, 1);
  Bytes nonce(12, 2);
  ChaCha20 c(key, nonce, 0);
  uint8_t b0[64], b1[64];
  c.KeystreamBlock(0, b0);
  c.KeystreamBlock(1, b1);
  EXPECT_NE(Bytes(b0, b0 + 64), Bytes(b1, b1 + 64));
}

TEST(ChaCha20, CounterContinuityAcrossCalls) {
  // Encrypting in two chunks of arbitrary sizes must equal one shot when the
  // chunk boundary is block-aligned.
  Bytes key(32, 7);
  Bytes nonce(12, 9);
  Bytes msg(256, 0xaa);
  ChaCha20 one(key, nonce, 1);
  Bytes full = one.Crypt(msg);
  ChaCha20 two(key, nonce, 1);
  Bytes part1(msg.begin(), msg.begin() + 64);
  Bytes part2(msg.begin() + 64, msg.end());
  Bytes ct1 = two.Crypt(part1);
  Bytes ct2 = two.Crypt(part2);
  Append(ct1, ct2);
  EXPECT_EQ(ct1, full);
}

// RFC 8439 §2.3.2: the block function for key 00..1f, counter 1.
TEST(ChaCha20, Rfc8439BlockFunctionVector) {
  Bytes key = FromHexOrDie(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  ChaCha20 c(key, FromHexOrDie("000000090000004a00000000"), 0);
  uint8_t block[ChaCha20::kBlockSize];
  c.KeystreamBlock(1, block);
  EXPECT_EQ(HexEncode(Bytes(block, block + sizeof(block))),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

const char kSunscreen[] =
    "Ladies and Gentlemen of the class of '99: If I could offer you only "
    "one tip for the future, sunscreen would be it.";

// RFC 8439 §2.4.2: the 114-byte encryption starting at counter 1.
TEST(ChaCha20, Rfc8439EncryptionVector) {
  Bytes key = FromHexOrDie(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes plaintext = ToBytes(kSunscreen);
  ASSERT_EQ(plaintext.size(), 114u);
  ChaCha20 c(key, FromHexOrDie("000000000000004a00000000"), 1);
  EXPECT_EQ(HexEncode(c.Crypt(plaintext)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

// The reference for the multi-block kernels: KeystreamBlock, one block at
// a time, XORed in.
Bytes ScalarCrypt(const Bytes& key, const Bytes& nonce, uint32_t counter,
                  const Bytes& in) {
  ChaCha20 c(key, nonce, 0);
  Bytes out = in;
  uint8_t block[ChaCha20::kBlockSize];
  for (size_t off = 0; off < in.size(); off += ChaCha20::kBlockSize) {
    c.KeystreamBlock(counter++, block);
    for (size_t i = 0; i < ChaCha20::kBlockSize && off + i < in.size(); ++i) {
      out[off + i] ^= block[i];
    }
  }
  return out;
}

// Lengths straddle the scalar tail, the 4-wide 256-byte run and the 8-wide
// 512-byte run; on an AVX2 host 768 bytes runs both instantiations.
std::vector<size_t> CryptLengths() {
  // Scalar tails, and single 4-wide runs with and without a tail.
  std::vector<size_t> lengths = {0, 1, 63, 64, 65, 255, 256, 257, 511};
  // 8-wide runs, alone and followed by a 4-wide run or a tail.
  for (size_t len : {512, 513, 767, 768, 4097, 65636}) {
    lengths.push_back(len);
  }
  return lengths;
}

TEST(ChaCha20, MultiBlockKernelsMatchScalarReference) {
  Prng prng(8439);
  for (size_t len : CryptLengths()) {
    Bytes key = prng.NextBytes(ChaCha20::kKeySize);
    Bytes nonce = prng.NextBytes(ChaCha20::kNonceSize);
    uint32_t counter = static_cast<uint32_t>(prng.Next());
    Bytes msg = prng.NextBytes(len);
    Bytes expected = ScalarCrypt(key, nonce, counter, msg);

    ChaCha20 copy(key, nonce, counter);
    EXPECT_EQ(copy.Crypt(msg), expected) << "len " << len;
    ChaCha20 in_place(key, nonce, counter);
    Bytes data = msg;
    in_place.Crypt(data.data(), data.size());
    EXPECT_EQ(data, expected) << "in place, len " << len;
  }
}

TEST(ChaCha20, LaneCountersWrapLikeTheScalarCounter) {
  // 0xFFFFFFF9 + 7 wraps to 0 inside the first 8-wide run (and inside the
  // second 4-wide run on a host without AVX2).
  Prng prng(7);
  const uint32_t counter = 0xFFFFFFF9u;
  for (size_t len : CryptLengths()) {
    Bytes key = prng.NextBytes(ChaCha20::kKeySize);
    Bytes nonce = prng.NextBytes(ChaCha20::kNonceSize);
    Bytes msg = prng.NextBytes(len);
    ChaCha20 c(key, nonce, counter);
    EXPECT_EQ(c.Crypt(msg), ScalarCrypt(key, nonce, counter, msg))
        << "len " << len;
  }
}

TEST(ChaCha20, CounterContinuesAcrossKernelSizedCalls) {
  // Successive block-aligned calls of every kernel's size continue the
  // counter exactly where the previous call left it, across the wrap.
  Bytes key(32, 3);
  Bytes nonce(12, 4);
  Prng prng(11);
  Bytes msg = prng.NextBytes(512 + 256 + 64 + 768 + 1024);
  const uint32_t counter = 0xFFFFFFF0u;
  ChaCha20 c(key, nonce, counter);
  Bytes pieces;
  size_t off = 0;
  for (size_t take : {512u, 256u, 64u, 768u, 1024u}) {
    Bytes piece(msg.begin() + off, msg.begin() + off + take);
    Append(pieces, c.Crypt(piece));
    off += take;
  }
  EXPECT_EQ(pieces, ScalarCrypt(key, nonce, counter, msg));
}

// RFC 8439 §2.5.2 Poly1305 test vector.
TEST(Poly1305, Rfc8439Vector) {
  Bytes key = FromHexOrDie(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes msg = ToBytes("Cryptographic Forum Research Group");
  EXPECT_EQ(HexEncode(Poly1305Tag(key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, EmptyMessage) {
  Bytes key(32, 0x55);
  EXPECT_EQ(Poly1305Tag(key, Bytes()).size(), 16u);
}

TEST(Poly1305, BlockBoundaryLengths) {
  Bytes key = FromHexOrDie(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  // Tags must differ across lengths straddling the 16-byte block boundary.
  std::vector<Bytes> tags;
  for (size_t len : {15u, 16u, 17u, 31u, 32u, 33u}) {
    tags.push_back(Poly1305Tag(key, Bytes(len, 0x61)));
  }
  for (size_t i = 0; i < tags.size(); ++i) {
    for (size_t j = i + 1; j < tags.size(); ++j) {
      EXPECT_NE(tags[i], tags[j]);
    }
  }
}

// RFC 8439 Appendix A.3 vectors #5-#11: they drive the final carry and the
// h >= 2^130 - 5 reduction.
TEST(Poly1305, Rfc8439AppendixA3EdgeVectors) {
  auto tag = [](const std::string& key, const std::string& message) {
    return HexEncode(Poly1305Tag(FromHexOrDie(key), FromHexOrDie(message)));
  };
  const std::string zero = "00000000000000000000000000000000";
  const std::string ff = "ffffffffffffffffffffffffffffffff";
  const std::string r1 = "01000000000000000000000000000000" + zero;
  const std::string r2 = "02000000000000000000000000000000" + zero;
  const std::string r1_4 = "01000000000000000400000000000000" + zero;
  const std::string key6 = "02000000000000000000000000000000" + ff;
  std::string m7 = ff;
  m7 += "f0ffffffffffffffffffffffffffffff";
  m7 += "11000000000000000000000000000000";
  std::string m8 = ff;
  m8 += "fbfefefefefefefefefefefefefefefe";
  m8 += "01010101010101010101010101010101";
  std::string m11 = "e33594d7505e43b90000000000000000";
  m11 += "3394d7505e4379cd0100000000000000";
  m11 += zero;
  const std::string m10 = m11 + "01000000000000000000000000000000";

  // #5 to #11, in order.
  EXPECT_EQ(tag(r2, ff), "03000000000000000000000000000000");
  EXPECT_EQ(tag(key6, "02000000000000000000000000000000"),
            "03000000000000000000000000000000");
  EXPECT_EQ(tag(r1, m7), "05000000000000000000000000000000");
  EXPECT_EQ(tag(r1, m8), zero);
  EXPECT_EQ(tag(r2, "fdffffffffffffffffffffffffffffff"),
            "faffffffffffffffffffffffffffffff");
  EXPECT_EQ(tag(r1_4, m10), "14000000000000005500000000000000");
  EXPECT_EQ(tag(r1_4, m11), "13000000000000000000000000000000");
}

TEST(Poly1305, StreamingMatchesOneShotForAnySplit) {
  Prng prng(1305);
  for (int i = 0; i < 200; ++i) {
    Bytes key = prng.NextBytes(Poly1305::kKeySize);
    Bytes msg = prng.NextBytes(prng.NextBelow(300));
    Bytes whole = Poly1305Tag(key, msg);
    Poly1305 mac;
    mac.Init(key.data());
    size_t off = 0;
    while (off < msg.size()) {
      size_t take = std::min<size_t>(msg.size() - off, prng.NextBelow(40));
      mac.Update(msg.data() + off, take);
      off += take;
    }
    uint8_t tag[Poly1305::kTagSize];
    mac.Finish(tag);
    EXPECT_EQ(Bytes(tag, tag + sizeof(tag)), whole) << "case " << i;
  }
}

class AeadTest : public ::testing::Test {
 protected:
  AeadTest() : aead_(Bytes(32, 0x11)) {}
  Bytes Nonce(uint64_t n) {
    Bytes nonce(12, 0);
    for (int i = 0; i < 8; ++i) {
      nonce[4 + i] = static_cast<uint8_t>(n >> (8 * i));
    }
    return nonce;
  }
  Aead aead_;
};

TEST_F(AeadTest, SealOpenRoundTrip) {
  Bytes msg = ToBytes("NFS READ fhandle=42 offset=0 count=8192");
  Bytes aad = ToBytes("seq=7");
  Bytes sealed = aead_.Seal(Nonce(7), aad, msg);
  EXPECT_EQ(sealed.size(), msg.size() + Aead::kTagSize);
  auto opened = aead_.Open(Nonce(7), aad, sealed);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened.value(), msg);
}

TEST_F(AeadTest, EmptyPlaintext) {
  Bytes sealed = aead_.Seal(Nonce(1), Bytes(), Bytes());
  EXPECT_EQ(sealed.size(), Aead::kTagSize);
  auto opened = aead_.Open(Nonce(1), Bytes(), sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST_F(AeadTest, TamperedCiphertextRejected) {
  Bytes sealed = aead_.Seal(Nonce(2), Bytes(), ToBytes("hello"));
  sealed[0] ^= 1;
  EXPECT_FALSE(aead_.Open(Nonce(2), Bytes(), sealed).ok());
}

TEST_F(AeadTest, TamperedTagRejected) {
  Bytes sealed = aead_.Seal(Nonce(2), Bytes(), ToBytes("hello"));
  sealed.back() ^= 1;
  EXPECT_FALSE(aead_.Open(Nonce(2), Bytes(), sealed).ok());
}

TEST_F(AeadTest, WrongNonceRejected) {
  Bytes sealed = aead_.Seal(Nonce(3), Bytes(), ToBytes("hello"));
  EXPECT_FALSE(aead_.Open(Nonce(4), Bytes(), sealed).ok());
}

TEST_F(AeadTest, WrongAadRejected) {
  Bytes sealed = aead_.Seal(Nonce(5), ToBytes("aad-a"), ToBytes("hello"));
  EXPECT_FALSE(aead_.Open(Nonce(5), ToBytes("aad-b"), sealed).ok());
}

TEST_F(AeadTest, WrongKeyRejected) {
  Bytes sealed = aead_.Seal(Nonce(6), Bytes(), ToBytes("hello"));
  Aead other(Bytes(32, 0x22));
  EXPECT_FALSE(other.Open(Nonce(6), Bytes(), sealed).ok());
}

TEST_F(AeadTest, TruncatedRecordRejected) {
  EXPECT_FALSE(aead_.Open(Nonce(1), Bytes(), Bytes(10, 0)).ok());
}

// RFC 8439 §2.8.2: sealed bytes and tag, then the open.
TEST(AeadVector, Rfc8439SealAndOpen) {
  Aead aead(FromHexOrDie(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"));
  Bytes nonce = FromHexOrDie("070000004041424344454647");
  Bytes aad = FromHexOrDie("50515253c0c1c2c3c4c5c6c7");
  Bytes sealed = aead.Seal(nonce, aad, ToBytes(kSunscreen));
  EXPECT_EQ(HexEncode(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = aead.Open(nonce, aad, sealed);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(ToString(*opened), kSunscreen);
}

TEST_F(AeadTest, InPlaceFormsMatchSealAndOpen) {
  Prng prng(42);
  for (size_t len : CryptLengths()) {
    Bytes msg = prng.NextBytes(len);
    Bytes aad = prng.NextBytes(prng.NextBelow(40));
    Bytes nonce = Nonce(prng.Next());
    Bytes sealed = aead_.Seal(nonce, aad, msg);

    Bytes data = msg;
    uint8_t tag[Aead::kTagSize];
    aead_.SealInto(nonce.data(), aad.data(), aad.size(), data.data(),
                   data.size(), data.data(), tag);
    Append(data, Bytes(tag, tag + sizeof(tag)));
    EXPECT_EQ(data, sealed) << "len " << len;

    ASSERT_TRUE(aead_.OpenInto(nonce.data(), aad.data(), aad.size(),
                               data.data(), len, tag, data.data())
                    .ok());
    EXPECT_EQ(Bytes(data.begin(), data.begin() + len), msg) << "len " << len;

    // A bad tag leaves the output untouched.
    tag[0] ^= 1;
    Bytes out(len, 0x5a);
    EXPECT_EQ(aead_.OpenInto(nonce.data(), aad.data(), aad.size(),
                             sealed.data(), len, tag, out.data())
                  .code(),
              StatusCode::kUnauthenticated);
    EXPECT_EQ(out, Bytes(len, 0x5a));
  }
}

TEST_F(AeadTest, RandomizedRoundTrips) {
  Prng prng(99);
  for (int i = 0; i < 50; ++i) {
    Bytes msg = prng.NextBytes(prng.NextBelow(2000));
    Bytes aad = prng.NextBytes(prng.NextBelow(64));
    Bytes nonce = Nonce(prng.Next());
    Bytes sealed = aead_.Seal(nonce, aad, msg);
    auto opened = aead_.Open(nonce, aad, sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), msg);
  }
}

}  // namespace
}  // namespace discfs
