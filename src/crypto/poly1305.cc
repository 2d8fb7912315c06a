#include "src/crypto/poly1305.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace discfs {
namespace {

// h and r are held in three limbs of 44, 44 and 42 bits (poly1305-donna-64
// layout); products go through unsigned __int128.
using U128 = unsigned __int128;

constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;

inline uint64_t Load64LE(const uint8_t* p) {
  return uint64_t{p[0]} | (uint64_t{p[1]} << 8) | (uint64_t{p[2]} << 16) |
         (uint64_t{p[3]} << 24) | (uint64_t{p[4]} << 32) |
         (uint64_t{p[5]} << 40) | (uint64_t{p[6]} << 48) |
         (uint64_t{p[7]} << 56);
}

inline void Store64LE(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

void Poly1305::Init(const uint8_t key[kKeySize]) {
  // r with the RFC clamping applied.
  const uint64_t t0 = Load64LE(key);
  const uint64_t t1 = Load64LE(key + 8);
  r_[0] = t0 & 0xffc0fffffffULL;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  r_[2] = (t1 >> 24) & 0x00ffffffc0fULL;
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = Load64LE(key + 16);
  pad_[1] = Load64LE(key + 24);
  buffered_ = 0;
}

void Poly1305::Blocks(const uint8_t* data, size_t len, uint64_t hibit) {
  const uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // 2^130 = 5 (mod p), and the limbs above r0 sit at 2^44 and 2^88, so the
  // wrapped products pick up 5 * 2^2.
  const uint64_t s1 = r1 * (5 << 2);
  const uint64_t s2 = r2 * (5 << 2);
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; len >= 16; data += 16, len -= 16) {
    const uint64_t t0 = Load64LE(data);
    const uint64_t t1 = Load64LE(data + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    U128 d0 = U128(h0) * r0 + U128(h1) * s2 + U128(h2) * s1;
    U128 d1 = U128(h0) * r1 + U128(h1) * r0 + U128(h2) * s2;
    U128 d2 = U128(h0) * r2 + U128(h1) * r1 + U128(h2) * r0;

    uint64_t c = static_cast<uint64_t>(d0 >> 44);
    h0 = static_cast<uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<uint64_t>(d1 >> 44);
    h1 = static_cast<uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<uint64_t>(d2 >> 42);
    h2 = static_cast<uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::Update(const uint8_t* data, size_t len) {
  constexpr uint64_t kHibit = uint64_t{1} << 40;  // 2^128
  if (len == 0) {
    return;
  }
  if (buffered_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < sizeof(buffer_)) {
      return;
    }
    Blocks(buffer_, sizeof(buffer_), kHibit);
    buffered_ = 0;
  }
  size_t whole = len & ~size_t{15};
  Blocks(data, whole, kHibit);
  if (whole < len) {
    buffered_ = len - whole;
    std::memcpy(buffer_, data + whole, buffered_);
  }
}

void Poly1305::Finish(uint8_t tag[kTagSize]) {
  if (buffered_ > 0) {
    buffer_[buffered_] = 1;
    std::memset(buffer_ + buffered_ + 1, 0, sizeof(buffer_) - buffered_ - 1);
    Blocks(buffer_, sizeof(buffer_), 0);
    buffered_ = 0;
  }

  // Full carry propagation.
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // Compute h + -p and constant-time select h mod p.
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  uint64_t g2 = h2 + c - (uint64_t{1} << 42);

  uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p, else zero
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;

  // Add the pad s (second half of the key) modulo 2^128.
  const uint64_t t0 = pad_[0];
  const uint64_t t1 = pad_[1];
  h0 += t0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((t1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  Store64LE(tag, h0 | (h1 << 44));
  Store64LE(tag + 8, (h1 >> 20) | (h2 << 24));
}

Bytes Poly1305Tag(const Bytes& key, const Bytes& message) {
  assert(key.size() == Poly1305::kKeySize);
  Poly1305 mac;
  mac.Init(key.data());
  mac.Update(message.data(), message.size());
  Bytes tag(Poly1305::kTagSize);
  mac.Finish(tag.data());
  return tag;
}

}  // namespace discfs
