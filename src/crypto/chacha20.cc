#include "src/crypto/chacha20.h"

#include <algorithm>
#include <cassert>
#include <cstring>

// The multi-block kernel is written over GCC vector extensions (gcc and
// clang both take them) and loads keystream words by memcpy, so it needs a
// little-endian host. Elsewhere Crypt runs the scalar reference alone.
#if defined(__GNUC__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define DISCFS_CHACHA_VECTOR 1
#if defined(__x86_64__)
#define DISCFS_CHACHA_AVX2 1
#endif
#endif

namespace discfs {
namespace {

inline uint32_t Rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t Load32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void Store32LE(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

#ifdef DISCFS_CHACHA_VECTOR

// One kernel, instantiated per lane count: lane i of each of the 16 state
// vectors belongs to block `counter + i`, so a run computes kLanes
// consecutive blocks with the scalar quarter round's arithmetic.
// Vectors go by reference, never by value, so no function has a 32-byte
// vector in its calling convention.
struct Lanes4 {
  typedef uint32_t V __attribute__((vector_size(16)));
  static constexpr int kLanes = 4;
  // Baseline x86-64 has no byte shuffle (pshufb is SSSE3), so this width
  // rotates with shifts.
  static void Rotl16(V& v) { v = (v << 16) | (v >> 16); }
  static void Rotl8(V& v) { v = (v << 8) | (v >> 24); }
};
#ifdef DISCFS_CHACHA_AVX2
struct Lanes8 {
  typedef uint32_t V __attribute__((vector_size(32)));
  typedef uint8_t B __attribute__((vector_size(32)));
  static constexpr int kLanes = 8;
  // Rotations by 16 and 8 move whole bytes: one vpshufb each.
  static void Rotl16(V& v) {
    B b = (B)v;
    b = __builtin_shufflevector(b, b, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14,
                                15, 12, 13, 18, 19, 16, 17, 22, 23, 20, 21, 26,
                                27, 24, 25, 30, 31, 28, 29);
    v = (V)b;
  }
  static void Rotl8(V& v) {
    B b = (B)v;
    b = __builtin_shufflevector(b, b, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15,
                                12, 13, 14, 19, 16, 17, 18, 23, 20, 21, 22, 27,
                                24, 25, 26, 31, 28, 29, 30);
    v = (V)b;
  }
};
#endif  // DISCFS_CHACHA_AVX2
typedef uint32_t U32x4 __attribute__((vector_size(16)));

template <typename L, typename V = typename L::V>
void QuarterRoundV(V& a, V& b, V& c, V& d) {
  a += b;
  d ^= a;
  L::Rotl16(d);
  c += d;
  b ^= c;
  b = (b << 12) | (b >> 20);
  a += b;
  d ^= a;
  L::Rotl8(d);
  c += d;
  b ^= c;
  b = (b << 7) | (b >> 25);
}

// Transposes the four words x[0..3] of lanes kFirst..kFirst+3 into four
// 16-byte pieces, one per block, and XORs each into its place in the run.
template <int kFirst, typename V>
void XorQuad(const V* x, const uint8_t* in, uint8_t* out) {
  constexpr int k0 = kFirst, k1 = kFirst + 1, k2 = kFirst + 2;
  constexpr int k3 = kFirst + 3;
  U32x4 a = __builtin_shufflevector(x[0], x[0], k0, k1, k2, k3);
  U32x4 b = __builtin_shufflevector(x[1], x[1], k0, k1, k2, k3);
  U32x4 c = __builtin_shufflevector(x[2], x[2], k0, k1, k2, k3);
  U32x4 d = __builtin_shufflevector(x[3], x[3], k0, k1, k2, k3);
  U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
  U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
  U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
  const U32x4 pieces[4] = {
      __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5),
      __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7),
      __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5),
      __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7),
  };
  for (int k = 0; k < 4; ++k) {
    const size_t at = ChaCha20::kBlockSize * (kFirst + k);
    U32x4 m;
    std::memcpy(&m, in + at, sizeof(m));
    m ^= pieces[k];
    std::memcpy(out + at, &m, sizeof(m));
  }
}

// One kernel call: `count` runs of kLanes blocks, starting at block
// `counter`, XORed from `in` to `out`.
struct Runs {
  const uint32_t* state;
  uint32_t counter;
  const uint8_t* in;
  uint8_t* out;
  size_t count;
};

// Lane counters wrap modulo 2^32 like the scalar counter.
template <typename L>
void CryptRuns(const Runs& runs) {
  using V = typename L::V;
  constexpr size_t kRunBytes = ChaCha20::kBlockSize * L::kLanes;
  V lane;
  for (int i = 0; i < L::kLanes; ++i) {
    lane[i] = static_cast<uint32_t>(i);
  }
  uint32_t counter = runs.counter;
  const uint8_t* in = runs.in;
  uint8_t* out = runs.out;
  for (size_t run = 0; run < runs.count; ++run) {
    V x[16];
    for (int i = 0; i < 16; ++i) {
      x[i] = V{} + runs.state[i];
    }
    const V counters = lane + counter;
    x[12] = counters;
    for (int round = 0; round < 10; ++round) {
      QuarterRoundV<L>(x[0], x[4], x[8], x[12]);
      QuarterRoundV<L>(x[1], x[5], x[9], x[13]);
      QuarterRoundV<L>(x[2], x[6], x[10], x[14]);
      QuarterRoundV<L>(x[3], x[7], x[11], x[15]);
      QuarterRoundV<L>(x[0], x[5], x[10], x[15]);
      QuarterRoundV<L>(x[1], x[6], x[11], x[12]);
      QuarterRoundV<L>(x[2], x[7], x[8], x[13]);
      QuarterRoundV<L>(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) {
      x[i] += i == 12 ? counters : V{} + runs.state[i];
    }
    for (int w = 0; w < 16; w += 4) {
      XorQuad<0>(x + w, in + 4 * w, out + 4 * w);
      if constexpr (L::kLanes == 8) {
        XorQuad<4>(x + w, in + 4 * w, out + 4 * w);
      }
    }
    counter += L::kLanes;
    in += kRunBytes;
    out += kRunBytes;
  }
}

// flatten inlines the whole kernel into each instantiation's entry point,
// so CryptRuns8 compiles all of it for AVX2.
__attribute__((flatten)) void CryptRuns4(const Runs& runs) {
  CryptRuns<Lanes4>(runs);
}

#ifdef DISCFS_CHACHA_AVX2
__attribute__((target("avx2"), flatten)) void CryptRuns8(const Runs& runs) {
  CryptRuns<Lanes8>(runs);
}

// The one CPU check. It runs on first use rather than in a namespace-scope
// initializer, which could run before the CPU model is set up.
bool HaveAvx2() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return have;
}
#endif  // DISCFS_CHACHA_AVX2

#endif  // DISCFS_CHACHA_VECTOR

}  // namespace

void ChaCha20::QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c,
                            uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl32(d, 16);
  c += d;
  b ^= c;
  b = Rotl32(b, 12);
  a += b;
  d ^= a;
  d = Rotl32(d, 8);
  c += d;
  b ^= c;
  b = Rotl32(b, 7);
}

ChaCha20::KeyWords ChaCha20::LoadKey(const uint8_t key[kKeySize]) {
  KeyWords words;
  for (int i = 0; i < 8; ++i) {
    words[i] = Load32LE(key + 4 * i);
  }
  return words;
}

ChaCha20::ChaCha20(const KeyWords& key, const uint8_t nonce[kNonceSize],
                   uint32_t counter)
    : counter_(counter) {
  state_[0] = 0x61707865;  // "expa"
  state_[1] = 0x3320646e;  // "nd 3"
  state_[2] = 0x79622d32;  // "2-by"
  state_[3] = 0x6b206574;  // "te k"
  std::copy(key.begin(), key.end(), state_ + 4);
  state_[12] = 0;  // set per block
  state_[13] = Load32LE(nonce);
  state_[14] = Load32LE(nonce + 4);
  state_[15] = Load32LE(nonce + 8);
}

ChaCha20::ChaCha20(const Bytes& key, const Bytes& nonce, uint32_t counter)
    : ChaCha20(LoadKey(key.data()), nonce.data(), counter) {
  assert(key.size() == kKeySize);
  assert(nonce.size() == kNonceSize);
}

void ChaCha20::KeystreamBlock(uint32_t counter, uint8_t out[64]) const {
  uint32_t x[16];
  std::memcpy(x, state_, sizeof(x));
  x[12] = counter;
  uint32_t w[16];
  std::memcpy(w, x, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(w[0], w[4], w[8], w[12]);
    QuarterRound(w[1], w[5], w[9], w[13]);
    QuarterRound(w[2], w[6], w[10], w[14]);
    QuarterRound(w[3], w[7], w[11], w[15]);
    QuarterRound(w[0], w[5], w[10], w[15]);
    QuarterRound(w[1], w[6], w[11], w[12]);
    QuarterRound(w[2], w[7], w[8], w[13]);
    QuarterRound(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) {
    Store32LE(out + 4 * i, w[i] + x[i]);
  }
}

void ChaCha20::Crypt(const uint8_t* in, uint8_t* out, size_t len) {
  size_t off = 0;
#ifdef DISCFS_CHACHA_VECTOR
  // Whole runs go to the widest kernel the CPU has: 512-byte runs 8-wide
  // under AVX2, then 256-byte runs 4-wide. The scalar blocks take the rest.
#ifdef DISCFS_CHACHA_AVX2
  if (len >= 512 && HaveAvx2()) {
    const size_t runs = len / 512;
    CryptRuns8({state_, counter_, in, out, runs});
    counter_ += static_cast<uint32_t>(8 * runs);
    off = 512 * runs;
  }
#endif
  if (len - off >= 256) {
    const size_t runs = (len - off) / 256;
    CryptRuns4({state_, counter_, in + off, out + off, runs});
    counter_ += static_cast<uint32_t>(4 * runs);
    off += 256 * runs;
  }
#endif
  uint8_t block[kBlockSize];
  while (off < len) {
    KeystreamBlock(counter_++, block);
    size_t take = std::min(len - off, kBlockSize);
    for (size_t i = 0; i < take; ++i) {
      out[off + i] = in[off + i] ^ block[i];
    }
    off += take;
  }
}

Bytes ChaCha20::Crypt(const Bytes& data) {
  Bytes out(data.size());
  Crypt(data.data(), out.data(), data.size());
  return out;
}

}  // namespace discfs
