// ChaCha20 stream cipher (RFC 8439).
#ifndef DISCFS_SRC_CRYPTO_CHACHA20_H_
#define DISCFS_SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace discfs {

class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kBlockSize = 64;
  // A 32-byte key loaded as eight little-endian state words.
  using KeyWords = std::array<uint32_t, 8>;

  // key must be 32 bytes, nonce 12 bytes.
  ChaCha20(const Bytes& key, const Bytes& nonce, uint32_t counter);
  // Same, from a key already loaded with LoadKey.
  ChaCha20(const KeyWords& key, const uint8_t nonce[kNonceSize],
           uint32_t counter);

  static KeyWords LoadKey(const uint8_t key[kKeySize]);

  // Produces the 64-byte keystream block for `counter` into out. This is
  // the scalar reference; Crypt's multi-block kernels must match it.
  void KeystreamBlock(uint32_t counter, uint8_t out[kBlockSize]) const;

  // XORs the keystream (starting at the construction-time counter) into
  // `len` bytes of `in`, writing them to `out`; `out` may equal `in`. The
  // block counter wraps modulo 2^32, as in RFC 8439.
  void Crypt(const uint8_t* in, uint8_t* out, size_t len);
  void Crypt(uint8_t* data, size_t len) { Crypt(data, data, len); }
  Bytes Crypt(const Bytes& data);

  // The RFC 8439 quarter round, exposed for unit testing against the
  // published test vector.
  static void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d);

 private:
  uint32_t state_[16];
  uint32_t counter_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_CHACHA20_H_
