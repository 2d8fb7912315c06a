// Poly1305 one-time authenticator (RFC 8439).
#ifndef DISCFS_SRC_CRYPTO_POLY1305_H_
#define DISCFS_SRC_CRYPTO_POLY1305_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace discfs {

// Streaming Poly1305 on 44/44/42-bit limbs: Init with the 32-byte one-time
// key (r || s), Update with the message in pieces of any length, Finish
// once for the 16-byte tag.
class Poly1305 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kTagSize = 16;

  void Init(const uint8_t key[kKeySize]);
  void Update(const uint8_t* data, size_t len);
  void Finish(uint8_t tag[kTagSize]);

 private:
  // Absorbs whole 16-byte blocks; `hibit` is 2^128 in the top limb's
  // scale for full blocks and 0 for the padded final block.
  void Blocks(const uint8_t* data, size_t len, uint64_t hibit);

  uint64_t r_[3] = {};
  uint64_t h_[3] = {};
  uint64_t pad_[2] = {};
  uint8_t buffer_[16] = {};
  size_t buffered_ = 0;
};

// Computes the 16-byte Poly1305 tag of `message` under the 32-byte one-time
// `key` (r || s).
Bytes Poly1305Tag(const Bytes& key, const Bytes& message);

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_POLY1305_H_
