// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8). This is the per-record transform
// of the secure channel, standing in for the paper's IPsec ESP.
#ifndef DISCFS_SRC_CRYPTO_AEAD_H_
#define DISCFS_SRC_CRYPTO_AEAD_H_

#include "src/crypto/chacha20.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs {

class Aead {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kTagSize = 16;

  explicit Aead(const Bytes& key);

  // Returns ciphertext || 16-byte tag.
  Bytes Seal(const Bytes& nonce, const Bytes& aad,
             const Bytes& plaintext) const;

  // Verifies the tag and decrypts. Fails with UNAUTHENTICATED on any
  // tampering of ciphertext, tag, nonce, or aad.
  Result<Bytes> Open(const Bytes& nonce, const Bytes& aad,
                     const Bytes& ciphertext_and_tag) const;

  // Buffer forms for callers that lay out their own frames, so a record is
  // sealed or opened without intermediate copies. SealInto encrypts `len`
  // bytes of `in` into `out` and writes the tag; OpenInto checks `tag`
  // over the ciphertext `in` and only then decrypts it into `out`. In both,
  // `out` may equal `in` (in place). OpenInto leaves `out` untouched and
  // returns UNAUTHENTICATED on a bad tag.
  void SealInto(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                size_t aad_len, const uint8_t* in, size_t len, uint8_t* out,
                uint8_t tag[kTagSize]) const;
  Status OpenInto(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                  size_t aad_len, const uint8_t* in, size_t len,
                  const uint8_t tag[kTagSize], uint8_t* out) const;

 private:
  ChaCha20::KeyWords key_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_AEAD_H_
