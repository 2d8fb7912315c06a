#include "src/crypto/aead.h"

#include <cassert>

#include "src/crypto/poly1305.h"

namespace discfs {
namespace {

// The RFC 8439 §2.8 tag: Poly1305 under the first 32 bytes of keystream
// block 0, over aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ LE64(|aad|) ‖
// LE64(|ciphertext|), fed straight from the caller's buffers.
void ComputeTag(const ChaCha20& cipher, const uint8_t* aad, size_t aad_len,
                const uint8_t* ciphertext, size_t len,
                uint8_t tag[Aead::kTagSize]) {
  static constexpr uint8_t kZeros[16] = {};
  uint8_t block0[ChaCha20::kBlockSize];
  cipher.KeystreamBlock(0, block0);
  Poly1305 mac;
  mac.Init(block0);
  mac.Update(aad, aad_len);
  mac.Update(kZeros, (16 - aad_len % 16) % 16);
  mac.Update(ciphertext, len);
  mac.Update(kZeros, (16 - len % 16) % 16);
  uint8_t lengths[16];
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<uint8_t>(uint64_t{aad_len} >> (8 * i));
    lengths[8 + i] = static_cast<uint8_t>(uint64_t{len} >> (8 * i));
  }
  mac.Update(lengths, sizeof(lengths));
  mac.Finish(tag);
}

}  // namespace

Aead::Aead(const Bytes& key) : key_(ChaCha20::LoadKey(key.data())) {
  assert(key.size() == kKeySize);
}

void Aead::SealInto(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                    size_t aad_len, const uint8_t* in, size_t len,
                    uint8_t* out, uint8_t tag[kTagSize]) const {
  ChaCha20 cipher(key_, nonce, 1);
  cipher.Crypt(in, out, len);
  ComputeTag(cipher, aad, aad_len, out, len, tag);
}

Status Aead::OpenInto(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                      size_t aad_len, const uint8_t* in, size_t len,
                      const uint8_t tag[kTagSize], uint8_t* out) const {
  ChaCha20 cipher(key_, nonce, 1);
  uint8_t expected[kTagSize];
  ComputeTag(cipher, aad, aad_len, in, len, expected);
  if (!ConstantTimeEqual(expected, tag, kTagSize)) {
    return UnauthenticatedError("AEAD tag mismatch");
  }
  cipher.Crypt(in, out, len);
  return OkStatus();
}

Bytes Aead::Seal(const Bytes& nonce, const Bytes& aad,
                 const Bytes& plaintext) const {
  assert(nonce.size() == kNonceSize);
  Bytes sealed(plaintext.size() + kTagSize);
  SealInto(nonce.data(), aad.data(), aad.size(), plaintext.data(),
           plaintext.size(), sealed.data(), sealed.data() + plaintext.size());
  return sealed;
}

Result<Bytes> Aead::Open(const Bytes& nonce, const Bytes& aad,
                         const Bytes& ciphertext_and_tag) const {
  assert(nonce.size() == kNonceSize);
  if (ciphertext_and_tag.size() < kTagSize) {
    return UnauthenticatedError("AEAD record too short");
  }
  const size_t len = ciphertext_and_tag.size() - kTagSize;
  Bytes plaintext(len);
  RETURN_IF_ERROR(OpenInto(nonce.data(), aad.data(), aad.size(),
                           ciphertext_and_tag.data(), len,
                           ciphertext_and_tag.data() + len, plaintext.data()));
  return plaintext;
}

}  // namespace discfs
