#include "src/crypto/keywrap.h"

#include "src/crypto/aead.h"
#include "src/crypto/dh.h"
#include "src/crypto/hmac.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

constexpr char kKdfInfo[] = "discfs-keywrap-v1";

Bytes DeriveWrapKey(const Bytes& shared, const Bytes& ephemeral_public) {
  Bytes info = ToBytes(kKdfInfo);
  Append(info, ephemeral_public);
  return HkdfSha256(/*salt=*/Bytes(), shared, info, Aead::kKeySize);
}

}  // namespace

Result<Bytes> WrapKey(const DsaPublicKey& recipient, const Bytes& key,
                      const std::function<Bytes(size_t)>& rand_bytes) {
  const DsaParams& params = recipient.params();
  DhKeyPair ephemeral = DhKeyPair::Generate(params, rand_bytes);
  Bytes ephemeral_public = ephemeral.PublicValue();
  size_t width = params.p.ToBytes().size();
  // SharedSecret validates the peer value; y = g^x is always in the
  // subgroup for an honestly generated key, so a failure here means the
  // recipient key itself is malformed.
  ASSIGN_OR_RETURN(Bytes shared,
                   ephemeral.SharedSecret(recipient.y().ToBytes(width)));
  Aead aead(DeriveWrapKey(shared, ephemeral_public));
  Bytes nonce = rand_bytes(Aead::kNonceSize);
  XdrWriter w;
  w.PutOpaque(ephemeral_public);
  w.PutOpaque(nonce);
  w.PutOpaque(aead.Seal(nonce, /*aad=*/Bytes(), key));
  return w.Take();
}

Result<Bytes> UnwrapKey(const DsaPrivateKey& recipient, const Bytes& wrapped) {
  XdrReader r(wrapped);
  ASSIGN_OR_RETURN(Bytes ephemeral_public, r.GetOpaque(1 << 12));
  ASSIGN_OR_RETURN(Bytes nonce, r.GetOpaque(1 << 8));
  ASSIGN_OR_RETURN(Bytes box, r.GetOpaque(1 << 12));
  if (!r.AtEnd()) {
    return InvalidArgumentError("trailing bytes after wrapped key");
  }
  if (nonce.size() != Aead::kNonceSize) {
    return InvalidArgumentError("wrapped key nonce is not 12 bytes");
  }
  const DsaParams& params = recipient.public_key().params();
  DhKeyPair self = DhKeyPair::FromSecret(params, recipient.x());
  // SharedSecret rejects ephemeral values outside the order-q subgroup
  // (small-subgroup confinement of the recipient's long-term secret).
  ASSIGN_OR_RETURN(Bytes shared, self.SharedSecret(ephemeral_public));
  Aead aead(DeriveWrapKey(shared, ephemeral_public));
  return aead.Open(nonce, /*aad=*/Bytes(), box);
}

}  // namespace discfs
