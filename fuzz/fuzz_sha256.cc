// Differential check of the SHA-256 kernels: every hash check on the
// untrusted surfaces (Merkle roots, block hashes, VO roots, checkpoint
// descriptors) rests on Sha256, so the dispatched kernel must give the
// portable kernel's digest on any input, however Update splits it. The
// first two input bytes pick the split point; the rest is the message.
#include <cstring>

#include "common/sha256.h"
#include "common/sha256_internal.h"
#include "fuzz/harnesses.h"

namespace sebdb {
namespace fuzz {

int FuzzSha256(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  uint16_t split_seed;
  memcpy(&split_seed, data, sizeof(split_seed));
  const uint8_t* message = data + 2;
  const size_t len = size - 2;
  const size_t split = split_seed % (len + 1);

  Sha256 portable(sha256_internal::CompressPortable);
  portable.Update(message, len);
  const Hash256 expected = portable.Finish();

  Sha256 dispatched;
  dispatched.Update(message, split);
  dispatched.Update(message + split, len - split);
  if (dispatched.Finish() != expected) __builtin_trap();
  if (Sha256::Digest(Slice(reinterpret_cast<const char*>(message), len)) !=
      expected) {
    __builtin_trap();
  }
  return 0;
}

}  // namespace fuzz
}  // namespace sebdb
