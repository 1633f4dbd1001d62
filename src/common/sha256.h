// Standalone SHA-256 (FIPS 180-4). Used for block hashes, Merkle trees and
// the keyed-hash signature scheme. No external crypto dependency.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace sebdb {

/// A 32-byte SHA-256 digest with value semantics and ordering.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Hash256&) const = default;
  auto operator<=>(const Hash256&) const = default;

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// Lowercase hex rendering, e.g. "9f86d0…".
  std::string ToHex() const;

  /// Parses 64 hex characters; returns false on malformed input.
  static bool FromHex(std::string_view hex, Hash256* out);

  Slice AsSlice() const {
    return Slice(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
};

/// Incremental SHA-256 context.
class Sha256 {
 public:
  /// A compression kernel: folds `nblocks` consecutive 64-byte blocks into
  /// the eight-word chaining state. Every kernel yields the same digests.
  using Kernel = void (*)(uint32_t state[8], const uint8_t* data,
                          size_t nblocks);

  /// Hashes with the fastest kernel this CPU supports.
  Sha256();
  /// Hashes with the given kernel (see common/sha256_internal.h).
  explicit Sha256(Kernel kernel) : kernel_(kernel) { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const Slice& s) { Update(s.data(), s.size()); }
  Hash256 Finish();

  /// One-shot digest of a byte range.
  static Hash256 Digest(const Slice& data);
  /// Digest of the concatenation a||b (Merkle interior nodes).
  static Hash256 DigestPair(const Hash256& a, const Hash256& b);

 private:
  Kernel kernel_;
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace sebdb
