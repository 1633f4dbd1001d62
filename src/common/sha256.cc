#include "common/sha256.h"

#include <cstring>

#include "common/sha256_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#define SEBDB_SHA256_X86 1
#include <immintrin.h>
#else
#define SEBDB_SHA256_X86 0
#endif

namespace sebdb {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t* data, size_t nblocks) {
  for (; nblocks > 0; nblocks--, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; i++) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; i++) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if SEBDB_SHA256_X86

namespace {

// The kernel is compiled for the SHA extensions through target attributes,
// not -march, so the rest of the build keeps its baseline ISA and the
// kernel only runs where ShaNiKernel() found the CPU support at runtime.
#define SEBDB_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Rounds 4k..4k+3 on the ABEF/CDGH state halves, given W[4k..4k+3].
SEBDB_SHA_NI_TARGET inline void Rounds4(__m128i* abef, __m128i* cdgh,
                                        __m128i w, int k) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * k])));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[i..i+3] from the sixteen words before it, held as w0..w3 oldest first.
SEBDB_SHA_NI_TARGET inline __m128i Schedule(__m128i w0, __m128i w1,
                                            __m128i w2, __m128i w3) {
  __m128i t = _mm_sha256msg1_epu32(w0, w1);
  t = _mm_add_epi32(t, _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

SEBDB_SHA_NI_TARGET void CompressShaNi(uint32_t state[8], const uint8_t* data,
                                       size_t nblocks) {
  // Big-endian message words within each 32-bit lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // sha256rnds2 keeps the state as ABEF and CDGH rather than ABCD and EFGH.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; nblocks--, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), kByteSwap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kByteSwap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kByteSwap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kByteSwap);
    Rounds4(&abef, &cdgh, w0, 0);
    Rounds4(&abef, &cdgh, w1, 1);
    Rounds4(&abef, &cdgh, w2, 2);
    Rounds4(&abef, &cdgh, w3, 3);
    for (int k = 4; k < 16; k += 4) {
      w0 = Schedule(w0, w1, w2, w3);
      Rounds4(&abef, &cdgh, w0, k);
      w1 = Schedule(w1, w2, w3, w0);
      Rounds4(&abef, &cdgh, w1, k + 1);
      w2 = Schedule(w2, w3, w0, w1);
      Rounds4(&abef, &cdgh, w2, k + 2);
      w3 = Schedule(w3, w0, w1, w2);
      Rounds4(&abef, &cdgh, w3, k + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#undef SEBDB_SHA_NI_TARGET

}  // namespace

Sha256::Kernel ShaNiKernel() {
  // Safe before static constructors have run (hashing during static
  // initialization): __builtin_cpu_init fills the feature bits on demand.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return CompressShaNi;
  }
  return nullptr;
}

#else

Sha256::Kernel ShaNiKernel() { return nullptr; }

#endif  // SEBDB_SHA256_X86

Sha256::Kernel ActiveKernel() {
  // A function-local static, not a namespace-scope initializer, so the
  // choice is made on first use even when that use is itself part of some
  // other translation unit's static initialization.
  static const Sha256::Kernel kernel = [] {
    Sha256::Kernel sha_ni = ShaNiKernel();
    return sha_ni != nullptr ? sha_ni : CompressPortable;
  }();
  return kernel;
}

}  // namespace sha256_internal

std::string Hash256::ToHex() const {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

bool Hash256::FromHex(std::string_view hex, Hash256* out) {
  if (hex.size() != 64) return false;
  for (size_t i = 0; i < 32; i++) {
    int hi = HexVal(hex[2 * i]);
    int lo = HexVal(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->bytes[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return true;
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

Sha256::Sha256() : kernel_(sha256_internal::ActiveKernel()) { Reset(); }

void Sha256::Update(const void* data, size_t len) {
  if (len == 0) return;
  const auto* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    kernel_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks go to the kernel in one call, straight from the input.
  const size_t nblocks = len / 64;
  if (nblocks > 0) {
    kernel_(state_, p, nblocks);
    p += nblocks * 64;
    len -= nblocks * 64;
  }
  if (len > 0) {
    memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit big-endian
  // length; a tail past 55 bytes leaves no room for the length, so it
  // spills into a second block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    kernel_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; i++) {
    buffer_[56 + i] = static_cast<uint8_t>((bit_count_ >> (56 - 8 * i)) & 0xff);
  }
  kernel_(state_, buffer_, 1);

  Hash256 out;
  for (int i = 0; i < 8; i++) {
    out.bytes[4 * i] = static_cast<uint8_t>((state_[i] >> 24) & 0xff);
    out.bytes[4 * i + 1] = static_cast<uint8_t>((state_[i] >> 16) & 0xff);
    out.bytes[4 * i + 2] = static_cast<uint8_t>((state_[i] >> 8) & 0xff);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i] & 0xff);
  }
  Reset();
  return out;
}

Hash256 Sha256::Digest(const Slice& data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

Hash256 Sha256::DigestPair(const Hash256& a, const Hash256& b) {
  Sha256 ctx;
  ctx.Update(a.bytes.data(), a.bytes.size());
  ctx.Update(b.bytes.data(), b.bytes.size());
  return ctx.Finish();
}

}  // namespace sebdb
