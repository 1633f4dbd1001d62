// Unit tests for src/common: Status, Slice, coding, SHA-256, CRC-32,
// Bitmap, LRU cache, clocks and the PRNG.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/sha256.h"
#include "common/sha256_internal.h"
#include "common/slice.h"
#include "common/status.h"

namespace sebdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.message(), "");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("block 17");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "NotFound: block 17");
  EXPECT_EQ(s.message(), "block 17");
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(b.message(), "disk gone");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::VerificationFailed("x").IsVerificationFailed());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("el"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("a") == Slice("a"));
  EXPECT_TRUE(Slice("a") != Slice("b"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice input(buf);
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed16(&input, &v16));
  ASSERT_TRUE(GetFixed32(&input, &v32));
  ASSERT_TRUE(GetFixed64(&input, &v64));
  EXPECT_EQ(v16, 0xbeef);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, VarintRoundTripEdgeValues) {
  const uint64_t cases[] = {0,       1,        127,        128,
                            16383,   16384,    UINT32_MAX, 1ull << 40,
                            UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice input(buf);
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&input, &got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(input.empty());
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, static_cast<uint64_t>(UINT32_MAX) + 1);
  Slice input(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&input, &v));
}

TEST(CodingTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 300);
  Slice input(buf.data(), 1);  // continuation byte without terminator
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&input, &v));

  std::string fixed;
  PutFixed64(&fixed, 1);
  Slice short_input(fixed.data(), 7);
  uint64_t f;
  EXPECT_FALSE(GetFixed64(&short_input, &f));
}

TEST(CodingTest, ZigZagSigned) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MIN, INT64_MAX, -123456789};
  for (int64_t v : cases) {
    std::string buf;
    PutVarSigned64(&buf, v);
    Slice input(buf);
    int64_t got;
    ASSERT_TRUE(GetVarSigned64(&input, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(CodingTest, LengthPrefixed) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Slice input(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&input, &a));
  ASSERT_TRUE(GetLengthPrefixed(&input, &b));
  ASSERT_TRUE(GetLengthPrefixed(&input, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

// FIPS 180-4 test vectors.
TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(Sha256::Digest(Slice("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::Digest(Slice("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::Digest(
          Slice("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// The kernels this host can run, by name: the portable one always, SHA-NI
// where the CPU has it.
std::vector<std::pair<std::string, Sha256::Kernel>> HostKernels() {
  std::vector<std::pair<std::string, Sha256::Kernel>> kernels = {
      {"portable", sha256_internal::CompressPortable}};
  if (Sha256::Kernel sha_ni = sha256_internal::ShaNiKernel()) {
    kernels.emplace_back("sha-ni", sha_ni);
  }
  return kernels;
}

std::string HexDigest(Sha256::Kernel kernel, const std::string& data) {
  Sha256 ctx(kernel);
  ctx.Update(data.data(), data.size());
  return ctx.Finish().ToHex();
}

// The two long FIPS 180-4 vectors: the 896-bit two-block message and one
// million 'a', on every kernel and through the default context.
TEST(Sha256Test, LongKnownVectors) {
  const std::string two_block =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  const std::string million_a(1000000, 'a');
  const char* kTwoBlock =
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1";
  const char* kMillionA =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  EXPECT_EQ(Sha256::Digest(two_block).ToHex(), kTwoBlock);
  EXPECT_EQ(Sha256::Digest(million_a).ToHex(), kMillionA);
  for (const auto& [name, kernel] : HostKernels()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(HexDigest(kernel, two_block), kTwoBlock);
    EXPECT_EQ(HexDigest(kernel, million_a), kMillionA);
  }
}

// Lengths around the padding boundary: up to 55 bytes the length field fits
// in the last block, from 56 on it spills into an extra one.
TEST(Sha256Test, PaddingBoundaries) {
  const std::pair<size_t, const char*> kVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
  };
  for (const auto& [len, hex] : kVectors) {
    SCOPED_TRACE(len);
    const std::string data(len, 'a');
    EXPECT_EQ(Sha256::Digest(data).ToHex(), hex);
    for (const auto& [name, kernel] : HostKernels()) {
      SCOPED_TRACE(name);
      EXPECT_EQ(HexDigest(kernel, data), hex);
    }
  }
}

TEST(Sha256Test, DefaultContextUsesActiveKernel) {
  Sha256::Kernel sha_ni = sha256_internal::ShaNiKernel();
  EXPECT_EQ(sha256_internal::ActiveKernel(),
            sha_ni != nullptr ? sha_ni : sha256_internal::CompressPortable);
}

// Differential test of the two kernels, called directly: random inputs of
// every length 0..4096, each fed to the SHA-NI context in one Update and to
// the portable one in two at a random split point.
TEST(Sha256Test, ShaNiMatchesPortable) {
  Sha256::Kernel sha_ni = sha256_internal::ShaNiKernel();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU has no SHA-NI";
  Random rng(180);
  for (size_t len = 0; len <= 4096; len++) {
    std::string data(len, '\0');
    for (char& c : data) c = static_cast<char>(rng.Next());
    const size_t split = rng.Uniform(len + 1);
    SCOPED_TRACE(testing::Message() << "len " << len << " split " << split);
    Sha256 portable(sha256_internal::CompressPortable);
    portable.Update(data.data(), split);
    portable.Update(data.data() + split, len - split);
    Sha256 fast(sha_ni);
    fast.Update(data.data(), len);
    ASSERT_EQ(portable.Finish(), fast.Finish());
  }
  // Multi-block runs straight into the kernels, from a random state.
  for (size_t nblocks = 1; nblocks <= 16; nblocks++) {
    std::string data(64 * nblocks, '\0');
    for (char& c : data) c = static_cast<char>(rng.Next());
    uint32_t a[8], b[8];
    for (int i = 0; i < 8; i++) a[i] = b[i] = static_cast<uint32_t>(rng.Next());
    const auto* bytes = reinterpret_cast<const uint8_t*>(data.data());
    sha256_internal::CompressPortable(a, bytes, nblocks);
    sha_ni(b, bytes, nblocks);
    ASSERT_EQ(std::vector<uint32_t>(a, a + 8), std::vector<uint32_t>(b, b + 8))
        << nblocks << " blocks";
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data(100000, 'z');
  Sha256 ctx;
  for (size_t i = 0; i < data.size(); i += 997) {
    ctx.Update(data.data() + i, std::min<size_t>(997, data.size() - i));
  }
  EXPECT_EQ(ctx.Finish(), Sha256::Digest(data));
}

TEST(Sha256Test, HexRoundTrip) {
  Hash256 h = Sha256::Digest(Slice("roundtrip"));
  Hash256 parsed;
  ASSERT_TRUE(Hash256::FromHex(h.ToHex(), &parsed));
  EXPECT_EQ(parsed, h);
  EXPECT_FALSE(Hash256::FromHex("zz", &parsed));
  EXPECT_FALSE(Hash256::FromHex(std::string(64, 'g'), &parsed));
}

TEST(Sha256Test, DigestPairDiffersFromConcatenationOrder) {
  Hash256 a = Sha256::Digest(Slice("a"));
  Hash256 b = Sha256::Digest(Slice("b"));
  EXPECT_NE(Sha256::DigestPair(a, b), Sha256::DigestPair(b, a));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  EXPECT_EQ(Crc32(Slice("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(Slice("")), 0u);
}

TEST(Crc32Test, Incremental) {
  uint32_t whole = Crc32(Slice("hello world"));
  EXPECT_NE(whole, Crc32(Slice("hello worlx")));
}

TEST(BitmapTest, SetTestClear) {
  Bitmap b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.AnySet());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitmapTest, SetGrowAndOutOfRangeTest) {
  Bitmap b;
  b.SetGrow(100);
  EXPECT_EQ(b.size(), 101u);
  EXPECT_TRUE(b.Test(100));
  EXPECT_FALSE(b.Test(5000));  // beyond size: false, no crash
}

TEST(BitmapTest, AndOrWithDifferentSizes) {
  Bitmap a(10), b(200);
  a.Set(3);
  a.Set(7);
  b.Set(3);
  b.Set(150);
  Bitmap both = a;
  both.And(b);
  EXPECT_TRUE(both.Test(3));
  EXPECT_FALSE(both.Test(7));
  EXPECT_FALSE(both.Test(150));
  EXPECT_EQ(both.size(), 200u);

  Bitmap either = a;
  either.Or(b);
  EXPECT_TRUE(either.Test(3));
  EXPECT_TRUE(either.Test(7));
  EXPECT_TRUE(either.Test(150));
}

TEST(BitmapTest, SetBitsAndNextSetBit) {
  Bitmap b(300);
  std::set<size_t> expected = {0, 63, 64, 65, 128, 299};
  for (size_t i : expected) b.Set(i);
  auto bits = b.SetBits();
  EXPECT_EQ(std::set<size_t>(bits.begin(), bits.end()), expected);
  EXPECT_EQ(b.NextSetBit(0), 0u);
  EXPECT_EQ(b.NextSetBit(1), 63u);
  EXPECT_EQ(b.NextSetBit(66), 128u);
  EXPECT_EQ(b.NextSetBit(300), Bitmap::npos);
}

TEST(BitmapTest, EncodeDecodeRoundTrip) {
  Bitmap b(77);
  b.Set(0);
  b.Set(76);
  b.Set(33);
  std::string buf;
  b.EncodeTo(&buf);
  Slice input(buf);
  Bitmap decoded;
  ASSERT_TRUE(Bitmap::DecodeFrom(&input, &decoded));
  EXPECT_EQ(decoded, b);
}

// Property test: bitmap behaves like std::vector<bool> under random ops.
TEST(BitmapTest, MatchesReferenceImplementation) {
  Random rng(42);
  Bitmap b(500);
  std::vector<bool> ref(500, false);
  for (int i = 0; i < 2000; i++) {
    size_t pos = rng.Uniform(500);
    if (rng.Uniform(2) == 0) {
      b.Set(pos);
      ref[pos] = true;
    } else {
      b.Clear(pos);
      ref[pos] = false;
    }
  }
  size_t ref_count = 0;
  for (size_t i = 0; i < 500; i++) {
    EXPECT_EQ(b.Test(i), ref[i]) << i;
    if (ref[i]) ref_count++;
  }
  EXPECT_EQ(b.Count(), ref_count);
}

TEST(LruCacheTest, InsertLookupEvict) {
  LruCache<int, std::string> cache(100);
  cache.Insert(1, std::make_shared<std::string>("one"), 40);
  cache.Insert(2, std::make_shared<std::string>("two"), 40);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
  // Touch 1 so 2 is the LRU victim.
  cache.Lookup(1);
  cache.Insert(3, std::make_shared<std::string>("three"), 40);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
}

TEST(LruCacheTest, OversizedEntryNotCached) {
  LruCache<int, std::string> cache(10);
  cache.Insert(1, std::make_shared<std::string>("big"), 100);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(LruCacheTest, ReplaceUpdatesCharge) {
  LruCache<int, int> cache(100);
  cache.Insert(1, std::make_shared<int>(1), 60);
  cache.Insert(1, std::make_shared<int>(2), 30);
  EXPECT_EQ(cache.usage(), 30u);
  EXPECT_EQ(*cache.Lookup(1), 2);
}

TEST(LruCacheTest, HitMissCounters) {
  LruCache<int, int> cache(100);
  cache.Insert(1, std::make_shared<int>(1), 10);
  cache.Lookup(1);
  cache.Lookup(2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
  clock.AdvanceMicros(500);
  EXPECT_EQ(clock.NowMicros(), 1500);
  clock.SetMicros(42);
  EXPECT_EQ(clock.NowMicros(), 42);
  EXPECT_EQ(clock.NowMillis(), 0);
}

TEST(ClockTest, SystemClockMonotonicEnough) {
  auto clock = SystemClock::Default();
  Timestamp a = clock->NowMicros();
  Timestamp b = clock->NowMicros();
  EXPECT_LE(a, b);
  EXPECT_GT(a, 1600000000000000LL);  // after 2020
}

TEST(RandomTest, DeterministicWithSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    int64_t r = rng.UniformRange(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianClampedAndCentered) {
  Random rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    int64_t v = rng.GaussianInRange(500, 20, 0, 999);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
    sum += static_cast<double>(v);
  }
  double mean = sum / 10000;
  EXPECT_NEAR(mean, 500, 2.0);
}

}  // namespace
}  // namespace sebdb
