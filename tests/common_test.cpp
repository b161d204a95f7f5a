// Unit tests for the shared utilities: byte buffers, hex, PRNG,
// statistics, syscall cost table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/lru_cache.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/syscall.h"

namespace shield5g {
namespace {

TEST(Bytes, ConcatJoinsParts) {
  const Bytes a = {1, 2}, b = {3}, c = {};
  EXPECT_EQ(concat({ByteView(a), ByteView(b), ByteView(c)}),
            (Bytes{1, 2, 3}));
  EXPECT_TRUE(concat({}).empty());
}

TEST(Bytes, XorBytes) {
  const Bytes a = {0xff, 0x00, 0x55}, b = {0x0f, 0xf0, 0xaa};
  EXPECT_EQ(xor_bytes(a, b), (Bytes{0xf0, 0xf0, 0xff}));
  EXPECT_THROW(xor_bytes(a, Bytes{1}), std::invalid_argument);
}

TEST(Bytes, CtEqual) {
  const Bytes a = {1, 2, 3};
  EXPECT_TRUE(ct_equal(a, Bytes{1, 2, 3}));
  EXPECT_FALSE(ct_equal(a, Bytes{1, 2, 4}));
  EXPECT_FALSE(ct_equal(a, Bytes{1, 2}));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(Bytes, StringRoundTrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_TRUE(to_bytes("").empty());
}

TEST(Bytes, BigEndianRoundTrip) {
  EXPECT_EQ(be_bytes(0x0102, 2), (Bytes{0x01, 0x02}));
  EXPECT_EQ(be_bytes(0x0102030405060708ULL, 8),
            (Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(be_value(be_bytes(0xdeadbeef, 4)), 0xdeadbeefULL);
  EXPECT_EQ(be_value(Bytes{}), 0u);
  EXPECT_THROW(be_bytes(1, 9), std::invalid_argument);
}

TEST(Bytes, TakeAndSlice) {
  const Bytes data = {10, 20, 30, 40, 50};
  EXPECT_EQ(take(data, 2), (Bytes{10, 20}));
  EXPECT_EQ(slice_bytes(data, 1, 3), (Bytes{20, 30, 40}));
  EXPECT_EQ(slice_bytes(data, 5, 0), Bytes{});
  EXPECT_THROW(slice_bytes(data, 4, 2), std::out_of_range);
  EXPECT_THROW(take(data, 6), std::out_of_range);
}

TEST(Hex, EncodeDecode) {
  EXPECT_EQ(hex_encode(Bytes{0x00, 0xab, 0xff}), "00abff");
  EXPECT_EQ(hex_decode("00abff"), (Bytes{0x00, 0xab, 0xff}));
  EXPECT_EQ(hex_decode("00 AB Ff"), (Bytes{0x00, 0xab, 0xff}));
  EXPECT_EQ(hex_decode(""), Bytes{});
  EXPECT_THROW(hex_decode("0g"), std::invalid_argument);
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);
}

TEST(Hex, RoundTripAllByteValues) {
  Bytes all(256);
  for (int i = 0; i < 256; ++i) all[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(hex_decode(hex_encode(all)), all);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
  Rng a2(123);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(11);
  Samples s;
  for (int i = 0; i < 20000; ++i) s.add(rng.lognormal(100.0, 0.3));
  EXPECT_NEAR(s.median(), 100.0, 3.0);
  EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, BytesLengthAndVariety) {
  Rng rng(12);
  const Bytes b = rng.bytes(1000);
  EXPECT_EQ(b.size(), 1000u);
  int zeros = 0;
  for (auto byte : b) zeros += byte == 0;
  EXPECT_LT(zeros, 50);  // ~3.9 expected
}

TEST(Rng, FillAndBytesDrawTheSameStream) {
  // Reference: the byte-at-a-time little-endian expansion of next().
  const auto reference = [](Rng& rng, std::size_t n) {
    Bytes out;
    while (out.size() < n) {
      const std::uint64_t v = rng.next();
      for (int b = 0; b < 8 && out.size() < n; ++b) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
      }
    }
    return out;
  };
  for (std::size_t n = 0; n <= 40; ++n) {
    SCOPED_TRACE(n);
    Rng ref(77), by_bytes(77), by_fill(77);
    const Bytes expected = reference(ref, n);
    Bytes filled(n, 0xEE);
    by_fill.fill(filled);
    EXPECT_EQ(by_bytes.bytes(n), expected);
    EXPECT_EQ(filled, expected);
    // Same draws consumed: the three streams stay in step afterwards.
    const std::uint64_t next = ref.next();
    EXPECT_EQ(by_bytes.next(), next);
    EXPECT_EQ(by_fill.next(), next);
  }
  Rng halves(78), whole(78);
  Bytes both = halves.bytes(16);
  const Bytes second = halves.bytes(16);
  both.insert(both.end(), second.begin(), second.end());
  Bytes filled(32);
  whole.fill(filled);
  EXPECT_EQ(both, filled);
}

TEST(Stats, OrderStatistics) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_NEAR(s.p25(), 3.25, 1e-9);
  EXPECT_NEAR(s.p75(), 7.75, 1e-9);
  EXPECT_NEAR(s.iqr(), 4.5, 1e-9);
}

TEST(Stats, SingleSample) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.median(), std::logic_error);
  EXPECT_THROW(s.percentile(-1), std::logic_error);
}

TEST(Stats, SummaryRendering) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  const Summary summary = Summary::of(s);
  EXPECT_EQ(summary.count, 2u);
  EXPECT_DOUBLE_EQ(summary.mean, 1.5);
  EXPECT_NE(summary.to_string("us").find("n=2"), std::string::npos);
}

TEST(Syscall, CostsArePositiveAndByteSensitive) {
  for (Sys sys : {Sys::kOpen, Sys::kRead, Sys::kWrite, Sys::kAccept,
                  Sys::kEpollWait, Sys::kFutex, Sys::kClone}) {
    EXPECT_GT(syscall_host_ns(sys), 0u);
  }
  EXPECT_GT(syscall_host_ns(Sys::kRead, 100'000),
            syscall_host_ns(Sys::kRead, 0));
  EXPECT_EQ(syscall_host_ns(Sys::kFutex, 100'000),
            syscall_host_ns(Sys::kFutex, 0));  // no per-byte component
}

// ---------------------------------------------------------------------
// LruCache: the bound behind the Milenage and TLS-ticket caches
// ---------------------------------------------------------------------

TEST(LruCache, FindPromotesToMostRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  ASSERT_NE(cache.find(1), nullptr);  // 1 becomes MRU; 2 is now LRU
  cache.insert(3, 30);                // evicts 2, not 1
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, InsertOverwritesWithoutEvicting) {
  LruCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(1, 11);  // overwrite, not a new entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), 11);
}

TEST(LruCache, InsertedReferenceIsStableAcrossOtherKeysChurn) {
  // The Bus holds a TicketState* across open_connection while other
  // pairs may churn — the node behind a live (MRU) entry must not move.
  LruCache<int, int> cache(2);
  int* one = &cache.insert(1, 10);
  for (int k = 2; k < 20; ++k) {
    cache.insert(k, k);    // churns the other slot repeatedly
    ASSERT_NE(cache.find(1), nullptr);  // keep 1 MRU so it survives
    EXPECT_EQ(cache.find(1), one) << "node moved under churn";
  }
  EXPECT_EQ(*one, 10);
}

TEST(LruCache, SetCapacityShrinksAndCounts) {
  LruCache<int, int> cache(8);
  for (int k = 0; k < 8; ++k) cache.insert(k, k);
  cache.set_capacity(3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 5u);
  // The three most recent survive.
  EXPECT_NE(cache.find(7), nullptr);
  EXPECT_NE(cache.find(6), nullptr);
  EXPECT_NE(cache.find(5), nullptr);
  EXPECT_EQ(cache.find(4), nullptr);
}

TEST(LruCache, EraseAndClear) {
  LruCache<int, int> cache(4);
  cache.insert(1, 10);
  cache.insert(2, 20);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u) << "erase/clear are not evictions";
}

TEST(LruCache, CapacityFloorIsOne) {
  LruCache<int, int> cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  int& v = cache.insert(1, 10);
  EXPECT_EQ(v, 10) << "insert into a capacity-1 cache keeps the new entry";
  cache.insert(2, 20);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_NE(cache.find(2), nullptr);
}

// ---------------------------------------------------------------------
// Arena: the bump allocator behind the columnar store's identities
// ---------------------------------------------------------------------

TEST(Arena, InternedViewsAreStableAcrossGrowth) {
  Arena arena;
  const std::string_view first = arena.intern("001010000000001");
  std::vector<std::string_view> views;
  // Force several chunk rollovers past the 64 KiB default.
  for (int i = 0; i < 5000; ++i) {
    views.push_back(arena.intern(std::string(40, 'a' + (i % 26))));
  }
  EXPECT_EQ(first, "001010000000001") << "first chunk must not move";
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(views[i], std::string(40, 'a' + (i % 26)));
  }
  EXPECT_GT(arena.bytes_reserved(), 5000u * 40u);
}

TEST(Arena, AllocateRespectsAlignment) {
  Arena arena;
  arena.allocate(1, 1);  // misalign the bump pointer
  void* p8 = arena.allocate(16, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % 8, 0u);
  void* p64 = arena.allocate(32, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p64) % 64, 0u);
}

TEST(Arena, OversizeAllocationGetsItsOwnChunk) {
  Arena arena;
  const std::size_t big = 1 << 20;  // 16x the default chunk
  void* p = arena.allocate(big, 8);
  ASSERT_NE(p, nullptr);
  // Writable end to end.
  auto* bytes = static_cast<unsigned char*>(p);
  bytes[0] = 0xAA;
  bytes[big - 1] = 0x55;
  EXPECT_GE(arena.bytes_reserved(), big);
}

}  // namespace
}  // namespace shield5g
