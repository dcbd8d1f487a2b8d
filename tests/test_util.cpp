#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/inplace_function.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

// Counting allocator guard: global operator new is replaced with a counting
// shim so tests can assert that a scope performed zero heap allocations —
// the "steady-state = zero allocations" invariant of DESIGN.md. Atomic
// because the ThreadPool tests allocate (exception messages) on workers.
namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace logp::util {
namespace {

/// Heap allocations performed since construction.
class AllocationGuard {
 public:
  AllocationGuard() : start_(g_heap_allocs.load()) {}
  std::size_t count() const { return g_heap_allocs.load() - start_; }

 private:
  std::size_t start_;
};

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256StarStar a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256StarStar a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBoundsRespected) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformCoversRange) {
  Xoshiro256StarStar rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Xoshiro256StarStar rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Xoshiro256StarStar rng(5);
  const double p = 0.1;
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / n, 1.0 / p, 0.3);
}

TEST(Rng, GeometricAlwaysAtLeastOne) {
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.geometric(0.9), 1);
  EXPECT_EQ(rng.geometric(1.0), 1);
}

TEST(Rng, PermutationIsPermutation) {
  Xoshiro256StarStar rng(9);
  const auto perm = random_permutation(100, rng);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat a, b, all;
  Xoshiro256StarStar rng(13);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform01() * 10;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Histogram, QuantilesOfUniformSamples) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50, 1.5);
  EXPECT_NEAR(h.quantile(0.95), 95, 1.5);
  EXPECT_EQ(h.total(), 100);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0, 10, 10);
  h.add(-5);
  h.add(25);
  EXPECT_EQ(h.total(), 2);
  EXPECT_EQ(h.bins().front(), 1);
  EXPECT_EQ(h.bins().back(), 1);
}

TEST(Table, AlignsAndCounts) {
  TablePrinter t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), check_error);
}

TEST(Table, CsvEscaping) {
  TablePrinter t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Format, Counts) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-1234), "-1,234");
}

TEST(Format, Pow2) {
  EXPECT_EQ(fmt_pow2(1024), "1 K");
  EXPECT_EQ(fmt_pow2(1 << 20), "1 M");
  EXPECT_EQ(fmt_pow2(12345), "12345");
}

TEST(Format, TimeUnits) {
  EXPECT_EQ(fmt_time_ns(500), "500.0 ns");
  EXPECT_EQ(fmt_time_ns(1.5e3), "1.50 us");
  EXPECT_EQ(fmt_time_ns(2e6), "2.00 ms");
  EXPECT_EQ(fmt_time_ns(3e9), "3.000 s");
}

TEST(Arena, EpochResetReusesChunksWithoutAllocating) {
  Arena arena(1024);
  void* first = arena.allocate_bytes(100, 8);
  arena.allocate_bytes(2000, 8);  // forces a second (oversized) chunk
  const std::size_t warm_chunks = arena.chunk_count();
  EXPECT_EQ(arena.epoch(), 0u);

  arena.reset();
  EXPECT_EQ(arena.epoch(), 1u);
  AllocationGuard guard;
  // Same allocation sequence in the new epoch: storage is recycled in
  // place — the first span even lands at the same address — and the heap
  // is never touched.
  void* again = arena.allocate_bytes(100, 8);
  arena.allocate_bytes(2000, 8);
  EXPECT_EQ(again, first);
  EXPECT_EQ(arena.chunk_count(), warm_chunks);
  EXPECT_EQ(guard.count(), 0u);
}

TEST(Arena, RespectsAlignment) {
  Arena arena;
  arena.allocate<char>(3);  // misalign the cursor
  const auto d = reinterpret_cast<std::uintptr_t>(arena.allocate<double>(1));
  EXPECT_EQ(d % alignof(double), 0u);
  arena.allocate<char>(1);
  const auto c =
      reinterpret_cast<std::uintptr_t>(arena.allocate_bytes(16, 64));
  EXPECT_EQ(c % 64, 0u);
}

TEST(Arena, SpansAreStableAcrossGrowth) {
  Arena arena(256);
  auto* first = arena.allocate<std::int32_t>(8);
  first[0] = 42;
  for (int i = 0; i < 100; ++i) arena.allocate<std::int32_t>(32);
  EXPECT_EQ(first[0], 42);  // chunks never move
}

TEST(InplaceFunction, RejectsOversizedCapturesAtCompileTime) {
  struct Big {
    char bytes[kInplaceFunctionCapacity + 1];
    void operator()() const {}
  };
  struct Fits {
    char bytes[kInplaceFunctionCapacity];
    void operator()() const {}
  };
  static_assert(!std::is_constructible_v<InplaceFunction<void()>, Big>,
                "oversized callables must not convert");
  static_assert(std::is_constructible_v<InplaceFunction<void()>, Fits>,
                "callables up to the inline capacity must convert");
  static_assert(
      std::is_constructible_v<InplaceFunction<void(), sizeof(Big)>, Big>,
      "a larger explicit capacity admits larger callables");
}

TEST(InplaceFunction, InvokesAndPassesArguments) {
  InplaceFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InplaceFunction, SupportsMoveOnlyCaptures) {
  auto p = std::make_unique<int>(7);
  InplaceFunction<int()> f = [p = std::move(p)] { return *p; };
  InplaceFunction<int()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // moved-from is empty
  EXPECT_EQ(g(), 7);
}

TEST(InplaceFunction, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    InplaceFunction<void()> f = [counter] { ++*counter; };
    InplaceFunction<void()> g = std::move(f);
    g();
  }
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 1);  // both slots released their copy
}

TEST(InplaceFunction, NeverTouchesTheHeap) {
  struct {
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;  // 40-byte capture
  } state;
  AllocationGuard guard;
  InplaceFunction<std::uint64_t()> f = [state] {
    return state.a + state.b + state.c + state.d + state.e;
  };
  InplaceFunction<std::uint64_t()> g = std::move(f);
  EXPECT_EQ(g(), 15u);
  EXPECT_EQ(guard.count(), 0u);
}

TEST(Pool, RecyclesSlotsLifoWithStableAddresses) {
  Pool<int> pool;
  const std::uint32_t a = pool.emplace(1);
  const std::uint32_t b = pool.emplace(2);
  int* addr_b = &pool[b];
  EXPECT_EQ(pool.live(), 2u);
  pool.release(b);
  EXPECT_EQ(pool.emplace(3), b);  // freelist is LIFO
  EXPECT_EQ(&pool[b], addr_b);    // slabs never move
  EXPECT_EQ(pool[a], 1);
  EXPECT_EQ(pool[b], 3);
  EXPECT_EQ(pool.capacity(), 2u);
}

TEST(Pool, SteadyStateChurnDoesNotAllocate) {
  Pool<std::uint64_t> pool;
  for (std::uint32_t i = 0; i < 300; ++i) pool.emplace(i);  // warm 2 slabs
  const std::size_t warm = pool.capacity();
  for (std::uint32_t i = 0; i < 300; ++i) pool.release(i);
  AllocationGuard guard;
  for (int round = 0; round < 10; ++round) {
    std::uint32_t ids[64];
    for (auto& id : ids) id = pool.emplace(7);
    for (const auto id : ids) pool.release(id);
  }
  EXPECT_EQ(pool.capacity(), warm);
  EXPECT_EQ(guard.count(), 0u);
}


TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  pool.for_index(500, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BackToBackDispatchesReuseResidentWorkers) {
  // Workers sleep between dispatches; each of many small dispatches in a
  // row must still wake them and complete fully before for_index returns.
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 500; ++round)
    pool.for_index(16, 3, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  EXPECT_EQ(sum.load(), 500l * (15 * 16 / 2));
}

TEST(ThreadPool, LowestIndexExceptionRethrown) {
  ThreadPool pool(3);
  try {
    pool.for_index(64, 4, [&](std::size_t i) {
      if (i == 5 || i == 40)
        throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 5");  // spec order, not completion order
  }
}

TEST(ThreadPool, PoolStaysUsableAfterWorkerThrow) {
  // A throwing task must not wedge the pool: the dispatch that threw still
  // joins every participant, and the next dispatch runs normally on the
  // same resident workers.
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.for_index(32, 4,
                                [&](std::size_t i) {
                                  if (i == 7) throw std::runtime_error("bad");
                                }),
                 std::runtime_error);
    std::atomic<int> ran{0};
    pool.for_index(32, 4, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 32);
  }
}

TEST(ThreadPool, EveryIndexRunsEvenWhenOneThrows) {
  // The failing index aborts nothing but itself: all other indices still
  // execute exactly once before the exception is rethrown to the caller.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.for_index(64, 4,
                              [&](std::size_t i) {
                                hits[i].fetch_add(1,
                                                  std::memory_order_relaxed);
                                if (i == 11) throw std::logic_error("11");
                              }),
               std::logic_error);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedDispatchRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_task_context{false};
  pool.for_index(8, 3, [&](std::size_t) {
    if (ThreadPool::in_task()) saw_task_context = true;
    // Reentrant dispatch: must degrade to inline serial execution instead
    // of blocking on workers that may be stuck behind this very task.
    pool.for_index(4, 3, [&](std::size_t j) {
      inner_total.fetch_add(static_cast<int>(j) + 1,
                            std::memory_order_relaxed);
    });
  });
  EXPECT_TRUE(saw_task_context.load());
  EXPECT_EQ(inner_total.load(), 8 * (1 + 2 + 3 + 4));
}

TEST(ThreadPool, ZeroWorkersAndZeroIndicesDegradeGracefully) {
  ThreadPool inline_only(0);
  EXPECT_EQ(inline_only.workers(), 0);
  int ran = 0;
  inline_only.for_index(5, 8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 5);
  inline_only.for_index(0, 8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 5);
  EXPECT_GE(ThreadPool::shared().workers(), 0);
}

TEST(Check, ThrowsWithMessage) {
  try {
    LOGP_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace logp::util
