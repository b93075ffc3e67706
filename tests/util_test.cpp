// util tests: RNG determinism/distributions, tables, flags, timers, and the
// ThreadPool static-partition determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/flags.h"
#include "util/mpmc_queue.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace asteria::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.NextInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(5);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30'000; ++i) {
    ++counts[rng.NextWeighted({1.0, 2.0, 7.0})];
  }
  EXPECT_NEAR(counts[2] / 30'000.0, 0.7, 0.03);
  EXPECT_NEAR(counts[1] / 30'000.0, 0.2, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Table, AlignsAndEmitsCsv) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22,3"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"22,3\""), std::string::npos);
}

TEST(Flags, ParsesAllTypes) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  flags.DefineDouble("rate", 0.5, "rate");
  flags.DefineBool("verbose", false, "verbosity");
  flags.DefineString("out", "x.csv", "output");
  const char* argv[] = {"prog", "--n=9", "--rate", "0.25", "--verbose",
                        "--out=y.csv"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetString("out"), "y.csv");
}

TEST(Flags, RejectsUnknownFlag) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(TimingStats, TracksMeanMinMax) {
  TimingStats stats;
  stats.Add(1.0);
  stats.Add(3.0);
  stats.Add(2.0);
  EXPECT_EQ(stats.count(), 3);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.0);
}

TEST(TimingStats, FirstSampleSeedsMinAndMax) {
  // The first sample must become both bounds unconditionally — samples
  // above 0 (all durations) used to leave min stuck at the stale 0.
  TimingStats stats;
  stats.Add(5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);

  TimingStats negative;
  negative.Add(-2.0);
  EXPECT_DOUBLE_EQ(negative.min(), -2.0);
  EXPECT_DOUBLE_EQ(negative.max(), -2.0);
}

TEST(Format, AdaptiveSeconds) {
  EXPECT_NE(FormatSeconds(3e-9).find("ns"), std::string::npos);
  EXPECT_NE(FormatSeconds(3e-6).find("us"), std::string::npos);
  EXPECT_NE(FormatSeconds(3e-3).find("ms"), std::string::npos);
  EXPECT_NE(FormatSeconds(3.0).find(" s"), std::string::npos);
}

TEST(ThreadPool, ShardRangesPartitionExactly) {
  for (std::int64_t n : {0, 1, 2, 7, 64, 1000}) {
    for (int max_shards : {1, 2, 3, 8, 17}) {
      const int shards = ThreadPool::ShardCount(n, max_shards);
      if (n == 0) {
        EXPECT_EQ(shards, 0);
        continue;
      }
      ASSERT_GE(shards, 1);
      ASSERT_LE(shards, max_shards);
      std::int64_t expected_begin = 0;
      for (int shard = 0; shard < shards; ++shard) {
        const auto [begin, end] = ThreadPool::ShardRange(n, shards, shard);
        EXPECT_EQ(begin, expected_begin) << n << "/" << shards;
        EXPECT_GT(end, begin);  // no empty shard
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.ParallelFor(257, 4, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, DeterministicAcrossThreadCounts) {
  // fn(i) writes only slot i, so any thread count must produce the same
  // vector — the contract SearchIndex/BuildCorpus rely on.
  auto run = [](int threads) {
    std::vector<std::uint64_t> out(1000);
    ParallelFor(1000, threads, [&](std::int64_t i) {
      out[static_cast<std::size_t>(i)] =
          Rng(Rng::DeriveSeed(99, static_cast<std::uint64_t>(i))).Next();
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(64, -1);
    pool.ParallelFor(64, 3, [&](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = static_cast<int>(i) + round;
    });
    for (int i = 0; i < 64; ++i) ASSERT_EQ(out[static_cast<std::size_t>(i)], i + round);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100, 4,
                                [](std::int64_t i) {
                                  if (i == 57) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<std::int64_t> sum{0};
  pool.ParallelFor(10, 4, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ShardCallbackSeesStaticBounds) {
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges(8);
  ParallelForShards(100, 8, [&](std::int64_t begin, std::int64_t end, int shard) {
    ranges[static_cast<std::size_t>(shard)] = {begin, end};
  });
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(ranges[static_cast<std::size_t>(shard)],
              ThreadPool::ShardRange(100, 8, shard));
  }
}

TEST(Rng, DeriveSeedIsPureAndSpreads) {
  EXPECT_EQ(Rng::DeriveSeed(1, 0), Rng::DeriveSeed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    seen.insert(Rng::DeriveSeed(1, stream));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across streams
}

// ---------------------------------------------------------------------------
// Strict flag parsing: trailing garbage and overflow are rejected, not
// silently prefix-parsed.

TEST(Flags, RejectsTrailingGarbageOnInt) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--n=12abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 5);  // default untouched
}

TEST(Flags, RejectsIntOverflowAndEmpty) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* over[] = {"prog", "--n=99999999999999999999999"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(over)));
  const char* empty[] = {"prog", "--n="};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(empty)));
}

TEST(Flags, RejectsGarbageAndNonFiniteDoubles) {
  Flags flags;
  flags.DefineDouble("beta", 0.5, "beta");
  const char* garbage[] = {"prog", "--beta=1e3x"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(garbage)));
  const char* inf[] = {"prog", "--beta=inf"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(inf)));
  const char* nan[] = {"prog", "--beta=nan"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(nan)));
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta"), 0.5);
}

TEST(Flags, BoolAcceptsCanonicalSpellingsOnly) {
  Flags flags;
  flags.DefineBool("quiet", false, "quiet");
  const char* yes[] = {"prog", "--quiet=yes"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(yes)));
  EXPECT_TRUE(flags.GetBool("quiet"));
  const char* off[] = {"prog", "--quiet=0"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(off)));
  EXPECT_FALSE(flags.GetBool("quiet"));
  const char* garbage[] = {"prog", "--quiet=maybe"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(garbage)));
}

// ---------------------------------------------------------------------------
// Failpoint framework

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearFailpoints(); }
  void TearDown() override { ClearFailpoints(); }
};

TEST_F(FailpointTest, DisarmedNeverFires) {
  static Failpoint fp("util_test.disarmed");
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fp.ShouldFail());
  EXPECT_EQ(fp.fire_count(), 0u);
}

TEST_F(FailpointTest, AlwaysOnceHitEveryModes) {
  static Failpoint fp("util_test.modes");
  std::string error;

  ASSERT_TRUE(ConfigureFailpoints("util_test.modes=always", &error)) << error;
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());

  ClearFailpoints();
  ASSERT_TRUE(ConfigureFailpoints("util_test.modes=once", &error)) << error;
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_EQ(FailpointFireCount("util_test.modes"), 1u);

  ClearFailpoints();
  ASSERT_TRUE(ConfigureFailpoints("util_test.modes=hit:3", &error)) << error;
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());

  ClearFailpoints();
  ASSERT_TRUE(ConfigureFailpoints("util_test.modes=every:2", &error)) << error;
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_EQ(fp.fire_count(), 2u);

  ClearFailpoints();
  ASSERT_TRUE(ConfigureFailpoints("util_test.modes=off", &error)) << error;
  EXPECT_FALSE(fp.ShouldFail());
}

TEST_F(FailpointTest, MalformedSpecsAreRejectedWithReason) {
  std::string error;
  EXPECT_FALSE(ConfigureFailpoints("noequals", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ConfigureFailpoints("a=bogusmode", &error));
  EXPECT_FALSE(ConfigureFailpoints("a=hit:", &error));
  EXPECT_FALSE(ConfigureFailpoints("a=every:0", &error));
  EXPECT_FALSE(ConfigureFailpoints("a=hit:12x", &error));
  EXPECT_FALSE(ConfigureFailpoints("=always", &error));
}

TEST_F(FailpointTest, CommaSeparatedSpecArmsMultiplePoints) {
  static Failpoint fp_a("util_test.multi_a");
  static Failpoint fp_b("util_test.multi_b");
  std::string error;
  ASSERT_TRUE(ConfigureFailpoints(
      "util_test.multi_a=always,util_test.multi_b=once", &error))
      << error;
  EXPECT_TRUE(fp_a.ShouldFail());
  EXPECT_TRUE(fp_b.ShouldFail());
  EXPECT_FALSE(fp_b.ShouldFail());
  EXPECT_TRUE(fp_a.ShouldFail());
}

TEST_F(FailpointTest, UnknownNamesAreHeldPendingNotRejected) {
  // Arming before the point registers must succeed (the env var is parsed
  // before most translation units run their static initializers)...
  std::string error;
  ASSERT_TRUE(ConfigureFailpoints("util_test.pending_point=always", &error))
      << error;
  // ...and apply the moment the point registers.
  static Failpoint* late = new Failpoint("util_test.pending_point");
  EXPECT_TRUE(late->ShouldFail());
}

TEST_F(FailpointTest, ListContainsRegisteredPointsSorted) {
  static Failpoint fp("util_test.listed");
  (void)fp;
  const std::vector<std::string> names = ListFailpoints();
  bool found = false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "util_test.listed") found = true;
    if (i > 0) {
      EXPECT_LE(names[i - 1], names[i]);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FailpointTest, ClearDisarmsAndZeroesCounters) {
  static Failpoint fp("util_test.cleared");
  std::string error;
  ASSERT_TRUE(ConfigureFailpoints("util_test.cleared=always", &error)) << error;
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_EQ(fp.fire_count(), 1u);
  ClearFailpoints();
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_EQ(fp.fire_count(), 0u);
  EXPECT_EQ(FailpointFireCount("util_test.cleared"), 0u);
}

TEST_F(FailpointTest, ServeFailpointSpecsAreHeldPending) {
  // The asteria-serve daemon registers serve.accept / serve.read /
  // serve.swap from its own translation unit, which this binary does not
  // link. Arming them must still succeed (held in the pending-spec table
  // until the points register), so `asteria-serve --failpoints=...` works
  // regardless of static-initialization order.
  std::string error;
  ASSERT_TRUE(ConfigureFailpoints(
      "serve.accept=once,serve.read=hit:3,serve.swap=always", &error))
      << error;
  // And none of them leak into the registered-point listing here.
  for (const std::string& name : ListFailpoints()) {
    EXPECT_NE(name.rfind("serve.", 0), 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// MpmcQueue (the asteria-serve dispatch queue)

TEST(MpmcQueueTest, DeliversInFifoOrderSingleThreaded) {
  MpmcQueue<int> queue(8);
  EXPECT_EQ(queue.capacity(), 8u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 5u);
  int value = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.Pop(&value));
    EXPECT_EQ(value, i);
  }
  EXPECT_FALSE(queue.TryPop(&value));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(MpmcQueueTest, ZeroCapacityIsClampedToOne) {
  MpmcQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.Push(42));
  int value = 0;
  EXPECT_TRUE(queue.TryPop(&value));
  EXPECT_EQ(value, 42);
}

TEST(MpmcQueueTest, PushBlocksAtCapacityUntilAPopFreesASlot) {
  MpmcQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // must block until the consumer pops
    second_pushed.store(true, std::memory_order_release);
  });
  // The producer cannot have completed while the queue is full. (A sleep
  // can only miss a violation, never fake one.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load(std::memory_order_acquire));
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load(std::memory_order_acquire));
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 2);
}

TEST(MpmcQueueTest, CloseDrainsQueuedItemsThenFails) {
  MpmcQueue<std::string> queue(4);
  ASSERT_TRUE(queue.Push("a"));
  ASSERT_TRUE(queue.Push("b"));
  queue.Close();
  queue.Close();  // idempotent
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.Push("dropped"));
  std::string value;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, "a");
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, "b");
  EXPECT_FALSE(queue.Pop(&value));  // drained + closed
  EXPECT_FALSE(queue.TryPop(&value));
}

TEST(MpmcQueueTest, CloseWakesBlockedConsumersAndProducers) {
  // Liveness contract: Close() must wake a consumer blocked on empty and a
  // producer blocked on full; neither join may deadlock. (The consumer may
  // race a push and legitimately pop an item first — only the wakeup is
  // asserted, via the joins completing.)
  MpmcQueue<int> queue(1);
  std::thread consumer([&] {
    int value = 0;
    while (queue.Pop(&value)) {
    }
  });
  ASSERT_TRUE(queue.Push(7));
  std::thread producer([&] {
    (void)queue.Push(8);  // blocks on full unless the consumer drained 7
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  consumer.join();
  producer.join();
}

TEST(MpmcQueueTest, TryPushShedsInsteadOfBlocking) {
  MpmcQueue<int> queue(4);
  // No high-water mark: the full capacity is the admission limit.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.TryPush(i));
  EXPECT_FALSE(queue.TryPush(99));  // full: refuse, don't block
  EXPECT_EQ(queue.size(), 4u);
  int value = -1;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(queue.TryPush(4));  // a pop re-opens admission
}

TEST(MpmcQueueTest, TryPushHonorsTheHighWaterMark) {
  MpmcQueue<int> queue(8);
  // A high-water mark below capacity sheds early, leaving headroom.
  EXPECT_TRUE(queue.TryPush(1, /*high_water=*/2));
  EXPECT_TRUE(queue.TryPush(2, /*high_water=*/2));
  EXPECT_FALSE(queue.TryPush(3, /*high_water=*/2));
  // A mark above capacity clamps to capacity.
  MpmcQueue<int> small(2);
  EXPECT_TRUE(small.TryPush(1, /*high_water=*/100));
  EXPECT_TRUE(small.TryPush(2, /*high_water=*/100));
  EXPECT_FALSE(small.TryPush(3, /*high_water=*/100));
}

TEST(MpmcQueueTest, TryPushFailsOnAClosedQueue) {
  MpmcQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(2));
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));  // queued items still drain after close
  EXPECT_EQ(value, 1);
}

TEST(MpmcQueueTest, ManyProducersManyConsumersDeliverEveryItemExactlyOnce) {
  // TSan-facing stress: 4 producers x 4 consumers over a tiny queue so
  // both condvars see real contention. Every pushed value must arrive at
  // exactly one consumer.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  MpmcQueue<int> queue(3);
  std::vector<std::atomic<int>> seen(
      static_cast<std::size_t>(kProducers * kPerProducer));
  for (auto& count : seen) count.store(0);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::atomic<int> consumed{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int value = -1;
      while (queue.Pop(&value)) {
        seen[static_cast<std::size_t>(value)].fetch_add(1);
        ++consumed;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  queue.Close();  // producers done: consumers drain the tail and exit
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

}  // namespace
}  // namespace asteria::util
