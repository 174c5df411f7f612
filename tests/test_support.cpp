#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/args.h"
#include "support/atomic_file.h"
#include "support/byte_io.h"
#include "support/inplace_function.h"
#include "support/resource_pool.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace eagle::support {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.NextBelow(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(10);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NextFromProbs) {
  Rng rng(14);
  const float probs[3] = {0.0f, 1.0f, 0.0f};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextFromProbs(probs, 3), 1u);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(15);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng rng(16);
  Rng child1 = rng.Split();
  Rng child2 = rng.Split();
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(Rng, NumberedSplitDoesNotAdvanceParent) {
  Rng rng(17);
  Rng twin(17);
  (void)rng.Split(0);
  (void)rng.Split(1);
  (void)rng.Split(99);
  // The const stream API leaves the parent state untouched.
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.NextU64(), twin.NextU64());
}

TEST(Rng, NumberedSplitDeterministicPerStream) {
  Rng a(18), b(18);
  for (std::uint64_t stream : {0ull, 1ull, 7ull, 1000000ull}) {
    Rng child_a = a.Split(stream);
    Rng child_b = b.Split(stream);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(child_a.NextU64(), child_b.NextU64()) << "stream " << stream;
    }
  }
}

TEST(Rng, NumberedSplitStreamsDiffer) {
  Rng rng(19);
  // Adjacent stream numbers (the trainer uses consecutive sample indices)
  // must produce decorrelated children.
  Rng c0 = rng.Split(0);
  Rng c1 = rng.Split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += c0.NextU64() == c1.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Retry, JitterNeverExceedsMaxBackoff) {
  // Regression: jitter used to be applied after the max clamp, so an
  // upward draw could push the wait past max_backoff_seconds.
  RetryPolicy policy;
  policy.initial_backoff_seconds = 8.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 10.0;
  policy.jitter_fraction = 0.5;
  Rng rng(20);
  for (int trial = 0; trial < 2000; ++trial) {
    for (int failures = 1; failures <= 5; ++failures) {
      const double backoff = policy.BackoffSeconds(failures, &rng);
      ASSERT_LE(backoff, policy.max_backoff_seconds)
          << "failures=" << failures;
      ASSERT_GE(backoff, 0.0);
    }
  }
}

TEST(Retry, NoJitterStaysExact) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 5.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 120.0;
  policy.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 5.0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 10.0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(6), 120.0);  // capped
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&counter] { ++counter; });
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPool, ClampsToOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 10; ++i) pool.Submit([&completed] { ++completed; });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The failure did not wedge the pool or drop the other tasks.
  EXPECT_EQ(completed.load(), 10);
  pool.Submit([&completed] { ++completed; });
  pool.Wait();
  EXPECT_EQ(completed.load(), 11);
}

TEST(ThreadPool, HardwareThreadsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ByteIo, RoundTripsEveryFieldShape) {
  ByteWriter out;
  out.Put(std::int32_t{-7}, 2.5);
  out.PutName("w");
  out.PutBlob("blob");
  ByteReader in(out.bytes(), "mem");
  EXPECT_EQ(in.Get<std::int32_t>(), -7);
  EXPECT_EQ(in.Get<double>(), 2.5);
  EXPECT_EQ(in.Name(), "w");
  ByteReader blob = in.Blob();
  EXPECT_EQ(blob.offset(), 25u);  // blobs keep the outer offsets
  EXPECT_EQ(blob.Bytes(4), "blob");
  EXPECT_TRUE(blob.at_end());
  in.Adopt(blob);
  in.ExpectEnd();
  EXPECT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_TRUE(in.at_end());
}

TEST(ByteIo, FirstFailureWinsAndLaterReadsAreZero) {
  ByteWriter out;
  out.Put(std::uint32_t{0xFFFFFFFF}, std::uint16_t{1});
  ByteReader in(out.bytes(), "f.bin");
  EXPECT_EQ(in.Count(1), 0u);
  EXPECT_EQ(in.status().ToString(),
            "f.bin: [resource-limit] byte 0: size 4294967295 exceeds the 2 "
            "bytes left");
  EXPECT_EQ(in.Get<std::uint16_t>(), 0);  // failed: nothing is read
  EXPECT_EQ(in.offset(), 4u);
  in.Fail(4, "ignored");
  EXPECT_EQ(in.status().code(), ErrorCode::kResourceLimit);

  ByteReader truncated(out.bytes(), "f.bin");
  truncated.Get<std::uint32_t>();
  EXPECT_EQ(truncated.Get<double>(), 0.0);
  EXPECT_EQ(truncated.status().ToString(),
            "f.bin: [syntax] byte 4: truncated: 8 bytes needed, 2 left");

  ByteWriter blob;
  blob.PutBlob("abc");
  ByteReader outer(blob.bytes(), "f.bin");
  ByteReader inner = outer.Blob();
  inner.Get<std::uint16_t>();
  inner.ExpectEnd();
  outer.Adopt(inner);
  EXPECT_EQ(outer.status().ToString(),
            "f.bin: [syntax] byte 10: 1 bytes unread");
}

TEST(AtomicFile, WritesContent) {
  const std::string path = ::testing::TempDir() + "/eagle_atomic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream& out) {
    out << "hello";
    return true;
  }));
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  // No temp file left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicFile, FailedWriterLeavesOriginalIntact) {
  const std::string path = ::testing::TempDir() + "/eagle_atomic_keep.txt";
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream& out) {
    out << "original";
    return true;
  }));
  EXPECT_FALSE(WriteFileAtomic(path, [](std::ostream& out) {
    out << "partial garbage";
    return false;  // simulated serialization failure
  }));
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "original");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Args, ParsesAllTypes) {
  ArgParser args("test");
  args.AddInt("samples", 100, "n");
  args.AddDouble("lr", 0.01, "lr");
  args.AddBool("full", false, "full scale");
  args.AddString("model", "gnmt", "model");
  const char* argv[] = {"prog", "--samples=25", "--lr", "0.5", "--full",
                        "--model=bert", "extra"};
  ASSERT_TRUE(args.Parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(args.GetInt("samples"), 25);
  EXPECT_DOUBLE_EQ(args.GetDouble("lr"), 0.5);
  EXPECT_TRUE(args.GetBool("full"));
  EXPECT_EQ(args.GetString("model"), "bert");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "extra");
}

TEST(Args, UnknownFlagExitsWithCode2) {
  ArgParser args;
  const char* argv[] = {"/path/to/prog", "--nope"};
  EXPECT_EXIT(args.Parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "^prog: unknown flag --nope");
}

TEST(Args, BadValueExitsWithCode2) {
  ArgParser args;
  args.AddInt("n", 1, "n");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_EXIT(args.Parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "^prog: invalid value 'abc' for --n\n$");
}

TEST(Args, TrailingGarbageExitsWithCode2) {
  // std::stoll read "4x" as 4; a value must be wholly of the flag's type.
  for (const char* value : {"--threads=4x", "--threads=4 ", "--lr=0.5s",
                            "--threads=", "--full=yes"}) {
    SCOPED_TRACE(value);
    ArgParser args;
    args.AddInt("threads", 1, "threads");
    args.AddDouble("lr", 0.01, "lr");
    args.AddBool("full", false, "full");
    const char* argv[] = {"prog", value};
    EXPECT_EXIT(args.Parse(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "^prog: invalid value '");
  }
  ArgParser args;
  args.AddInt("threads", 1, "threads");
  args.AddDouble("lr", 0.01, "lr");
  const char* argv[] = {"prog", "--threads=-4", "--lr", "1e-3"};
  ASSERT_TRUE(args.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(args.GetInt("threads"), -4);
  EXPECT_DOUBLE_EQ(args.GetDouble("lr"), 1e-3);
}

TEST(Args, DefaultsPreserved) {
  ArgParser args;
  args.AddInt("n", 42, "n");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(args.GetInt("n"), 42);
}

TEST(Table, RendersAligned) {
  Table t("demo");
  t.SetHeader({"Model", "Time"});
  t.AddRow({"GNMT", Table::Num(1.379, 3)});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("GNMT"), std::string::npos);
  EXPECT_NE(s.find("1.379"), std::string::npos);
}

TEST(Table, NonFiniteRendersAsNullSentinel) {
  EXPECT_EQ(Table::Num(std::numeric_limits<double>::infinity()), "n/a");
  EXPECT_EQ(Table::Num(-std::numeric_limits<double>::infinity()), "n/a");
  EXPECT_EQ(Table::Num(std::numeric_limits<double>::quiet_NaN()), "n/a");
  EXPECT_EQ(Table::Num(1.5, 1), "1.5");
}

TEST(Table, RowWidthChecked) {
  Table t;
  t.SetHeader({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::logic_error);
}

TEST(Table, CsvRoundTrip) {
  Table t;
  t.SetHeader({"name", "value"});
  t.AddRow({"with,comma", "1"});
  const std::string path = ::testing::TempDir() + "/eagle_table.csv";
  ASSERT_TRUE(t.WriteCsv(path));
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "name,value");
  EXPECT_EQ(row, "\"with,comma\",1");
  std::remove(path.c_str());
}

TEST(Series, AsciiChartContainsLegend) {
  std::vector<SeriesPoint> pts{{0.0, 1.0, "a"}, {1.0, 2.0, "b"}};
  const std::string chart = RenderAsciiSeries(pts, 40, 8);
  EXPECT_NE(chart.find("a"), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
}

TEST(Series, CsvWritten) {
  const std::string path = ::testing::TempDir() + "/eagle_series.csv";
  ASSERT_TRUE(WriteSeriesCsv(path, "hours", "seconds",
                             {{0.5, 1.25, "EAGLE"}}));
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "series,hours,seconds");
  EXPECT_EQ(row, "EAGLE,0.5,1.25");
  std::remove(path.c_str());
}

TEST(InplaceFunction, EmptyIsFalsyAndAssignedInvokes) {
  InplaceFunction<64> fn;
  EXPECT_FALSE(fn);
  int calls = 0;
  fn = [&calls] { ++calls; };
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(InplaceFunction, MoveTransfersClosureAndEmptiesSource) {
  int calls = 0;
  InplaceFunction<64> fn = [&calls] { ++calls; };
  InplaceFunction<64> moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): emptied by design
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(calls, 1);

  InplaceFunction<64> assigned;
  assigned = std::move(moved);
  ASSERT_TRUE(assigned);
  assigned();
  EXPECT_EQ(calls, 2);
}

TEST(InplaceFunction, DestroysCapturesOnceEachLifetimeEnd) {
  // A shared_ptr capture counts live closure copies: destruction and
  // reassignment must run the captured destructor exactly once (tape
  // nodes hold Var handles whose refcounts depend on this).
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  {
    InplaceFunction<64> fn = [token] { (void)*token; };
    token.reset();
    EXPECT_FALSE(alive.expired());  // closure keeps it alive
    fn = [] {};                     // reassign: old closure destroyed
    EXPECT_TRUE(alive.expired());
  }

  token = std::make_shared<int>(8);
  alive = token;
  {
    InplaceFunction<64> fn = [token] { (void)*token; };
    token.reset();
    InplaceFunction<64> moved = std::move(fn);
    EXPECT_FALSE(alive.expired());  // exactly one live copy, in `moved`
  }
  EXPECT_TRUE(alive.expired());  // scope exit destroyed it
}

TEST(ResourcePool, ReusesReturnedObjectLifo) {
  ResourcePool<std::vector<int>> pool;
  EXPECT_EQ(pool.idle_count(), 0u);
  std::vector<int>* first = nullptr;
  {
    auto lease = pool.Acquire();
    first = lease.get();
    lease->push_back(42);  // grown state survives the round trip
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  EXPECT_EQ(pool.idle_count(), 1u);
  {
    auto lease = pool.Acquire();
    EXPECT_EQ(lease.get(), first);
    EXPECT_EQ(lease->size(), 1u);
    EXPECT_EQ(pool.idle_count(), 0u);
  }

  // Concurrent leases are distinct objects; returns restock LIFO, so the
  // most recently returned (cache-warm) object circulates first.
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  EXPECT_NE(a.get(), b.get());
  std::vector<int>* warm = a.get();
  b = ResourcePool<std::vector<int>>::Lease();  // return b first
  a = ResourcePool<std::vector<int>>::Lease();  // then a: top of the list
  EXPECT_EQ(pool.idle_count(), 2u);
  auto next = pool.Acquire();
  EXPECT_EQ(next.get(), warm);
}

TEST(ResourcePool, MovedLeaseReturnsExactlyOnce) {
  ResourcePool<int> pool;
  {
    auto lease = pool.Acquire();
    auto taken = std::move(lease);
    // The moved-from lease returns nothing on destruction.
  }
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST(Series, NonFiniteBecomesEmptyCsvField) {
  const std::string path = ::testing::TempDir() + "/eagle_series_inf.csv";
  ASSERT_TRUE(WriteSeriesCsv(
      path, "hours", "seconds",
      {{0.5, std::numeric_limits<double>::infinity(), "EAGLE"},
       {1.0, 2.5, "EAGLE"}}));
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(row1, "EAGLE,0.5,");  // invalid sample: null, not "inf"
  EXPECT_EQ(row2, "EAGLE,1,2.5");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eagle::support
