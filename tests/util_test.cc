// Unit tests for the util module: Status/Result, Properties, random
// distributions, statistics, and the table printer.

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/properties.h"
#include "util/random.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace cloudybench::util {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Aborted("lock conflict");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "ABORTED: lock conflict");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Aborted("x"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::Unavailable("node down"); };
  auto outer = [&]() -> Status {
    CB_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsUnavailable());
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "UNIMPLEMENTED");
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnFlowsValue) {
  auto get = []() -> Result<int> { return 5; };
  auto use = [&]() -> Result<int> {
    CB_ASSIGN_OR_RETURN(int v, get());
    return v * 2;
  };
  EXPECT_EQ(*use(), 10);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto get = []() -> Result<int> { return Status::Aborted("no"); };
  auto use = [&]() -> Result<int> {
    CB_ASSIGN_OR_RETURN(int v, get());
    return v * 2;
  };
  EXPECT_TRUE(use().status().IsAborted());
}

// ----------------------------------------------------------- string_util

TEST(StringUtilTest, TrimAndSplit) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  std::vector<std::string> parts = Split(" 1, 2 ,3 ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "1");
  EXPECT_EQ(parts[1], "2");
  EXPECT_EQ(parts[2], "3");
}

TEST(StringUtilTest, ParseHelpers) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("12x", &i));
  EXPECT_FALSE(ParseInt64("", &i));

  double d = 0;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("nanx", &d));

  bool b = false;
  EXPECT_TRUE(ParseBool("TRUE", &b));
  EXPECT_TRUE(b);
  EXPECT_TRUE(ParseBool("off", &b));
  EXPECT_FALSE(b);
  EXPECT_FALSE(ParseBool("maybe", &b));
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatBytes(128 * 1024 * 1024), "128MB");
  EXPECT_EQ(FormatBytes(10LL * 1024 * 1024 * 1024), "10GB");
  EXPECT_EQ(FormatBytes(512), "512B");
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("tenant.1.con", "tenant."));
  EXPECT_FALSE(StartsWith("x", "tenant."));
  EXPECT_TRUE(EndsWith("a.toml", ".toml"));
}

// ------------------------------------------------------------ Properties

TEST(PropertiesTest, ParsesKeyValueAndSections) {
  Properties p;
  ASSERT_TRUE(p.ParseString(R"(
      # top comment
      concurrency = 100
      name = "sales service"   # inline comment
      ratio = 0.15
      serverless = true
      [elasticity]
      elastic_testTime = 3
      slots = [11, 88, 11]
  )").ok());
  EXPECT_EQ(p.GetInt("concurrency", 0), 100);
  EXPECT_EQ(p.GetString("name", ""), "sales service");
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio", 0), 0.15);
  EXPECT_TRUE(p.GetBool("serverless", false));
  EXPECT_EQ(p.GetInt("elasticity.elastic_testTime", 0), 3);
  std::vector<int64_t> slots = p.GetIntList("elasticity.slots", {});
  EXPECT_EQ(slots, (std::vector<int64_t>{11, 88, 11}));
}

TEST(PropertiesTest, DefaultsWhenMissing) {
  Properties p;
  EXPECT_EQ(p.GetInt("nope", 5), 5);
  EXPECT_EQ(p.GetString("nope", "d"), "d");
  EXPECT_FALSE(p.Has("nope"));
}

TEST(PropertiesTest, LaterAssignmentsOverride) {
  Properties p;
  ASSERT_TRUE(p.ParseString("a = 1").ok());
  ASSERT_TRUE(p.ParseString("a = 2").ok());
  EXPECT_EQ(p.GetInt("a", 0), 2);
}

TEST(PropertiesTest, RejectsMalformedLines) {
  Properties p;
  EXPECT_FALSE(p.ParseString("just a line").ok());
  EXPECT_FALSE(p.ParseString("[unterminated").ok());
  EXPECT_FALSE(p.ParseString("= novalue").ok());
}

TEST(PropertiesTest, RequireReportsMissing) {
  Properties p;
  EXPECT_TRUE(p.RequireString("k").status().IsNotFound());
  p.Set("k", "abc");
  EXPECT_EQ(*p.RequireString("k"), "abc");
  EXPECT_FALSE(p.RequireInt("k").ok());
  p.SetInt("n", 9);
  EXPECT_EQ(*p.RequireInt("n"), 9);
}

TEST(PropertiesTest, KeysWithPrefixEnumerates) {
  Properties p;
  p.SetInt("tenant.1.con", 10);
  p.SetInt("tenant.2.con", 20);
  p.SetInt("zother", 1);
  std::vector<std::string> keys = p.KeysWithPrefix("tenant.");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "tenant.1.con");
}

TEST(PropertiesTest, StringListAndDoubleList) {
  Properties p;
  ASSERT_TRUE(p.ParseString(R"(
      names = ["t1", "t2", "t3"]
      shares = [0.1, 0.3, 0.6]
  )").ok());
  EXPECT_EQ(p.GetStringList("names", {}),
            (std::vector<std::string>{"t1", "t2", "t3"}));
  EXPECT_EQ(p.GetDoubleList("shares", {}),
            (std::vector<double>{0.1, 0.3, 0.6}));
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicForSameSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RandomTest, BoundedStaysInBounds) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, UniformMeanIsCentered) {
  Pcg32 rng(11);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.NextInRange(0, 100));
  EXPECT_NEAR(sum / kN, 50.0, 1.0);
}

TEST(ZipfTest, StaysInRangeAndSkews) {
  Pcg32 rng(3);
  ZipfGenerator zipf(1000, 0.99);
  int64_t hits_top10 = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    uint64_t v = zipf.Next(rng);
    EXPECT_LT(v, 1000u);
    if (v < 10) ++hits_top10;
  }
  // With theta=0.99 the head is very hot: top-1% gets far more than 1%.
  EXPECT_GT(hits_top10, kN / 10);
}

TEST(ZipfTest, HigherThetaIsMoreSkewed) {
  Pcg32 rng1(5), rng2(5);
  ZipfGenerator mild(10000, 0.5), hot(10000, 0.99);
  int64_t mild_top = 0, hot_top = 0;
  for (int i = 0; i < 20000; ++i) {
    if (mild.Next(rng1) < 100) ++mild_top;
    if (hot.Next(rng2) < 100) ++hot_top;
  }
  EXPECT_GT(hot_top, mild_top);
}

TEST(ZipfTest, LargeKeySpaceIsCheapAndInRange) {
  Pcg32 rng(9);
  ZipfGenerator zipf(300'000'000ULL, 0.99);  // SF100 orderline id space
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Next(rng), 300'000'000ULL);
}

TEST(LatestKTest, PicksFromWindowAndTracksMax) {
  Pcg32 rng(1);
  LatestKChooser latest(10, 1000);
  for (int i = 0; i < 1000; ++i) {
    int64_t id = latest.Next(rng);
    EXPECT_GE(id, 991);
    EXPECT_LE(id, 1000);
  }
  latest.Observe(1500);
  EXPECT_EQ(latest.max_id(), 1500);
  for (int i = 0; i < 1000; ++i) {
    int64_t id = latest.Next(rng);
    EXPECT_GE(id, 1491);
    EXPECT_LE(id, 1500);
  }
  latest.Observe(100);  // stale observation does not move the window back
  EXPECT_EQ(latest.max_id(), 1500);
}

TEST(ParetoShareTest, InUnitIntervalAndSkewedLow) {
  Pcg32 rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double s = ParetoShare(rng, 1.5);
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
    sum += s;
  }
  EXPECT_LT(sum / 10000.0, 0.5);  // heavy low mass
}

TEST(ShuffleTest, PermutesDeterministically) {
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  Pcg32 rng(2);
  Shuffle(v, rng);
  std::multiset<int> got(v.begin(), v.end());
  EXPECT_EQ(got, (std::multiset<int>{1, 2, 3, 4, 5, 6}));
  std::vector<int> v2{1, 2, 3, 4, 5, 6};
  Pcg32 rng2(2);
  Shuffle(v2, rng2);
  EXPECT_EQ(v, v2);
}

// ----------------------------------------------------------------- Stats

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesCombined) {
  RunningStat a, b, all;
  Pcg32 rng(4);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble() * 10;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(TimeSeriesTest, WindowQueries) {
  TimeSeries ts;
  ts.Add(0.0, 10);
  ts.Add(1.0, 20);
  ts.Add(2.0, 30);
  ts.Add(3.0, 0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(0, 2), 15.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(10, 20), 0.0);
}

TEST(TimeSeriesTest, MeanInWindowEdgeCases) {
  TimeSeries empty;
  EXPECT_DOUBLE_EQ(empty.MeanInWindow(0.0, 1.0), 0.0);

  TimeSeries ts;
  ts.Add(1.0, 10);
  ts.Add(2.0, 20);
  ts.Add(3.0, 30);
  // Empty window (t0 == t1) and inverted window select nothing.
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(3.0, 1.0), 0.0);
  // Window entirely before / after every sample.
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(-5.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(3.5, 100.0), 0.0);
  // Half-open [t0, t1): a boundary exactly on a sample includes the start
  // sample and excludes the end sample.
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(1.0, 3.0), 15.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(2.0, 3.0), 20.0);
}

TEST(TimeSeriesTest, MeanInTrailingWindowIsHalfOpenAtTheStart) {
  TimeSeries ts;
  ts.Add(1.0, 10);
  ts.Add(2.0, 20);
  ts.Add(3.0, 30);
  // (t1-width, t1]: the end boundary is included, the start excluded — the
  // window a collector that stamps samples at window end needs, with no
  // epsilon arithmetic.
  EXPECT_DOUBLE_EQ(ts.MeanInTrailingWindow(3.0, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(ts.MeanInTrailingWindow(3.0, 2.0), 25.0);
  EXPECT_DOUBLE_EQ(ts.MeanInTrailingWindow(2.0, 5.0), 15.0);
  // Empty / miss cases.
  EXPECT_DOUBLE_EQ(ts.MeanInTrailingWindow(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanInTrailingWindow(10.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(TimeSeries().MeanInTrailingWindow(1.0, 1.0), 0.0);
}

TEST(TimeSeriesTest, StepIntegralHoldsValues) {
  TimeSeries ts;
  ts.Add(0.0, 2.0);   // 2 vCores for [0,5)
  ts.Add(5.0, 4.0);   // 4 vCores for [5,10)
  EXPECT_DOUBLE_EQ(ts.IntegrateStep(0, 10), 2.0 * 5 + 4.0 * 5);
  EXPECT_DOUBLE_EQ(ts.IntegrateStep(0, 5), 10.0);
  EXPECT_DOUBLE_EQ(ts.IntegrateStep(2.5, 7.5), 2.0 * 2.5 + 4.0 * 2.5);
}

TEST(TimeSeriesTest, CrossingQueries) {
  TimeSeries ts;
  ts.Add(0.0, 0);
  ts.Add(1.0, 5);
  ts.Add(2.0, 0);
  ts.Add(3.0, 8);
  EXPECT_DOUBLE_EQ(ts.FirstTimeAtLeast(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ts.FirstTimeAtLeast(1.5, 1), 3.0);
  EXPECT_DOUBLE_EQ(ts.FirstTimeAtMost(1.0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ts.FirstTimeAtLeast(0, 100), -1.0);
}

TEST(TimeSeriesTest, SlotMeans) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.Add(i, i < 5 ? 10.0 : 20.0);
  std::vector<double> slots = ts.SlotMeans(5.0, 2);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_DOUBLE_EQ(slots[0], 10.0);
  EXPECT_DOUBLE_EQ(slots[1], 20.0);
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Sys", "TPS"});
  t.AddRow({"RDS", "12382"});
  t.AddSeparator();
  t.AddRow({"CDB4", "5"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| Sys  | TPS   |"), std::string::npos);
  EXPECT_NE(out.find("| RDS  | 12382 |"), std::string::npos);
  EXPECT_NE(out.find("| CDB4 | 5     |"), std::string::npos);
}

}  // namespace
}  // namespace cloudybench::util

namespace cloudybench::util {
namespace {

TEST(TablePrinterTest, CsvEscapesAndSkipsSeparators) {
  TablePrinter t({"Sys", "Note"});
  t.AddRow({"RDS", "plain"});
  t.AddSeparator();
  t.AddRow({"CDB4", "has,comma and \"quote\""});
  EXPECT_EQ(t.ToCsv(),
            "Sys,Note\nRDS,plain\nCDB4,\"has,comma and \"\"quote\"\"\"\n");
}

TEST(TimeSeriesTest, FirstSustainedAtLeastIgnoresBursts) {
  TimeSeries ts;
  // One-sample burst at t=1, then sustained from t=4.
  ts.Add(0.0, 0);
  ts.Add(1.0, 100);
  ts.Add(2.0, 0);
  ts.Add(3.0, 0);
  ts.Add(4.0, 60);
  ts.Add(5.0, 70);
  ts.Add(6.0, 80);
  EXPECT_DOUBLE_EQ(ts.FirstTimeAtLeast(0, 50), 1.0);          // burst counts
  EXPECT_DOUBLE_EQ(ts.FirstSustainedAtLeast(0, 50, 3), 4.0);  // burst ignored
  EXPECT_DOUBLE_EQ(ts.FirstSustainedAtLeast(0, 50, 1), 1.0);
  EXPECT_DOUBLE_EQ(ts.FirstSustainedAtLeast(0, 90, 2), -1.0);
  EXPECT_DOUBLE_EQ(ts.FirstSustainedAtLeast(4.5, 50, 2), 5.0);
}

}  // namespace
}  // namespace cloudybench::util

namespace cloudybench::util {
namespace {

// ------------------------------------------------------- Seed splitting

TEST(SplitSeedTest, NearbyRootsLabelsAndIndicesNeverCollide) {
  // The collision surface the old `seed + i * constant` derivation had:
  // nearby roots with overlapping index ranges. Every triple must map to a
  // distinct seed.
  std::set<uint64_t> seen;
  int produced = 0;
  for (uint64_t root : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{42},
                        uint64_t{43}, uint64_t{50}, uint64_t{147}}) {
    for (uint64_t label : {kWorkerStream, kSessionStream, kJitterStream,
                           kArrivalStream, kManagerStream}) {
      for (uint64_t index = 0; index < 64; ++index) {
        seen.insert(SplitSeed(root, label, index));
        ++produced;
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), produced);
}

TEST(SplitSeedTest, SequentialArithmeticAliasGone) {
  // tenancy.cc uses manager roots 50, 147, 244 (97 apart) with ~100+
  // workers each; under sequential derivation manager A's worker 97 *was*
  // manager B's worker 0. The split derivation keeps them apart.
  EXPECT_NE(SplitSeed(50, kWorkerStream, 97), SplitSeed(147, kWorkerStream, 0));
  EXPECT_NE(SplitSeed(147, kWorkerStream, 97),
            SplitSeed(244, kWorkerStream, 0));
}

TEST(SplitSeedTest, DeterministicAndLabelSensitive) {
  EXPECT_EQ(SplitSeed(7, kWorkerStream, 3), SplitSeed(7, kWorkerStream, 3));
  EXPECT_NE(SplitSeed(7, kWorkerStream, 3), SplitSeed(7, kJitterStream, 3));
  EXPECT_NE(SplitSeed(7, kWorkerStream, 3), SplitSeed(7, kWorkerStream, 4));
  EXPECT_NE(SplitSeed(7, kWorkerStream, 3), SplitSeed(8, kWorkerStream, 3));
}

TEST(SplitStreamTest, DistinctTriplesGiveDivergingReplayableStreams) {
  Pcg32 a = SplitStream(42, kSessionStream, 0);
  Pcg32 b = SplitStream(42, kSessionStream, 1);
  Pcg32 c = SplitStream(43, kSessionStream, 0);
  Pcg32 a_replay = SplitStream(42, kSessionStream, 0);
  int differs_ab = 0;
  int differs_ac = 0;
  for (int i = 0; i < 64; ++i) {
    uint32_t x = a.Next();
    EXPECT_EQ(x, a_replay.Next());  // replayable
    if (x != b.Next()) ++differs_ab;
    if (x != c.Next()) ++differs_ac;
  }
  EXPECT_GT(differs_ab, 32);
  EXPECT_GT(differs_ac, 32);
}

}  // namespace
}  // namespace cloudybench::util
