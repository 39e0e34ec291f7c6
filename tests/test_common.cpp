#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace cstuner {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.5, 7.5);
    EXPECT_GE(u, 2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng child = a.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == child.next());
  EXPECT_LT(equal, 4);
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

TEST(Hash, Fnv1aStableAndDistinct) {
  const std::string a = "hello", b = "hellp";
  EXPECT_EQ(fnv1a(a.data(), a.size()), fnv1a(a.data(), a.size()));
  EXPECT_NE(fnv1a(a.data(), a.size()), fnv1a(b.data(), b.size()));
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(MathUtil, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(3), 1);
  EXPECT_EQ(ilog2(1024), 10);
}

TEST(MathUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(MathUtil, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(8, 4), 8);
}

TEST(MathUtil, Pow2Range) {
  EXPECT_EQ(pow2_range(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(pow2_range(8), (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(pow2_range(100),
            (std::vector<std::int64_t>{1, 2, 4, 8, 16, 32, 64}));
  // Doubling stops before it would pass the max or overflow int64.
  constexpr std::int64_t kTop = std::int64_t{1} << 62;
  EXPECT_EQ(pow2_range(kTop).size(), 63u);
  EXPECT_EQ(pow2_range(kTop).back(), kTop);
  EXPECT_EQ(pow2_range(kTop - 1).back(), kTop / 2);
  EXPECT_EQ(pow2_range(std::numeric_limits<std::int64_t>::max()).back(), kTop);
}

TEST(MathUtil, Clamp) {
  EXPECT_EQ(clamp(5, 0, 10), 5);
  EXPECT_EQ(clamp(-1, 0, 10), 0);
  EXPECT_EQ(clamp(11, 0, 10), 10);
}

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    CSTUNER_CHECK_MSG(1 == 2, "numbers disagree");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("numbers disagree"),
              std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw ConstraintError("x"), Error);
  EXPECT_THROW(throw NumericError("x"), Error);
  EXPECT_THROW(throw UsageError("x"), Error);
}

TEST(Table, AlignedPrintContainsAllCells) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2.5"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  for (const char* needle : {"name", "value", "alpha", "beta", "2.5"}) {
    EXPECT_NE(s.find(needle), std::string::npos) << needle;
  }
}

TEST(Table, CsvFormat) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FormattingHelpers) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt_pct(0.1234, 1), "12.3%");
}

TEST(Logging, LevelGatesOutput) {
  auto& logger = Logger::instance();
  const auto saved = logger.level();
  logger.set_level(LogLevel::kOff);
  CSTUNER_ERROR << "this must not crash even when gated";
  logger.set_level(saved);
  SUCCEED();
}

}  // namespace
}  // namespace cstuner
