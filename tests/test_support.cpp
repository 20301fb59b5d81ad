#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "support/hash.h"
#include "support/op_counters.h"
#include "support/stats.h"
#include "support/table.h"

namespace mcr {
namespace {

TEST(RunStats, EmptyIsZero) {
  RunStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunStats, SingleValue) {
  RunStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.total(), 3.5);
}

TEST(RunStats, KnownMoments) {
  RunStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunStats, NegativeValues) {
  RunStats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Just check monotonicity and units, no sleeping in unit tests.
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_GE(t.millis(), b * 1000.0 * 0.5);
}

TEST(TimerReset, RestartsClock) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(OpCounters, SummaryListsOnlyNonzero) {
  OpCounters c;
  c.iterations = 3;
  c.heap_inserts = 7;
  const std::string s = c.summary();
  EXPECT_NE(s.find("iters=3"), std::string::npos);
  EXPECT_NE(s.find("heap_ins=7"), std::string::npos);
  EXPECT_EQ(s.find("relax"), std::string::npos);
}

TEST(OpCounters, EmptySummary) {
  OpCounters c;
  EXPECT_EQ(c.summary(), "(none)");
}

TEST(OpCounters, Accumulate) {
  OpCounters a;
  a.iterations = 1;
  a.arc_scans = 10;
  OpCounters b;
  b.iterations = 2;
  b.heap_delete_mins = 4;
  a += b;
  EXPECT_EQ(a.iterations, 3u);
  EXPECT_EQ(a.arc_scans, 10u);
  EXPECT_EQ(a.heap_delete_mins, 4u);
  EXPECT_EQ(a.heap_total(), 4u);
}

TEST(TextTable, PrintsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Formatting, FixedAndMs) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_ms(0.00123), "1.23");
}

// The shared hashes feed the router's ring layout, fault decisions,
// trace sampling, Prng seeding and pack checksums: pin their outputs to
// the published reference values.
TEST(Hash, MatchesReferenceValues) {
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(state, kGoldenGamma);
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(unit_double(0), 0.0);
  EXPECT_LT(unit_double(~std::uint64_t{0}), 1.0);
}

}  // namespace
}  // namespace mcr
