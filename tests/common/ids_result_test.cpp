#include <gtest/gtest.h>

#include <unordered_set>

#include "common/ids.hpp"
#include "common/result.hpp"

namespace envnws {
namespace {

struct TestTag {};
using TestId = Id<TestTag>;

TEST(Ids, DefaultIsInvalid) {
  TestId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, TestId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  TestId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(Ids, OrderingAndHash) {
  EXPECT_LT(TestId(1), TestId(2));
  EXPECT_GT(TestId(3), TestId(2));
  std::unordered_set<TestId> set;
  set.insert(TestId(1));
  set.insert(TestId(1));
  set.insert(TestId(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> result = make_error(ErrorCode::not_found, "missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::not_found);
  EXPECT_EQ(result.value_or(-1), -1);
  EXPECT_EQ(result.error().to_string(), "not_found: missing");
}

TEST(Result, StatusDefaultsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  Status failed = make_error(ErrorCode::timeout, "too slow");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::timeout);
}

TEST(ResultDeathTest, MisuseAbortsWithTheIgnoredErrorInEveryBuild) {
  // Not an assert: the default RelWithDebInfo build defines NDEBUG, and
  // this must still stop the program there.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Result<int> failed = make_error(ErrorCode::timeout, "probe h0->h1 timed out");
  EXPECT_DEATH((void)failed.value(),
               "value\\(\\) of an error Result: timeout: probe h0->h1 timed out");
  Result<int> mutable_failed = make_error(ErrorCode::not_found, "missing");
  EXPECT_DEATH((void)mutable_failed.value(), "value\\(\\) of an error Result: not_found: missing");
  const Result<int> held(7);
  EXPECT_DEATH((void)held.error(), "error\\(\\) of a Result holding a value");
  const Status fine;
  EXPECT_DEATH((void)fine.error(), "error\\(\\) of an ok Status");
}

TEST(Result, ErrorCodeNames) {
  EXPECT_STREQ(to_string(ErrorCode::blocked_by_firewall), "blocked_by_firewall");
  EXPECT_STREQ(to_string(ErrorCode::unreachable), "unreachable");
}

}  // namespace
}  // namespace envnws
