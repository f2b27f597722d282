#include "common/status.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"

namespace wsq {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("table foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table foo");
  EXPECT_EQ(s.ToString(), "NotFound: table foo");
}

TEST(StatusTest, CopySharesState) {
  Status a = Status::ParseError("bad token");
  Status b = a;
  EXPECT_EQ(b.code(), StatusCode::kParseError);
  EXPECT_EQ(b.message(), "bad token");
  EXPECT_EQ(a, b);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
  EXPECT_FALSE(Status::IOError("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDataLoss); ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, TransientCodesAreRetryable) {
  EXPECT_TRUE(IsTransient(StatusCode::kUnavailable));
  EXPECT_TRUE(IsTransient(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsTransient(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsTransient(StatusCode::kIOError));
}

TEST(StatusTest, PermanentCodesAreNotRetryable) {
  EXPECT_FALSE(IsTransient(StatusCode::kOk));
  EXPECT_FALSE(IsTransient(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsTransient(StatusCode::kParseError));
  EXPECT_FALSE(IsTransient(StatusCode::kExecutionError));
  EXPECT_FALSE(IsTransient(StatusCode::kNotFound));
  EXPECT_FALSE(IsTransient(StatusCode::kInternal));
  // Damaged bytes do not heal on retry.
  EXPECT_FALSE(IsTransient(StatusCode::kDataLoss));
}

TEST(StatusTest, DataLossFactory) {
  Status s = Status::DataLoss("checksum mismatch on page 3");
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DataLoss: checksum mismatch on page 3");
}

TEST(StatusTest, NewFactoriesCarryTheirCodes) {
  EXPECT_EQ(Status::Unavailable("down").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Unavailable("down").ToString(), "Unavailable: down");
  EXPECT_EQ(Status::DeadlineExceeded("slow").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::DeadlineExceeded("slow").ToString(),
            "DeadlineExceeded: slow");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

Result<std::vector<std::string>> MakeResult() {
  return std::vector<std::string>{"alpha", "beta", "gamma"};
}

// The rvalue accessors return the value itself, so a range-for over a
// temporary Result iterates a value that lives for the whole loop
// rather than a reference into the destroyed temporary.
static_assert(std::is_same_v<decltype(*MakeResult()),
                             std::vector<std::string>>);
static_assert(std::is_same_v<decltype(MakeResult().value()),
                             std::vector<std::string>>);
static_assert(std::is_same_v<decltype(*std::declval<
                                 Result<std::vector<std::string>>&>()),
                             std::vector<std::string>&>);

TEST(ResultTest, RangeForOverTemporaryResult) {
  std::string joined;
  for (const std::string& s : *MakeResult()) joined += s;
  for (const std::string& s : MakeResult().value()) joined += s;
  EXPECT_EQ(joined, "alphabetagammaalphabetagamma");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UseReturnIfError(int x) {
  WSQ_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(MacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UseReturnIfError(1).ok());
  EXPECT_EQ(UseReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  WSQ_ASSIGN_OR_RETURN(int h, Half(x));
  WSQ_ASSIGN_OR_RETURN(h, Half(h));
  return h;
}

TEST(MacrosTest, AssignOrReturn) {
  Result<int> r = Quarter(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_FALSE(Quarter(6).ok());
}

}  // namespace
}  // namespace wsq
