#include "gter/common/exec_context.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(CancelTokenTest, FreshTokenIsNotCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, CancelTripsAsCancelled) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  Status s = token.Check();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_TRUE(IsCancellation(s));
}

TEST(CancelTokenTest, PastDeadlineTripsAsDeadlineExceeded) {
  CancelToken token;
  token.SetTimeout(-0.001);  // already expired
  EXPECT_TRUE(token.cancelled());
  Status s = token.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsCancellation(s));
}

TEST(CancelTokenTest, FutureDeadlineDoesNotTrip) {
  CancelToken token;
  token.SetTimeout(3600.0);
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, CancelAfterPollsCountsExactly) {
  CancelToken token;
  token.CancelAfterPolls(3);
  // The next 3 polls pass, the 4th trips.
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
  // The hook classifies as a plain cancellation, not a deadline.
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, CancelAfterZeroPollsTripsTheNextPoll) {
  CancelToken token;
  token.CancelAfterPolls(0);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, TrippedTokenStaysTripped) {
  CancelToken token;
  token.CancelAfterPolls(0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.Check().ok());
}

TEST(CancelTokenTest, ResetRearmsAfterCancel) {
  CancelToken token;
  token.Cancel();
  ASSERT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, ResetClearsDeadlineAndClassification) {
  CancelToken token;
  token.SetTimeout(-0.001);
  ASSERT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  token.Reset();
  EXPECT_TRUE(token.Check().ok());
  // A later plain cancel must not inherit the old deadline classification.
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(IsCancellationTest, CoversExactlyTheTwoStopCodes) {
  EXPECT_TRUE(IsCancellation(Status::Cancelled("x")));
  EXPECT_TRUE(IsCancellation(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(IsCancellation(Status::OK()));
  EXPECT_FALSE(IsCancellation(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsCancellation(Status::Internal("x")));
}

TEST(ExecContextTest, DefaultContextIsAmbientAndUncancellable) {
  const ExecContext& ctx = DefaultExecContext();
  EXPECT_EQ(ctx.pool, nullptr);
  EXPECT_EQ(ctx.metrics, nullptr);
  EXPECT_EQ(ctx.trace, nullptr);
  EXPECT_EQ(ctx.cancel, nullptr);
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_TRUE(ctx.CheckCancel().ok());
}

TEST(ExecContextTest, WithCancelWiresTheToken) {
  CancelToken token;
  ExecContext ctx = ExecContext::WithCancel(&token);
  EXPECT_FALSE(ctx.cancelled());
  token.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_EQ(ctx.CheckCancel().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace gter
