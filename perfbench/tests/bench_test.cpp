// Unit tests of the benchmark's own machinery: input generators,
// percentile rule, failure accounting, span self time, and the
// determinism of each workload's simulated outcome.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common.hpp"
#include "serve_mixed.hpp"
#include "workload.hpp"

namespace pb {
namespace {

TEST(Generators, StreamsArePureFunctionsOfSeed) {
  EXPECT_EQ(streamSeed(7, 3, 11), streamSeed(7, 3, 11));
  EXPECT_NE(streamSeed(7, 3, 11), streamSeed(8, 3, 11));
  EXPECT_NE(streamSeed(7, 3, 11), streamSeed(7, 4, 11));
  EXPECT_NE(streamSeed(7, 3, 11), streamSeed(7, 3, 12));
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.below(17);
    EXPECT_EQ(x, b.below(17));
    EXPECT_LT(x, 17u);
  }
}

TEST(Generators, ServeChunksArePureFunctionsOfSeedAndIndex) {
  const auto a = generateChunk(5, 3);
  const auto b = generateChunk(5, 3);
  ASSERT_EQ(a.size(), kChunkSize);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
  const auto other = generateChunk(6, 3);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs |= a[i].line != other[i].line;
  EXPECT_TRUE(differs);
}

TEST(Generators, EveryServeChunkHasTheSameMix) {
  std::map<JobKind, int> first;
  for (const GeneratedJob& j : generateChunk(9, 0)) ++first[j.kind];
  for (std::size_t c = 1; c < 8; ++c) {
    std::map<JobKind, int> mix;
    for (const GeneratedJob& j : generateChunk(9, c)) ++mix[j.kind];
    EXPECT_EQ(mix, first);
  }
  EXPECT_EQ(first[JobKind::kMalformed], 1);
}

TEST(Percentiles, HighestPercentileWithTenSamplesBeyondIt) {
  EXPECT_EQ(samplesNeededFor(50), 20u);
  EXPECT_EQ(samplesNeededFor(90), 100u);
  EXPECT_EQ(samplesNeededFor(99), 1000u);
  EXPECT_FALSE(percentileSupported(99, 999));
  EXPECT_TRUE(percentileSupported(99, 1000));
  EXPECT_FALSE(percentileSupported(90, 99));
  EXPECT_TRUE(percentileSupported(90, 100));
  const std::vector<double> ladder = {50, 90, 99};
  EXPECT_EQ(highestSupportedPercentile(ladder, 19), -1);
  EXPECT_EQ(highestSupportedPercentile(ladder, 20), 50);
  EXPECT_EQ(highestSupportedPercentile(ladder, 150), 90);
  EXPECT_EQ(highestSupportedPercentile(ladder, 5000), 99);
}

TEST(Percentiles, LinearInterpolation) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 90), 4.6);
  EXPECT_DOUBLE_EQ(median({7}), 7);
}

TEST(Failures, MalformedLineIsAnExpectedError) {
  GeneratedJob bad;
  bad.kind = JobKind::kMalformed;
  const std::string errorRecord =
      "{\"schema\":\"dsnet-error-v1\",\"tool\":\"wsn_serve\",\"job\":4,"
      "\"line\":5,\"error\":\"expected a number\"}";
  EXPECT_EQ(checkRecord(bad, 4, errorRecord), "");
  RunCtx ctx;
  ctx.op("malformed", 1.0, checkRecord(bad, 4, errorRecord).empty());
  EXPECT_EQ(ctx.attempted, 1u);
  EXPECT_EQ(ctx.failed, 0u);
  EXPECT_EQ(ctx.latencyMs.size(), 1u);
  // The wrong answer to a malformed line, or an answer out of order, is
  // a failure.
  EXPECT_NE(checkRecord(bad, 4, "{\"schema\":\"dsnet-run-v1\",\"job\":4,"), "");
  EXPECT_NE(checkRecord(bad, 3, errorRecord), "");
}

TEST(Failures, WellFormedLineNeedsItsOwnValidRecord) {
  GeneratedJob good;
  good.kind = JobKind::kIcff;
  const std::string rec =
      "{\"schema\":\"dsnet-run-v1\",\"tool\":\"wsn_serve\",\"job\":2,"
      "\"outcome\":{\"valid\":true}}";
  EXPECT_EQ(checkRecord(good, 2, rec), "");
  EXPECT_NE(checkRecord(good, 1, rec), "");
  EXPECT_NE(checkRecord(good, 2, "{\"schema\":\"dsnet-error-v1\",\"job\":2,"), "");
  double v = 0;
  EXPECT_TRUE(recordNumber("{\"a\":1,\"sim.rounds\":42}", "sim.rounds", v));
  EXPECT_EQ(v, 42);
}

TEST(Failures, ForcedBoundViolationCountsAsFailedOp) {
  RunCtx ctx;
  ctx.simWindow = 10;
  const bool ok = checkBound(ctx, ctx.inWindow(), "icff", 10, Bound{5, 8});
  EXPECT_FALSE(ok);
  EXPECT_DOUBLE_EQ(ctx.sim.boundRatioMax, 2.0);
  ASSERT_EQ(ctx.failures.size(), 1u);
  ctx.op("icff", 1.0, ok);
  EXPECT_EQ(ctx.attempted, 1u);
  EXPECT_EQ(ctx.failed, 1u);
  EXPECT_TRUE(ctx.latencyMs.empty());
}

TEST(Failures, CostAbovePaperButWithinGateIsReportedNotFailed) {
  RunCtx ctx;
  ctx.simWindow = 10;
  EXPECT_TRUE(checkBound(ctx, true, "icff", 6, Bound{5, 8}));
  EXPECT_DOUBLE_EQ(ctx.sim.boundRatioMax, 1.2);
  EXPECT_TRUE(ctx.failures.empty());
  // Outside the simulation window the ratio is not folded in.
  EXPECT_TRUE(checkBound(ctx, false, "icff", 7, Bound{5, 8}));
  EXPECT_DOUBLE_EQ(ctx.sim.boundRatioMax, 1.2);
}

TEST(Spans, SelfTimeExcludesChildren) {
  Tracer t;
  {
    SpanScope parent(&t, "parent");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SpanScope child(&t, "child");
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  const Tracer::Totals p = t.of("parent");
  const Tracer::Totals c = t.of("child");
  EXPECT_GE(c.totalMs, 4.0);
  EXPECT_NEAR(p.selfMs, p.totalMs - c.totalMs, 1e-9);
  EXPECT_EQ(t.of("absent").count, 0u);
  SpanScope none(nullptr, "ignored");
}

TEST(HostSpeed, FactorIsReferenceOverMedianProbe) {
  HostSpeed speed;
  EXPECT_EQ(speed.factor(), 1.0);
  for (int i = 0; i < 5; ++i) speed.sample();
  EXPECT_GT(speed.spentMs(), 0.0);
  EXPECT_GT(speed.factor(), 0.0);
  // The factor turns any wall time into the same time at the reference
  // speed, so a run twice as slow reports the same scaled figure.
  EXPECT_NEAR(speed.factor() * (speed.spentMs() / 5), HostSpeed::kReferenceMs,
              HostSpeed::kReferenceMs);
}

/// Runs the first `ops` ops of a fresh workload and returns the digest.
std::uint64_t digestOf(std::unique_ptr<Workload> w, std::size_t ops) {
  w->setup(nullptr);
  RunCtx ctx;
  ctx.simWindow = ops;
  for (std::size_t s = 0; ctx.attempted < ops; ++s) w->step(s, ctx);
  EXPECT_EQ(ctx.failed, 0u);
  return ctx.sim.digest;
}

TEST(Determinism, SameSeedSameSimulatedOutcome) {
  EXPECT_EQ(digestOf(makeLargeField(3), 12), digestOf(makeLargeField(3), 12));
  EXPECT_EQ(digestOf(makeChurnWaves(3), 120), digestOf(makeChurnWaves(3), 120));
  EXPECT_NE(digestOf(makeChurnWaves(3), 120), digestOf(makeChurnWaves(4), 120));
  EXPECT_EQ(digestOf(makeServeMixed(3), kChunkSize),
            digestOf(makeServeMixed(3), kChunkSize));
}

}  // namespace
}  // namespace pb
