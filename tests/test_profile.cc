// Tests for the scoped profiler: scopes and obs*() calls record into
// the metric registry (`scope/<name>` histograms in µs, counters,
// histograms, gauges) only while profiling is on, losslessly across
// threads, and the stats exporter lists what they recorded.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "neuro/common/profile.h"
#include "neuro/telemetry/export.h"

namespace neuro {
namespace {

/** Restore a clean, disabled profiler around every test in the file. */
class ProfileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().reset();
    }

    void
    TearDown() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().reset();
    }
};

/** @return the stats dump of the registry's current state. */
std::string
statsDump()
{
    std::ostringstream os;
    telemetry::writeStats(Profiler::instance().snapshot(), os);
    return os.str();
}

TEST_F(ProfileTest, DisabledScopeRecordsNothing)
{
    {
        NEURO_PROFILE_SCOPE("test/disabled");
    }
    const telemetry::MetricsSnapshot snap = Profiler::instance().snapshot();
    EXPECT_EQ(snap.histogram("scope/test/disabled").count, 0u);
    EXPECT_EQ(statsDump().find("test/disabled"), std::string::npos);
}

TEST_F(ProfileTest, EnabledScopeAggregatesCountTotalMinMax)
{
    Profiler::instance().setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        NEURO_PROFILE_SCOPE("test/scope");
    }
    const telemetry::LatencyHistogram::Summary h =
        Profiler::instance().snapshot().histogram("scope/test/scope");
    EXPECT_EQ(h.count, 3u);
    EXPECT_GE(h.p50Us, 0.0);
    EXPECT_GE(h.maxUs, h.p50Us);
    EXPECT_GE(h.sumUs, h.maxUs);
}

TEST_F(ProfileTest, NestedScopesRecordBothLevels)
{
    Profiler::instance().setEnabled(true);
    {
        NEURO_PROFILE_SCOPE("test/outer");
        NEURO_PROFILE_SCOPE("test/outer/inner");
    }
    const telemetry::MetricsSnapshot snap = Profiler::instance().snapshot();
    EXPECT_EQ(snap.histogram("scope/test/outer").count, 1u);
    EXPECT_EQ(snap.histogram("scope/test/outer/inner").count, 1u);
    // The outer scope brackets the inner one.
    EXPECT_GE(snap.histogram("scope/test/outer").sumUs,
              snap.histogram("scope/test/outer/inner").sumUs);
}

TEST_F(ProfileTest, ObsCountersAndSamplesGateOnEnabled)
{
    obsCount("test.counter", 5);
    obsSample("test.sample", 1.0);
    obsGauge("test.gauge", 0.25);
    telemetry::MetricsSnapshot snap = Profiler::instance().snapshot();
    EXPECT_EQ(snap.counter("test.counter"), 0u);
    EXPECT_EQ(snap.histogram("test.sample").count, 0u);
    EXPECT_DOUBLE_EQ(snap.gauge("test.gauge"), 0.0);

    Profiler::instance().setEnabled(true);
    EXPECT_TRUE(obsEnabled());
    obsCount("test.counter", 5);
    obsCount("test.counter");
    obsSample("test.sample", 3.0);
    obsGauge("test.gauge", 0.25);
    snap = Profiler::instance().snapshot();
    EXPECT_EQ(snap.counter("test.counter"), 6u);
    EXPECT_EQ(snap.histogram("test.sample").count, 1u);
    // Whole values below 8 land in exact one-unit buckets.
    EXPECT_DOUBLE_EQ(snap.histogram("test.sample").maxUs, 4.0);
    // Fractional values go to gauges, which keep them exactly.
    EXPECT_DOUBLE_EQ(snap.gauge("test.gauge"), 0.25);
}

TEST_F(ProfileTest, DumpListsScopeTimingsWithTotals)
{
    Profiler::instance().setEnabled(true);
    {
        NEURO_PROFILE_SCOPE("test/dumped");
    }
    const std::string out = statsDump();
    const std::size_t line = out.find("scope/test/dumped");
    ASSERT_NE(line, std::string::npos);
    const std::string rest = out.substr(line, out.find('\n', line) - line);
    EXPECT_NE(rest.find("n=1 "), std::string::npos);
    EXPECT_NE(rest.find("total="), std::string::npos);
    EXPECT_NE(rest.find("p50="), std::string::npos);
    EXPECT_NE(rest.find("max="), std::string::npos);
}

TEST_F(ProfileTest, ConcurrentScopesAndCountersAreLossless)
{
    Profiler::instance().setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kIters = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kIters; ++i) {
                NEURO_PROFILE_SCOPE("test/mt");
                obsCount("test.mt_counter");
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const telemetry::MetricsSnapshot snap = Profiler::instance().snapshot();
    EXPECT_EQ(snap.histogram("scope/test/mt").count,
              static_cast<uint64_t>(kThreads * kIters));
    EXPECT_EQ(snap.counter("test.mt_counter"),
              static_cast<uint64_t>(kThreads * kIters));
}

TEST_F(ProfileTest, ResetZeroesValuesButKeepsCachedScopeHandles)
{
    Profiler::instance().setEnabled(true);
    auto runScope = [] { NEURO_PROFILE_SCOPE("test/reused"); };
    runScope();
    Profiler::instance().reset();
    EXPECT_EQ(Profiler::instance()
                  .snapshot()
                  .histogram("scope/test/reused")
                  .count,
              0u);
    // The call site's cached handle still feeds the registry series.
    runScope();
    EXPECT_EQ(Profiler::instance()
                  .snapshot()
                  .histogram("scope/test/reused")
                  .count,
              1u);
}

} // namespace
} // namespace neuro
