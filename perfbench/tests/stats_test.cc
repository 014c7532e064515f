/**
 * @file
 * Tests of the benchmark's own statistics and tracing helpers: the
 * percentile rule, due-time latency and generator lag in the open
 * loop, the SLO-rate rung and backlog rule, the share and ratio maths,
 * and per-layer self time.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "load.hh"
#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(percentile(oneTo(100), 0.50), 50.0);
    EXPECT_EQ(percentile(oneTo(100), 0.99), 99.0);
    EXPECT_EQ(percentile(oneTo(100), 1.0), 100.0);
    EXPECT_EQ(percentile(oneTo(1000), 0.99), 990.0);
    EXPECT_EQ(percentile(oneTo(3), 0.5), 2.0);
    EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SupportedOnlyWithTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10);
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_EQ(samplesBeyond(999, 0.99), 9);
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_TRUE(percentileSupported(20, 0.50));
    EXPECT_FALSE(percentileSupported(19, 0.50));
    EXPECT_EQ(samplesBeyond(0, 0.5), 0);
}

TEST(OpenLoop, LatencyRunsFromDueTimeAndLagIsSentMinusDue)
{
    const OpenLoopTimes late{10.0, 15.0, 30.0};
    EXPECT_DOUBLE_EQ(dueLatencyMs(late), 20.0);
    EXPECT_DOUBLE_EQ(generatorLagMs(late), 5.0);
    const OpenLoopTimes early{10.0, 9.5, 12.0};
    EXPECT_DOUBLE_EQ(generatorLagMs(early), 0.0);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasItsRate)
{
    const auto a = poissonSchedule(42, 1000.0, 10000.0);
    const auto b = poissonSchedule(42, 1000.0, 10000.0);
    const auto c = poissonSchedule(43, 1000.0, 10000.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
    for (std::size_t i = 1; i < a.size(); ++i)
        ASSERT_LT(a[i - 1], a[i]);
    EXPECT_TRUE(poissonSchedule(1, 0.0, 100.0).empty());
}

/**
 * A stalled generator: the first submit blocks for 40 ms, so the
 * requests due during the stall are sent late.  Their latency counts
 * the stall from their due time, and the lateness shows as lag.
 */
TEST(OpenLoop, StalledGeneratorChargesLatencyFromDueTime)
{
    std::vector<std::vector<fpsa::Tensor>> inputs(
        1, std::vector<fpsa::Tensor>(1, fpsa::Tensor({1})));
    std::vector<std::thread> servers;
    int calls = 0;
    Front front;
    front.inputs = &inputs;
    front.tenantNames = {"t"};
    front.submit = [&](int, fpsa::Tensor input) {
        if (calls++ == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
        std::promise<fpsa::StatusOr<fpsa::InferenceResult>> promise;
        auto future = promise.get_future();
        servers.emplace_back([p = std::move(promise),
                              in = std::move(input)]() mutable {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            fpsa::InferenceResult r;
            r.output = in;
            p.set_value(std::move(r));
        });
        return future;
    };
    front.check = [](int, int, const fpsa::Tensor &out) {
        return out.numel() == 1;
    };

    std::vector<Request> schedule;
    for (int i = 0; i < 5; ++i)
        schedule.push_back({0, 0, 10.0 * i});
    Tracer tracer(false);
    const PhaseResult phase = runOpenLoop(front, schedule, tracer);
    for (std::thread &t : servers)
        t.join();

    ASSERT_EQ(phase.outcomes.size(), 5u);
    for (const Outcome &o : phase.outcomes) {
        EXPECT_TRUE(o.ok);
        EXPECT_TRUE(o.correct);
        EXPECT_GE(dueLatencyMs(o.times), 2.0);
    }
    // Due at 10, 20, 30 ms; sent only after the 40 ms stall.
    for (int i = 1; i <= 3; ++i) {
        const Outcome &o = phase.outcomes[static_cast<std::size_t>(i)];
        EXPECT_GE(generatorLagMs(o.times), 40.0 - 10.0 * i - 1.0);
        EXPECT_GE(dueLatencyMs(o.times), 40.0 - 10.0 * i);
    }
    EXPECT_GE(phase.outcomes[0].submitUs, 39000.0);
}

TEST(OpenLoop, BacklogCountsSentButUnobserved)
{
    std::vector<Outcome> outcomes(3);
    outcomes[0].times = {0.0, 0.0, 5.0};
    outcomes[1].times = {1.0, 1.0, 12.0};
    outcomes[2].times = {11.0, 11.0, 13.0};
    EXPECT_EQ(backlogAt(outcomes, 4.0), 2);
    EXPECT_EQ(backlogAt(outcomes, 10.0), 1);
    EXPECT_EQ(backlogAt(outcomes, 11.0), 2);
    EXPECT_EQ(backlogAt(outcomes, 20.0), 0);
}

TEST(SloRate, RungNeedsTailBacklogAndNoFailures)
{
    // 1000 req/s against a 5 ms limit: a backlog of 5 is one window.
    EXPECT_TRUE(rungMeetsSlo({1000.0, 4.0, 5, 0}, 5.0));
    EXPECT_TRUE(rungMeetsSlo({1000.0, 5.0, 0, 0}, 5.0));
    EXPECT_FALSE(rungMeetsSlo({1000.0, 5.1, 0, 0}, 5.0));
    EXPECT_FALSE(rungMeetsSlo({1000.0, 4.0, 6, 0}, 5.0));
    EXPECT_FALSE(rungMeetsSlo({1000.0, 4.0, 0, 1}, 5.0));
    // A backlog of one is tolerated however low the rate.
    EXPECT_TRUE(rungMeetsSlo({10.0, 1.0, 1, 0}, 5.0));
}

TEST(SloRate, HighestRungBeforeTheFirstMiss)
{
    const std::vector<Rung> ladder = {{100.0, 1.0, 0, 0},
                                      {200.0, 2.0, 0, 0},
                                      {400.0, 9.0, 0, 0},
                                      {800.0, 3.0, 0, 0}};
    EXPECT_EQ(sloRate(ladder, 5.0), 200.0);
    EXPECT_EQ(sloRate(ladder, 10.0), 800.0);
    EXPECT_EQ(sloRate(ladder, 0.5), 0.0);
    EXPECT_EQ(sloRate({}, 5.0), 0.0);
}

TEST(Maths, SharesRatiosAndMeans)
{
    EXPECT_DOUBLE_EQ(share(1.0, 4.0), 0.25);
    EXPECT_DOUBLE_EQ(share(3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(share(3.0, -1.0), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren)
{
    const Clock::time_point t0 = Clock::now();
    auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
    std::vector<SpanRecord> spans(4);
    spans[0] = {1, 0, 0, "engine", "request", at(0), at(10), 1};
    spans[1] = {2, 1, 0, "plan", "run", at(2), at(4), 1};
    spans[2] = {3, 1, 0, "plan", "run", at(3), at(6), 1};
    spans[3] = {4, 2, 0, "kernel", "gemm", at(2), at(3), 1};
    const auto self = selfMillisByLayer(spans);
    EXPECT_NEAR(self.at("engine"), 6.0, 1e-6); // 10 - [2, 6)
    EXPECT_NEAR(self.at("plan"), 1.0 + 3.0, 1e-6);
    EXPECT_NEAR(self.at("kernel"), 1.0, 1e-6);
}

TEST(Trace, NestedSpansFindTheirParentAndWriteChromeJson)
{
    Tracer tracer(true);
    {
        Span outer(tracer, "engine", "outer");
        Span inner(tracer, "plan", "inner");
    }
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[1].parent, 0u);

    const std::string path = "perfbench_trace_test.json";
    ASSERT_TRUE(tracer.writeChromeTrace(path, "{\"cpu\":\"x\"}").ok());
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    auto parsed = fpsa::parseJson(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ((*parsed)["traceEvents"].size(), 2u);
    EXPECT_EQ((*parsed)["traceEvents"].at(0)["ph"].string(), "X");
    EXPECT_EQ((*parsed)["otherData"]["cpu"].string(), "x");
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    Tracer tracer(false);
    {
        Span span(tracer, "engine", "x");
        EXPECT_EQ(span.id(), 0u);
    }
    tracer.record(1, 0, 0, "a", "b", Clock::now(), Clock::now());
    EXPECT_TRUE(tracer.spans().empty());
}
