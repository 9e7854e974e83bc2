/**
 * @file
 * Tests of the benchmark's own code: the percentile rule, span self
 * time, the Chrome trace round trip and due-time latency accounting.
 *
 *   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test
 */

#include <gtest/gtest.h>

#include <thread>

#include "spans.hh"
#include "stats.hh"

namespace perfbench {
namespace {

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(percentile(oneTo(100), 99.0), 99.0);
    EXPECT_EQ(percentile(oneTo(100), 50.0), 50.0);
    EXPECT_EQ(percentile(oneTo(1000), 99.0), 990.0);
    EXPECT_EQ(percentile(oneTo(7), 100.0), 7.0);
    EXPECT_EQ(median(oneTo(4)), 2.5);
    EXPECT_EQ(median(oneTo(5)), 3.0);
}

TEST(Percentile, TenSamplesBeyondRule)
{
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
    EXPECT_EQ(samplesBeyond(200, 95.0), 10u);
    EXPECT_EQ(samplesBeyond(199, 95.0), 9u);
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
    EXPECT_EQ(samplesBeyond(10000, 99.9), 10u);
    EXPECT_EQ(samplesBeyond(0, 99.0), 0u);
}

Span
span(const char *name, double start, double end, std::int64_t parent,
     std::uint32_t track)
{
    return Span{name, start, end, parent, 7, track};
}

TEST(SelfTime, ParentMinusOverlappingChildrenAcrossThreads)
{
    const std::vector<Span> spans = {
        span("session", 0.0, 10.0, kNoParent, 1),
        // Children on two other threads overlap each other: [2, 8) is
        // covered once, not 3 + 4 times.
        span("score", 2.0, 5.0, 0, 2),
        span("decode", 4.0, 8.0, 0, 3),
        // A child that outlives its parent covers only [9, 10).
        span("commit", 9.0, 12.0, 0, 2),
        // A grandchild does not reduce the grandparent directly.
        span("kernel", 2.5, 3.0, 1, 2),
    };
    const std::vector<double> self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 6.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 0.5);
    EXPECT_DOUBLE_EQ(self[2], 4.0);
    EXPECT_DOUBLE_EQ(self[3], 3.0);
    EXPECT_DOUBLE_EQ(self[4], 0.5);

    const auto layers = layerTimes(spans);
    EXPECT_EQ(layers.at("session").count, 1u);
    EXPECT_DOUBLE_EQ(layers.at("session").selfUs, 3.0);
    EXPECT_DOUBLE_EQ(layers.at("score").totalUs, 3.0);
}

TEST(SelfTime, RecorderLinksNestedScopesAndCrossThreadChildren)
{
    SpanRecorder rec(true);
    const std::int64_t root = 0; // the first span recorded
    {
        SpanRecorder::Scope outer(rec, "utterance", 42);
        {
            SpanRecorder::Scope inner(rec, "scores_for", 42);
        }
        std::thread worker([&] {
            const double t = rec.nowUs();
            rec.add(Span{"prefetch", t, t + 1.0, root, 42,
                         SpanRecorder::threadTrack()});
        });
        worker.join();
    }
    const std::vector<Span> spans = rec.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "utterance");
    EXPECT_EQ(spans[0].parent, kNoParent);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 0);
    EXPECT_NE(spans[1].track, spans[2].track);
    EXPECT_LE(spans[0].startUs, spans[1].startUs);
    EXPECT_GE(spans[0].endUs, spans[1].endUs);
    const std::vector<double> self = selfTimesUs(spans);
    EXPECT_LE(self[0], spans[0].durationUs());
    EXPECT_GE(self[0], 0.0);
}

TEST(SelfTime, DisabledRecorderRecordsNothing)
{
    SpanRecorder rec(false);
    {
        SpanRecorder::Scope s(rec, "utterance", 1);
    }
    EXPECT_EQ(rec.add(Span{}), kNoParent);
    EXPECT_TRUE(rec.spans().empty());
}

TEST(ChromeTrace, RoundTripsSpans)
{
    const std::vector<Span> spans = {
        span("serve.session", 0.0, 1234.5, kNoParent, 100000),
        Span{"name \"quoted\" \\ path", 12.25, 99.125, 0,
             0xfedcba9876543210ull, 3},
        span("decoder.search", 1e6, 1e6 + 0.001, 1, 2),
    };
    const std::string json =
        chromeTraceJson(spans, {{"workload", "sweep_nbest"},
                                {"note", "a \"b\""}});
    const std::vector<Span> back = parseChromeTrace(json);
    ASSERT_EQ(back.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(back[i].name, spans[i].name);
        EXPECT_DOUBLE_EQ(back[i].startUs, spans[i].startUs);
        EXPECT_NEAR(back[i].endUs, spans[i].endUs, 1e-6);
        EXPECT_EQ(back[i].parent, spans[i].parent);
        EXPECT_EQ(back[i].traceId, spans[i].traceId);
        EXPECT_EQ(back[i].track, spans[i].track);
    }
}

TEST(ChromeTrace, RejectsMalformedInput)
{
    EXPECT_THROW(parseChromeTrace("not json"), std::runtime_error);
    EXPECT_THROW(parseChromeTrace("{\"traceEvents\": 3}"),
                 std::runtime_error);
    EXPECT_THROW(parseChromeTrace("{\"traceEvents\": [{\"name\": \"x\"}]}"),
                 std::runtime_error);
    EXPECT_THROW(
        parseChromeTrace("{\"traceEvents\": [{\"ph\": \"X\", \"name\": "
                         "\"x\", \"tid\": 1, \"ts\": 0, \"dur\": 1, "
                         "\"args\": {\"span\": 5, \"parent\": -1, "
                         "\"trace_id\": \"0\"}}]}"),
        std::runtime_error);
}

TEST(DueTimeLatency, TimesFromDueAndShedMissesTheLimit)
{
    std::vector<RequestTimes> reqs;
    // Served on time: first partial 40 ms after due.
    reqs.push_back({0.0, 0.040, 0.100, true});
    // Sent late by a stalled generator: 70 ms of the 120 ms were spent
    // before the offer, and still count against the limit.
    reqs.push_back({1.0, 1.120, 1.300, true});
    // Shed: no first partial at all.
    reqs.push_back({2.0, 0.0, 0.0, false});
    // Served in time.
    reqs.push_back({3.0, 3.010, 3.050, true});

    const LatencySummary s = summarize(reqs, 100.0);
    EXPECT_EQ(s.offered, 4u);
    EXPECT_EQ(s.served, 3u);
    EXPECT_DOUBLE_EQ(s.goodput, 2.0 / 4.0);
    EXPECT_NEAR(s.firstP50Ms, 40.0, 1e-9);
    EXPECT_NEAR(s.firstP99Ms, 120.0, 1e-9);
    EXPECT_NEAR(s.doneP50Ms, 100.0, 1e-9);
    EXPECT_NEAR(s.doneP99Ms, 300.0, 1e-9);
    EXPECT_FALSE(s.p99Supported);
}

TEST(DueTimeLatency, P99NeedsAThousandServedRequests)
{
    std::vector<RequestTimes> reqs(1000, RequestTimes{0.0, 0.001, 0.002,
                                                      true});
    EXPECT_TRUE(summarize(reqs, 100.0).p99Supported);
    reqs.back().served = false;
    const LatencySummary s = summarize(reqs, 100.0);
    EXPECT_FALSE(s.p99Supported);
    EXPECT_DOUBLE_EQ(s.goodput, 999.0 / 1000.0);
}

} // namespace
} // namespace perfbench
