/**
 * @file
 * Conformance suite for the HypothesisSelector seam: every selector —
 * baseline, bounded-hash, histogram and the frame-adaptive pair — must
 * honour the same finishFrame contract, because the decoder's one
 * (devirtualized) search loop assumes it:
 *
 *  - finishFrame returns the minimum survivor cost (+inf when the
 *    frame is dead), so the decoder's next beam bound needs no rescan;
 *  - a repeated finishFrame on the same frame is idempotent in both
 *    survivors and frame stats (the decoder never does this, but
 *    oracle tees and tests do);
 *  - the caller's output buffer is reused across frames and must be
 *    cleared, never appended to;
 *  - chunked streaming decodes are bit-identical to batch decodes at
 *    any chunk size;
 *  - a selector reused across utterances decodes each identically
 *    regardless of order (the startUtterance contract).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "decoder/viterbi_decoder.hh"
#include "mini_setup.hh"
#include "nbest/adaptive_selectors.hh"
#include "nbest/histogram_selector.hh"
#include "nbest/selectors.hh"
#include "util/rng.hh"

namespace darkside {
namespace {

// The decoder's selector visitor binds exactly these seven statically;
// a library selector that is not `final` would silently fall back to
// the virtual interface on every arc.
static_assert(std::is_final_v<UnboundedSelector>);
static_assert(std::is_final_v<AccurateNBest>);
static_assert(std::is_final_v<DirectMappedHash>);
static_assert(std::is_final_v<SetAssociativeHash>);
static_assert(std::is_final_v<HistogramPruning>);
static_assert(std::is_final_v<RelativeThresholdSelector>);
static_assert(std::is_final_v<AdaptiveBeamSelector>);

using SelectorFactory =
    std::function<std::unique_ptr<HypothesisSelector>()>;

struct SelectorCase
{
    /** Parameter name (gtest-safe: alphanumerics and underscores). */
    const char *label;
    /** Fresh instance per call; capacities sized for the mini graph. */
    SelectorFactory make;
};

void
PrintTo(const SelectorCase &c, std::ostream *os)
{
    *os << c.label;
}

const SelectorCase kSelectorCases[] = {
    {"unbounded",
     [] { return std::make_unique<UnboundedSelector>(1024, 512); }},
    {"accurate_nbest",
     [] { return std::make_unique<AccurateNBest>(128); }},
    {"direct_mapped",
     [] { return std::make_unique<DirectMappedHash>(256); }},
    {"set_associative",
     [] { return std::make_unique<SetAssociativeHash>(256, 8); }},
    {"histogram",
     [] { return std::make_unique<HistogramPruning>(128); }},
    {"relative_threshold",
     [] {
         return std::make_unique<RelativeThresholdSelector>(10.0f, 256);
     }},
    {"adaptive_beam",
     [] {
         return std::make_unique<AdaptiveBeamSelector>(6.0f, 12.0f);
     }},
};

/** One trained mini platform shared by every decode-level test. */
ExperimentContext &
context()
{
    static ExperimentContext ctx{miniSetup(777)};
    return ctx;
}

/** Deterministic synthetic frame: `count` offers over `states`
 *  distinct states. Returns the offered minimum cost. */
float
offerFrame(HypothesisSelector &selector, Rng &rng, int count,
           std::uint32_t states)
{
    float best = std::numeric_limits<float>::infinity();
    for (int i = 0; i < count; ++i) {
        Hypothesis h{static_cast<StateId>(rng.below(states)),
                     static_cast<float>(rng.uniform(0.0, 50.0)), 0};
        best = std::min(best, h.cost);
        selector.insert(h);
    }
    return best;
}

std::vector<Hypothesis>
canonical(std::vector<Hypothesis> v)
{
    std::sort(v.begin(), v.end(),
              [](const Hypothesis &a, const Hypothesis &b) {
                  return a.state != b.state ? a.state < b.state
                                            : a.cost < b.cost;
              });
    return v;
}

void
expectSameStats(const SelectorFrameStats &got,
                const SelectorFrameStats &want, const std::string &label)
{
    EXPECT_EQ(got.insertions, want.insertions) << label;
    EXPECT_EQ(got.recombinations, want.recombinations) << label;
    EXPECT_EQ(got.collisions, want.collisions) << label;
    EXPECT_EQ(got.backupAccesses, want.backupAccesses) << label;
    EXPECT_EQ(got.overflowAccesses, want.overflowAccesses) << label;
    EXPECT_EQ(got.evictions, want.evictions) << label;
    EXPECT_EQ(got.rejections, want.rejections) << label;
    EXPECT_EQ(got.survivors, want.survivors) << label;
}

class SelectorConformance
    : public ::testing::TestWithParam<SelectorCase>
{};

TEST_P(SelectorConformance, FinishFrameReturnsSurvivorMinimum)
{
    auto selector = GetParam().make();
    Rng rng(42);
    for (int frame = 0; frame < 6; ++frame) {
        selector->beginFrame();
        const float offered_best =
            offerFrame(*selector, rng, 300, 500);
        std::vector<Hypothesis> out;
        const float returned = selector->finishFrame(out);

        ASSERT_FALSE(out.empty());
        float survivor_min = std::numeric_limits<float>::infinity();
        for (const auto &h : out)
            survivor_min = std::min(survivor_min, h.cost);
        // The frame-best hypothesis can never be pruned (it defines
        // every threshold and wins every eviction comparison), so the
        // returned minimum is the offered minimum too.
        EXPECT_EQ(returned, survivor_min) << "frame " << frame;
        EXPECT_EQ(returned, offered_best) << "frame " << frame;
        EXPECT_EQ(selector->frameStats().survivors, out.size())
            << "frame " << frame;
    }
}

TEST_P(SelectorConformance, RepeatedFinishFrameIsIdempotent)
{
    auto selector = GetParam().make();
    Rng rng(43);
    for (int frame = 0; frame < 3; ++frame) {
        selector->beginFrame();
        offerFrame(*selector, rng, 400, 300);

        std::vector<Hypothesis> first;
        const float best_first = selector->finishFrame(first);
        const SelectorFrameStats stats_first = selector->frameStats();

        // Closing the same frame again must replay, not re-count:
        // identical survivors, identical stats, identical minimum.
        std::vector<Hypothesis> second;
        const float best_second = selector->finishFrame(second);
        EXPECT_EQ(best_second, best_first) << "frame " << frame;
        expectSameStats(selector->frameStats(), stats_first,
                        "frame " + std::to_string(frame));

        const auto a = canonical(first);
        const auto b = canonical(second);
        ASSERT_EQ(a.size(), b.size()) << "frame " << frame;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].state, b[i].state) << "entry " << i;
            EXPECT_EQ(a[i].cost, b[i].cost) << "entry " << i;
        }
    }
}

TEST_P(SelectorConformance, ReusedOutputBufferIsCleared)
{
    auto selector = GetParam().make();
    Rng rng(44);
    selector->beginFrame();
    offerFrame(*selector, rng, 200, 250);

    // The decoder hands the same buffer to every frame; stale contents
    // must vanish, not leak into the survivor set.
    std::vector<Hypothesis> dirty(
        17, Hypothesis{static_cast<StateId>(999999), -1e30f, 7});
    const float best_dirty = selector->finishFrame(dirty);
    const std::vector<Hypothesis> fresh = selector->finishFrame();

    const auto a = canonical(dirty);
    const auto b = canonical(fresh);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].state, b[i].state) << "entry " << i;
        EXPECT_EQ(a[i].cost, b[i].cost) << "entry " << i;
    }
    EXPECT_GT(best_dirty, -1e29f);
}

TEST_P(SelectorConformance, DeadFrameYieldsInfinityAndNoSurvivors)
{
    auto selector = GetParam().make();
    for (int frame = 0; frame < 2; ++frame) {
        selector->beginFrame();
        std::vector<Hypothesis> out;
        const float best = selector->finishFrame(out);
        EXPECT_TRUE(out.empty()) << "frame " << frame;
        EXPECT_EQ(best, std::numeric_limits<float>::infinity())
            << "frame " << frame;
        EXPECT_EQ(selector->frameStats().survivors, 0u)
            << "frame " << frame;
    }
}

/** Bit-identity of the decode-visible result surface. */
void
expectSameDecodeResult(const DecodeResult &got, const DecodeResult &want,
                       const std::string &label)
{
    EXPECT_EQ(got.words, want.words) << label;
    EXPECT_DOUBLE_EQ(got.totalCost, want.totalCost) << label;
    EXPECT_EQ(got.reachedFinal, want.reachedFinal) << label;
    ASSERT_EQ(got.frames.size(), want.frames.size()) << label;
    for (std::size_t t = 0; t < want.frames.size(); ++t) {
        const FrameActivity &g = got.frames[t];
        const FrameActivity &w = want.frames[t];
        ASSERT_EQ(g.generated, w.generated) << label << " frame " << t;
        ASSERT_EQ(g.expanded, w.expanded) << label << " frame " << t;
        ASSERT_EQ(g.survivors, w.survivors) << label << " frame " << t;
        expectSameStats(g.selector, w.selector,
                        label + " frame " + std::to_string(t));
    }
    EXPECT_EQ(got.totalGenerated(), want.totalGenerated()) << label;
    EXPECT_EQ(got.totalSurvivors(), want.totalSurvivors()) << label;
    EXPECT_EQ(got.traceStats.allocated, want.traceStats.allocated)
        << label;
}

TEST_P(SelectorConformance, StreamingChunksMatchBatchDecode)
{
    auto &ctx = context();
    const SystemConfig config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    const ViterbiDecoder decoder(ctx.fst, DecoderConfig{config.beam});

    for (const auto &utt : ctx.testSet) {
        const auto scores = ctx.system.scoresFor(utt, config.prune);

        auto batch_selector = GetParam().make();
        const DecodeResult want =
            decoder.decode(*scores, *batch_selector);

        const std::size_t frames = scores->frameCount();
        for (const std::size_t chunk_param : {std::size_t{1},
                                              std::size_t{7},
                                              std::size_t{0}}) {
            auto stream_selector = GetParam().make();
            ViterbiStream stream =
                decoder.startUtterance(*stream_selector);
            const std::size_t chunk = chunk_param
                ? chunk_param
                : std::max<std::size_t>(frames, 1);
            for (std::size_t begin = 0; begin < frames;
                 begin += chunk) {
                stream.advanceFrames(*scores, begin,
                                     std::min(frames, begin + chunk));
            }
            expectSameDecodeResult(
                stream.finishUtterance(), want,
                std::string("chunk ") +
                    std::to_string(chunk_param));
        }
    }
}

TEST_P(SelectorConformance, ReuseAcrossUtterancesIsOrderIndependent)
{
    auto &ctx = context();
    ASSERT_GE(ctx.testSet.size(), 2u);
    const SystemConfig config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    const ViterbiDecoder decoder(ctx.fst, DecoderConfig{config.beam});
    const auto scores_a =
        ctx.system.scoresFor(ctx.testSet[0], config.prune);
    const auto scores_b =
        ctx.system.scoresFor(ctx.testSet[1], config.prune);

    auto fresh = GetParam().make();
    const DecodeResult want = decoder.decode(*scores_a, *fresh);

    // Decoding B first must leave no residue (the startUtterance
    // contract: cross-frame state like the entropy EMA resets).
    auto reused = GetParam().make();
    decoder.decode(*scores_b, *reused);
    expectSameDecodeResult(decoder.decode(*scores_a, *reused), want,
                           "after reuse");
}

INSTANTIATE_TEST_SUITE_P(
    AllSelectors, SelectorConformance,
    ::testing::ValuesIn(kSelectorCases),
    [](const ::testing::TestParamInfo<SelectorCase> &info) {
        return std::string(info.param.label);
    });

} // namespace
} // namespace darkside
