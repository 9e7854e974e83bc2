/**
 * @file
 * Unit tests for the acoustic-score container and the Viterbi beam
 * search: correct decoding on matched synthetic data, beam semantics,
 * workload accounting, observer callbacks and WER scoring.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "decoder/search_telemetry.hh"
#include "decoder/viterbi_decoder.hh"
#include "nbest/selectors.hh"
#include "scoremodel/score_model.hh"
#include "telemetry/snapshot.hh"
#include "wfst/graph_builder.hh"

namespace darkside {
namespace {

TEST(AcousticScores, CostsAreScaledNegLogs)
{
    std::vector<Vector> posteriors{{0.5f, 0.25f, 0.25f}};
    const auto scores = AcousticScores::fromPosteriors(posteriors, 2.0f);
    EXPECT_EQ(scores.frameCount(), 1u);
    EXPECT_EQ(scores.classCount(), 3u);
    EXPECT_NEAR(scores.cost(0, 0), -2.0f * std::log(0.5f), 1e-5f);
    EXPECT_NEAR(scores.cost(0, 1), -2.0f * std::log(0.25f), 1e-5f);
}

TEST(AcousticScores, ConfidenceIsMeanPeak)
{
    std::vector<Vector> posteriors{{0.8f, 0.2f}, {0.6f, 0.4f}};
    const auto scores = AcousticScores::fromPosteriors(posteriors, 1.0f);
    EXPECT_NEAR(scores.meanConfidence(), 0.7, 1e-6);
}

TEST(AcousticScores, FlooringAvoidsInfiniteCosts)
{
    std::vector<Vector> posteriors{{1.0f, 0.0f}};
    const auto scores = AcousticScores::fromPosteriors(posteriors, 1.0f);
    EXPECT_TRUE(std::isfinite(scores.cost(0, 1)));
}

/**
 * Shared fixture: a small language plus a synthetic-score oracle that
 * makes the correct path clearly cheapest.
 */
struct DecoderFixture : public ::testing::Test
{
    DecoderFixture()
        : inventory(12, 3), lexicon(inventory, 20, 2, 3, 5),
          grammar(20, 5, 0.25, 6)
    {
        GraphConfig gc;
        gc.selfLoopProb = 0.5;
        GraphBuilder builder(inventory, lexicon, grammar, gc);
        fst = std::make_unique<Wfst>(builder.build());

        ScoreModelConfig sc;
        sc.targetConfidence = 0.9;
        sc.confidenceSpread = 0.2;
        sc.topErrorRate = 0.0;
        scoreModel = std::make_unique<SyntheticScoreModel>(
            inventory.pdfCount(), sc);

        SynthesizerConfig synth_config;
        synth_config.selfLoopProb = 0.5;
        synthesizer =
            std::make_unique<FrameSynthesizer>(inventory, synth_config);
    }

    /** Sample a grammar-consistent sentence + alignment + scores. */
    AcousticScores
    makeScores(std::vector<WordId> &words, std::uint64_t seed)
    {
        Rng rng(seed);
        words = grammar.sampleSentence(rng, 8);
        const Utterance utt =
            synthesizer->synthesize(words, lexicon, rng);
        Rng score_rng(seed ^ 0xabc);
        return AcousticScores::fromPosteriors(
            scoreModel->posteriorsFor(utt.alignment, score_rng), 1.0f);
    }

    PhonemeInventory inventory;
    Lexicon lexicon;
    BigramGrammar grammar;
    std::unique_ptr<Wfst> fst;
    std::unique_ptr<SyntheticScoreModel> scoreModel;
    std::unique_ptr<FrameSynthesizer> synthesizer;
};

TEST_F(DecoderFixture, DecodesConfidentScoresExactly)
{
    ViterbiDecoder decoder(*fst, DecoderConfig{12.0f});
    int perfect = 0;
    const int trials = 10;
    for (int i = 0; i < trials; ++i) {
        std::vector<WordId> words;
        const auto scores = makeScores(words, 100 + i);
        UnboundedSelector selector;
        const DecodeResult result = decoder.decode(scores, selector);
        perfect += result.words == words ? 1 : 0;
    }
    EXPECT_GE(perfect, 8) << "confident scores must decode correctly";
}

TEST_F(DecoderFixture, ReachesFinalState)
{
    ViterbiDecoder decoder(*fst, DecoderConfig{12.0f});
    std::vector<WordId> words;
    const auto scores = makeScores(words, 42);
    UnboundedSelector selector;
    const DecodeResult result = decoder.decode(scores, selector);
    EXPECT_TRUE(result.reachedFinal);
    EXPECT_GT(result.totalCost, 0.0);
    EXPECT_EQ(result.frames.size(), scores.frameCount());
}

TEST_F(DecoderFixture, WiderBeamExploresMore)
{
    std::vector<WordId> words;
    const auto scores = makeScores(words, 7);
    UnboundedSelector s1, s2;
    const auto narrow =
        ViterbiDecoder(*fst, DecoderConfig{4.0f}).decode(scores, s1);
    const auto wide =
        ViterbiDecoder(*fst, DecoderConfig{20.0f}).decode(scores, s2);
    EXPECT_GT(wide.totalSurvivors(), narrow.totalSurvivors());
    EXPECT_GE(wide.totalGenerated(), narrow.totalGenerated());
}

TEST_F(DecoderFixture, FlatterScoresIncreaseWorkload)
{
    // The paper's core observation at decoder level: lower acoustic
    // confidence -> more hypotheses inside the beam (Fig. 4).
    std::vector<WordId> words;
    Rng rng(55);
    words = grammar.sampleSentence(rng, 8);
    Utterance utt = synthesizer->synthesize(words, lexicon, rng);

    auto scores_at = [&](double confidence) {
        ScoreModelConfig sc;
        sc.targetConfidence = confidence;
        sc.confidenceSpread = 0.2;
        sc.topErrorRate = 0.0;
        SyntheticScoreModel model(inventory.pdfCount(), sc);
        Rng score_rng(99);
        return AcousticScores::fromPosteriors(
            model.posteriorsFor(utt.alignment, score_rng), 1.0f);
    };

    ViterbiDecoder decoder(*fst, DecoderConfig{10.0f});
    UnboundedSelector s1, s2;
    const auto confident = decoder.decode(scores_at(0.9), s1);
    const auto flat = decoder.decode(scores_at(0.3), s2);
    EXPECT_GT(flat.meanSurvivorsPerFrame(),
              1.5 * confident.meanSurvivorsPerFrame());
}

TEST_F(DecoderFixture, ActivityCountersConsistent)
{
    std::vector<WordId> words;
    const auto scores = makeScores(words, 8);
    UnboundedSelector selector;
    ViterbiDecoder decoder(*fst, DecoderConfig{10.0f});
    const DecodeResult result = decoder.decode(scores, selector);
    for (const auto &frame : result.frames) {
        EXPECT_GT(frame.generated, 0u);
        EXPECT_GT(frame.expanded, 0u);
        EXPECT_LE(frame.survivors, frame.generated);
        EXPECT_EQ(frame.selector.insertions, frame.generated);
        EXPECT_EQ(frame.selector.survivors, frame.survivors);
    }
    EXPECT_EQ(result.totalGenerated(),
              [&result] {
                  std::uint64_t total = 0;
                  for (const auto &f : result.frames)
                      total += f.generated;
                  return total;
              }());
    EXPECT_GE(result.maxSurvivorsPerFrame(),
              static_cast<std::uint64_t>(
                  result.meanSurvivorsPerFrame()));
}

TEST_F(DecoderFixture, NBestSelectorBoundsWorkload)
{
    std::vector<WordId> words;
    const auto scores = makeScores(words, 9);
    ViterbiDecoder decoder(*fst, DecoderConfig{30.0f});
    SetAssociativeHash selector(64, 8);
    const DecodeResult result = decoder.decode(scores, selector);
    EXPECT_LE(result.maxSurvivorsPerFrame(), 64u);
    // Still decodes (the best path is among the survivors).
    EXPECT_EQ(result.words, words);
}

/** Observer recording callback counts. */
struct CountingObserver : public SearchObserver
{
    void onUtteranceStart(std::size_t frames) override
    {
        ++utterances;
        totalFrames += frames;
    }
    void onFrameStart(std::size_t) override { ++frameStarts; }
    void onStateExpand(StateId) override { ++stateExpands; }
    void onArcTraverse(std::size_t, const Arc &) override
    {
        ++arcTraverses;
    }
    void onFrameEnd(const FrameActivity &activity) override
    {
        ++frameEnds;
        generated += activity.generated;
    }
    void onUtteranceEnd(const TraceStats &trace) override
    {
        ++utteranceEnds;
        traceAllocated += trace.allocated;
    }

    std::size_t utterances = 0;
    std::size_t totalFrames = 0;
    std::size_t frameStarts = 0;
    std::size_t frameEnds = 0;
    std::size_t utteranceEnds = 0;
    std::uint64_t stateExpands = 0;
    std::uint64_t arcTraverses = 0;
    std::uint64_t generated = 0;
    std::uint64_t traceAllocated = 0;
};

TEST_F(DecoderFixture, ObserverSeesEveryEvent)
{
    std::vector<WordId> words;
    const auto scores = makeScores(words, 10);
    UnboundedSelector selector;
    ViterbiDecoder decoder(*fst, DecoderConfig{10.0f});
    CountingObserver observer;
    const DecodeResult result =
        decoder.decode(scores, selector, &observer);

    EXPECT_EQ(observer.utterances, 1u);
    EXPECT_EQ(observer.totalFrames, scores.frameCount());
    EXPECT_EQ(observer.frameStarts, scores.frameCount());
    EXPECT_EQ(observer.frameEnds, scores.frameCount());
    EXPECT_EQ(observer.arcTraverses, result.totalGenerated());
    EXPECT_EQ(observer.generated, result.totalGenerated());
    std::uint64_t expanded = 0;
    for (const auto &f : result.frames)
        expanded += f.expanded;
    EXPECT_EQ(observer.stateExpands, expanded);
    EXPECT_EQ(observer.utteranceEnds, 1u);
    EXPECT_EQ(observer.traceAllocated, result.traceStats.allocated);
}

TEST_F(DecoderFixture, BatchTelemetryCountsFramesAndUtterances)
{
    // Batch decode runs as a one-chunk stream but still announces the
    // utterance length up front: search.frames moves by exactly the
    // frame count and search.utterances by one. An empty score matrix
    // returns before the observer is touched, so neither moves.
    telemetry::MetricRegistry registry;
    SearchTelemetry search_telemetry(registry);
    const auto counter = [&registry](const char *name) {
        const auto snap = registry.snapshot();
        const auto *c = snap.findCounter(name);
        return c ? c->value : 0;
    };
    ViterbiDecoder decoder(*fst, DecoderConfig{10.0f});

    std::vector<WordId> words;
    AcousticScores scores = makeScores(words, 20);
    UnboundedSelector selector;
    decoder.decode(scores, selector, &search_telemetry);
    EXPECT_EQ(counter("search.frames"), scores.frameCount());
    EXPECT_EQ(counter("search.utterances"), 1u);

    // A moved-from matrix has no cost rows (vector move leaves the
    // source empty): the only way to hold a zero-frame AcousticScores.
    const AcousticScores moved = std::move(scores);
    ASSERT_EQ(scores.frameCount(), 0u);
    const DecodeResult empty =
        decoder.decode(scores, selector, &search_telemetry);
    EXPECT_TRUE(empty.frames.empty());
    EXPECT_EQ(counter("search.frames"), moved.frameCount());
    EXPECT_EQ(counter("search.utterances"), 1u);
}

/**
 * A two-branch trap graph for dead-search tests: the cheap branch runs
 * into an arc-less dead end, the expensive branch self-loops to a
 * final state. A wide beam keeps both branches alive; a shrunk beam
 * prunes the expensive branch, after which the search has nowhere to
 * go and dies.
 */
Wfst
makeTrapFst()
{
    Wfst::Builder builder;
    const StateId start = builder.addState();
    const StateId dead_end = builder.addState();
    const StateId alive = builder.addState();
    builder.setStart(start);
    builder.addArc(start, Arc{0, 1, 0.0f, dead_end});
    builder.addArc(start, Arc{0, 2, 5.0f, alive});
    builder.addArc(alive, Arc{1, kEpsilon, 0.0f, alive});
    builder.setFinal(alive, 0.0f);
    return std::move(builder).build();
}

AcousticScores
uniformScores(std::size_t frames, std::size_t classes)
{
    const std::vector<Vector> posteriors(
        frames,
        Vector(classes, 1.0f / static_cast<float>(classes)));
    return AcousticScores::fromPosteriors(posteriors, 1.0f);
}

TEST(DeadSearch, ShrunkBeamReportsExplicitFailure)
{
    const Wfst fst = makeTrapFst();
    const auto scores = uniformScores(4, 2);

    // Control: a wide beam keeps the expensive live branch and the
    // decode completes through the final state.
    UnboundedSelector wide_selector;
    const DecodeResult completed =
        ViterbiDecoder(fst, DecoderConfig{10.0f})
            .decode(scores, wide_selector);
    EXPECT_TRUE(completed.reachedFinal);
    EXPECT_TRUE(std::isfinite(completed.totalCost));
    EXPECT_EQ(completed.words, (std::vector<WordId>{1}));

    // Shrunk beam: only the dead-end token survives frame 0, frame 1
    // generates nothing, and the search dies with the explicit
    // outcome — +inf cost, no final state, empty transcript.
    UnboundedSelector narrow_selector;
    const DecodeResult dead = ViterbiDecoder(fst, DecoderConfig{2.0f})
                                  .decode(scores, narrow_selector);
    EXPECT_TRUE(std::isinf(dead.totalCost));
    EXPECT_FALSE(dead.reachedFinal);
    EXPECT_TRUE(dead.words.empty());
    EXPECT_TRUE(dead.finalTokens.empty());
    EXPECT_EQ(dead.frames.size(), scores.frameCount());
    EXPECT_EQ(dead.frames[1].generated, 0u);
    // The dead search still reports its trace accounting, and fires
    // the utterance-end hook exactly once.
    CountingObserver observer;
    UnboundedSelector observed_selector;
    const DecodeResult dead2 = ViterbiDecoder(fst, DecoderConfig{2.0f})
                                   .decode(scores, observed_selector,
                                           &observer);
    EXPECT_TRUE(std::isinf(dead2.totalCost));
    EXPECT_EQ(observer.utteranceEnds, 1u);
}

TEST_F(DecoderFixture, ForcedGcKeepsResultsIdentical)
{
    // traceGcMinNodes == 1 forces a mark-compact collection at every
    // frame boundary; the decode must be bit-identical to the default
    // (lazy) schedule in everything except the arena accounting.
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        std::vector<WordId> words;
        const auto scores = makeScores(words, seed);
        UnboundedSelector lazy_sel, eager_sel;
        const DecodeResult lazy =
            ViterbiDecoder(*fst, DecoderConfig{10.0f})
                .decode(scores, lazy_sel);
        const DecodeResult eager =
            ViterbiDecoder(*fst, DecoderConfig{10.0f, 1})
                .decode(scores, eager_sel);

        EXPECT_EQ(eager.words, lazy.words);
        EXPECT_DOUBLE_EQ(eager.totalCost, lazy.totalCost);
        EXPECT_EQ(eager.reachedFinal, lazy.reachedFinal);
        ASSERT_EQ(eager.frames.size(), lazy.frames.size());
        for (std::size_t t = 0; t < lazy.frames.size(); ++t) {
            EXPECT_EQ(eager.frames[t].generated,
                      lazy.frames[t].generated);
            EXPECT_EQ(eager.frames[t].survivors,
                      lazy.frames[t].survivors);
            EXPECT_EQ(eager.frames[t].expanded,
                      lazy.frames[t].expanded);
        }
        // Both runs append the same node stream; only collection
        // differs. Collecting every frame can only lower the peak and
        // the retained arena, never change any backtrace.
        EXPECT_EQ(eager.traceStats.allocated, lazy.traceStats.allocated);
        EXPECT_GT(eager.traceStats.gcRuns, lazy.traceStats.gcRuns);
        EXPECT_GE(eager.traceStats.collected,
                  lazy.traceStats.collected);
        EXPECT_LE(eager.traceStats.collected,
                  eager.traceStats.allocated);
        EXPECT_LE(eager.traceStats.peakLive, lazy.traceStats.peakLive);
        EXPECT_LT(eager.traceStats.peakLive,
                  eager.traceStats.allocated);
        EXPECT_LE(eager.trace.size(), lazy.trace.size());
        // Every final token's backtrace survives compaction intact.
        ASSERT_EQ(eager.finalTokens.size(), lazy.finalTokens.size());
        for (std::size_t i = 0; i < lazy.finalTokens.size(); ++i) {
            EXPECT_EQ(eager.backtrace(eager.finalTokens[i].trace),
                      lazy.backtrace(lazy.finalTokens[i].trace));
        }
    }
}

TEST_F(DecoderFixture, SingleUniformFrame)
{
    // One frame of perfectly flat scores: the decoder must survive and
    // report exactly one frame of activity.
    UnboundedSelector selector;
    ViterbiDecoder decoder(*fst, DecoderConfig{10.0f});
    const auto scores = AcousticScores::fromPosteriors(
        std::vector<Vector>{Vector(inventory.pdfCount(),
                                   1.0f / static_cast<float>(
                                       inventory.pdfCount()))},
        1.0f);
    const DecodeResult result = decoder.decode(scores, selector);
    EXPECT_EQ(result.frames.size(), 1u);
    EXPECT_GT(result.frames[0].survivors, 0u);
}

TEST(ScoreTranscripts, AggregatesWer)
{
    const std::vector<std::vector<WordId>> refs{{1, 2, 3}, {4, 5}};
    const std::vector<std::vector<WordId>> hyps{{1, 9, 3}, {4, 5}};
    const EditStats stats = scoreTranscripts(hyps, refs);
    EXPECT_EQ(stats.referenceLength, 5u);
    EXPECT_EQ(stats.errors(), 1u);
    EXPECT_DOUBLE_EQ(stats.wordErrorRate(), 0.2);
}

} // namespace
} // namespace darkside
