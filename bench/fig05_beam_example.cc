/**
 * @file
 * Figure 5: the worked one-frame example of beam behaviour. Five
 * candidate hypotheses extend paths using four sub-phonemes; under the
 * confident (dense) DNN only the correct-sub-phoneme paths fall within
 * the beam, while under the flat (pruned) DNN the near-miss
 * sub-phonemes get competitive scores and extra hypotheses survive.
 * We reproduce the example with the calibrated score model and print
 * both cost tables and the survivor sets.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.hh"
#include "scoremodel/score_model.hh"
#include "tensor/matrix.hh"
#include "util/text_table.hh"

using namespace darkside;

namespace {

/** One candidate hypothesis of the worked example. */
struct Candidate
{
    const char *name;
    float sourceCost;
    PdfId subPhoneme;
};

void
showCase(const char *label, const Vector &posteriors,
         const Candidate (&candidates)[5], float beam)
{
    std::printf("--- %s ---\n", label);
    std::printf("DNN scores: S1=%.3f S2=%.3f S3=%.3f S4=%.3f "
                "(confidence %.2f)\n",
                posteriors[0], posteriors[1], posteriors[2],
                posteriors[3], posteriors[argMax(posteriors)]);

    float best = 1e30f;
    float costs[5];
    for (int i = 0; i < 5; ++i) {
        const float acoustic =
            -std::log(std::max(posteriors[candidates[i].subPhoneme],
                               1e-10f));
        costs[i] = candidates[i].sourceCost + acoustic;
        best = std::min(best, costs[i]);
    }

    TextTable table;
    table.header({"hypothesis", "sub-phoneme", "source cost",
                  "acoustic", "total", "within beam?"});
    int survivors = 0;
    for (int i = 0; i < 5; ++i) {
        const bool keep = costs[i] <= best + beam;
        survivors += keep ? 1 : 0;
        table.row(
            {candidates[i].name,
             std::string("S").append(
                 std::to_string(candidates[i].subPhoneme + 1)),
             TextTable::num(candidates[i].sourceCost, 2),
             TextTable::num(costs[i] - candidates[i].sourceCost, 2),
             TextTable::num(costs[i], 2), keep ? "kept" : "discarded"});
    }
    std::printf("%s-> %d of 5 hypotheses survive the beam (%.1f)\n\n",
                table.render().c_str(), survivors, beam);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::metricsInit(&argc, argv);
    std::printf("==============================================================\n");
    std::printf("Figure 5 — beam-search behaviour for one frame, "
                "confident vs pruned DNN\n");
    std::printf("==============================================================\n\n");

    // Five hypotheses as in the figure; hypothesis 2 uses the correct
    // sub-phoneme S2.
    const Candidate candidates[5] = {
        {"hyp-1", 1.2f, 0}, // S1
        {"hyp-2", 0.9f, 1}, // S2 (correct)
        {"hyp-3", 1.4f, 1}, // S2
        {"hyp-4", 1.1f, 2}, // S3
        {"hyp-5", 2.6f, 3}, // S4
    };
    const float beam = 3.0f;

    // Confident DNN: S2 takes almost all the mass.
    {
        ScoreModelConfig config;
        config.targetConfidence = 0.92;
        config.confidenceSpread = 0.01;
        config.topErrorRate = 0.0;
        config.competitorShape = 0.5;
        config.seed = 2;
        SyntheticScoreModel model(4, config);
        Rng rng = model.makeRng();
        showCase("baseline (dense) DNN", model.framePosterior(1, rng),
                 candidates, beam);
    }

    // Pruned DNN: S2 still top-1 but S1/S3 competitive.
    {
        ScoreModelConfig config;
        config.targetConfidence = 0.40;
        config.confidenceSpread = 0.01;
        config.topErrorRate = 0.0;
        config.competitorShape = 2.0; // spread over all competitors
        config.seed = 2;
        SyntheticScoreModel model(4, config);
        Rng rng = model.makeRng();
        showCase("pruned DNN", model.framePosterior(1, rng), candidates,
                 beam);
    }

    std::printf("expected shape: under the dense DNN only the "
                "S2-paths survive; under the pruned DNN the flat "
                "scores pull extra paths inside the beam, inflating "
                "next-frame workload.\n");
    return bench::metricsFinish();
}
