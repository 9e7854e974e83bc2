/**
 * @file
 * Adaptive frame-level pruning selectors — the software answer to the
 * paper's hypothesis explosion (ROADMAP item 2). Both slot into the
 * finishFrame selector seam and are `final`, so the decoder's selector
 * visitor binds them statically.
 *
 *  - RelativeThresholdSelector: FLToP-style frame-level relative
 *    threshold pruning (arXiv 2510.09085). Every frame keeps exactly
 *    the hypotheses within a fixed log-space margin of the frame-best
 *    cost — a relative probability factor of exp(-margin) — with a
 *    survivors/frame cap as the hard bound, so one flat frame cannot
 *    explode the workload no matter what the threshold passes.
 *
 *  - AdaptiveBeamSelector: derives its per-frame margin from the
 *    entropy of the frame's score distribution, EMA-smoothed across
 *    frames. High entropy (a flat distribution — the dark-side
 *    condition the paper measures under aggressive pruning) *narrows*
 *    the margin to contain the hypothesis explosion; a confident,
 *    peaked frame relaxes back toward the wide margin where keeping
 *    alternatives is cheap. The margin moves inside configurable
 *    [min, max] bounds.
 *
 * Both emit the closed `decode.selector.*` telemetry namespace (see
 * docs/METRICS.md): the per-frame margin trajectory, survivors/frame,
 * the entropy signal, and threshold/cap hit counters. All of it is
 * deterministic — per-utterance-serial integer counts plus raw-double
 * histogram observations (bucket counts and exact min/max only).
 */

#ifndef DARKSIDE_NBEST_ADAPTIVE_SELECTORS_HH
#define DARKSIDE_NBEST_ADAPTIVE_SELECTORS_HH

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "nbest/hypothesis.hh"

namespace darkside {

/**
 * FLToP-style frame-level relative-threshold pruning with a hard
 * survivors/frame cap.
 */
class RelativeThresholdSelector final : public HypothesisSelector
{
  public:
    /**
     * @param margin log-space threshold above the frame-best cost;
     *        a hypothesis survives iff cost <= best + margin
     * @param max_survivors hard survivors/frame cap (best-cost order)
     */
    RelativeThresholdSelector(float margin, std::size_t max_survivors);

    void beginFrame() override;
    void insert(const Hypothesis &hyp) override;
    float finishFrame(std::vector<Hypothesis> &out) override;
    using HypothesisSelector::finishFrame;
    const char *name() const override { return "relative-threshold"; }

    float margin() const { return margin_; }
    std::size_t maxSurvivors() const { return maxSurvivors_; }

  private:
    float margin_;
    std::size_t maxSurvivors_;
    std::unordered_map<StateId, Hypothesis> table_;
    float bestCost_;
    /** Guards the per-frame telemetry publication so repeated
     *  finishFrame() calls on the same frame publish once. */
    bool closed_;
};

/**
 * Entropy-adaptive beam: the selection margin widens/narrows per frame
 * from the EMA-smoothed normalized entropy of the frame's recombined
 * score distribution.
 */
class AdaptiveBeamSelector final : public HypothesisSelector
{
  public:
    /**
     * @param min_margin margin under maximum entropy (flattest frames)
     * @param max_margin margin under zero entropy (confident frames)
     * @param ema_alpha weight of the current frame's entropy in the
     *        exponential moving average (1 = no smoothing)
     */
    AdaptiveBeamSelector(float min_margin, float max_margin,
                         float ema_alpha = 0.3f);

    void startUtterance() override;
    void beginFrame() override;
    void insert(const Hypothesis &hyp) override;
    float finishFrame(std::vector<Hypothesis> &out) override;
    using HypothesisSelector::finishFrame;
    const char *name() const override { return "adaptive-beam"; }

    float minMargin() const { return minMargin_; }
    float maxMargin() const { return maxMargin_; }

    /** Margin applied to the last finished frame. */
    float currentMargin() const { return margin_; }

    /** EMA-smoothed normalized entropy after the last finished frame
     *  (0 = fully confident, 1 = uniform). */
    double smoothedEntropy() const { return entropyEma_; }

  private:
    float minMargin_;
    float maxMargin_;
    float emaAlpha_;
    std::unordered_map<StateId, Hypothesis> table_;
    float bestCost_;
    float margin_;
    double entropyEma_;
    bool haveEma_;
    /** Guards the EMA update + telemetry so repeated finishFrame()
     *  calls on the same frame apply the signal once. */
    bool closed_;
};

} // namespace darkside

#endif // DARKSIDE_NBEST_ADAPTIVE_SELECTORS_HH
