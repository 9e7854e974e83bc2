/**
 * @file
 * Histogram pruning ("max-active"), the classic software technique for
 * bounding the number of live hypotheses (used by Kaldi's decoders).
 * Instead of sorting, it builds a coarse histogram of hypothesis costs
 * and finds the cost threshold whose cumulative count reaches N.
 *
 * This is the natural middle ground between the paper's two baselines:
 * cheaper than an accurate partial sort, more accurate than a lossy
 * hash — but it needs a second pass over the frame's hypotheses (the
 * histogram is only complete when the frame ends), which is exactly
 * what the paper's single-pass Max-Heap hash avoids in hardware. The
 * ablation bench quantifies where each approach lands.
 */

#ifndef DARKSIDE_NBEST_HISTOGRAM_SELECTOR_HH
#define DARKSIDE_NBEST_HISTOGRAM_SELECTOR_HH

#include <unordered_map>
#include <vector>

#include "nbest/hypothesis.hh"

namespace darkside {

/**
 * Max-active selection via cost histograms.
 */
class HistogramPruning final : public HypothesisSelector
{
  public:
    /**
     * @param max_active hypothesis budget N per frame
     * @param buckets histogram resolution (coarser -> cheaper, looser)
     * @param cost_range histogram span above the frame-best cost;
     *        hypotheses beyond it are counted in the last bucket
     */
    explicit HistogramPruning(std::size_t max_active,
                              std::size_t buckets = 64,
                              float cost_range = 20.0f);

    void beginFrame() override;
    void insert(const Hypothesis &hyp) override;
    float finishFrame(std::vector<Hypothesis> &out) override;
    using HypothesisSelector::finishFrame;
    const char *name() const override { return "histogram-pruning"; }

    std::size_t maxActive() const { return maxActive_; }

    /**
     * The cost threshold selected for the last finished frame (its
     * effective adaptive beam); +inf when no pruning was needed.
     */
    float lastThreshold() const { return lastThreshold_; }

  private:
    std::size_t maxActive_;
    std::size_t buckets_;
    float costRange_;
    std::unordered_map<StateId, Hypothesis> table_;
    float bestCost_;
    float lastThreshold_;
};

} // namespace darkside

#endif // DARKSIDE_NBEST_HISTOGRAM_SELECTOR_HH
