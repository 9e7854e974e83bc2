#include "nbest/adaptive_selectors.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace darkside {

namespace {

/**
 * decode.selector.* handles. Registered as a whole family the first
 * time either adaptive selector publishes, so the closed-namespace
 * validation (tools/metrics_check) can require every member whenever
 * any is present. Everything here is deterministic: integer event
 * counts and raw-double histogram observations (bucket counts plus
 * exact commutative min/max), invariant under the worker count.
 */
struct SelectorTelemetry
{
    telemetry::Counter frames;
    telemetry::Counter thresholdHits;
    telemetry::Counter capHits;
    telemetry::Histogram beamWidth;
    telemetry::Histogram survivors;
    telemetry::Histogram entropy;
};

const SelectorTelemetry &
selectorTelemetry()
{
    static const SelectorTelemetry t = [] {
        auto &reg = telemetry::MetricRegistry::global();
        SelectorTelemetry s;
        s.frames = reg.counter(telemetry::metric("decode.selector.frames"));
        s.thresholdHits = reg.counter(
            telemetry::metric("decode.selector.threshold_hits"));
        s.capHits =
            reg.counter(telemetry::metric("decode.selector.cap_hits"));
        s.beamWidth = reg.histogram(
            telemetry::metric("decode.selector.beam_width"));
        s.survivors =
            reg.histogram(telemetry::metric("decode.selector.survivors"));
        s.entropy =
            reg.histogram(telemetry::metric("decode.selector.entropy"));
        return s;
    }();
    return t;
}

/**
 * Normalized entropy of the softmax over negative costs, relative to
 * the frame minimum: with d_i = cost_i - min, w_i = exp(-d_i) and
 * Z = sum(w_i), H = ln Z + sum(w_i * d_i) / Z, divided by ln(n) so a
 * uniform frame reads 1.0 and a single dominant hypothesis reads ~0.
 * The relative offsets keep exp() in range for any absolute costs.
 */
double
normalizedEntropy(const std::unordered_map<StateId, Hypothesis> &table,
                  float best)
{
    const std::size_t n = table.size();
    if (n < 2)
        return 0.0;
    double z = 0.0;
    double weighted = 0.0;
    for (const auto &[state, hyp] : table) {
        const double d = static_cast<double>(hyp.cost) -
            static_cast<double>(best);
        const double w = std::exp(-d);
        z += w;
        weighted += w * d;
    }
    const double h = std::log(z) + weighted / z;
    return std::min(1.0, std::max(0.0, h / std::log(
        static_cast<double>(n))));
}

} // namespace

RelativeThresholdSelector::RelativeThresholdSelector(
    float margin, std::size_t max_survivors)
    : margin_(margin), maxSurvivors_(max_survivors),
      bestCost_(std::numeric_limits<float>::infinity()), closed_(false)
{
    ds_assert(margin > 0.0f);
    ds_assert(max_survivors > 0);
    selectorTelemetry();
}

void
RelativeThresholdSelector::beginFrame()
{
    stats_ = SelectorFrameStats{};
    table_.clear();
    bestCost_ = std::numeric_limits<float>::infinity();
    closed_ = false;
}

void
RelativeThresholdSelector::insert(const Hypothesis &hyp)
{
    ++stats_.insertions;
    bestCost_ = std::min(bestCost_, hyp.cost);
    auto [it, inserted] = table_.emplace(hyp.state, hyp);
    if (!inserted) {
        ++stats_.recombinations;
        if (hyp.cost < it->second.cost)
            it->second = hyp;
    }
}

float
RelativeThresholdSelector::finishFrame(std::vector<Hypothesis> &out)
{
    // Pass-2 counters restart here so a repeated finishFrame() on the
    // same frame reports identical stats instead of double-counting.
    stats_.rejections = 0;
    stats_.evictions = 0;
    out.clear();
    const float best = table_.empty()
        ? std::numeric_limits<float>::infinity()
        : bestCost_;
    const float threshold = best + margin_;

    out.reserve(table_.size());
    for (const auto &[state, hyp] : table_) {
        if (hyp.cost <= threshold)
            out.push_back(hyp);
        else
            ++stats_.rejections;
    }
    if (out.size() > maxSurvivors_) {
        std::partial_sort(
            out.begin(),
            out.begin() + static_cast<std::ptrdiff_t>(maxSurvivors_),
            out.end(),
            [](const Hypothesis &a, const Hypothesis &b) {
                return a.cost < b.cost;
            });
        stats_.evictions = out.size() - maxSurvivors_;
        out.resize(maxSurvivors_);
    }
    stats_.survivors = out.size();

    if (!closed_) {
        closed_ = true;
        const SelectorTelemetry &t = selectorTelemetry();
        t.frames.add(1);
        t.thresholdHits.add(stats_.rejections);
        t.capHits.add(stats_.evictions);
        t.beamWidth.observe(margin_);
        t.survivors.observe(static_cast<double>(out.size()));
    }
    // The frame-best hypothesis always survives (offset 0 under any
    // margin, first under the cap's sort), so `best` is also the
    // survivor minimum.
    return best;
}

AdaptiveBeamSelector::AdaptiveBeamSelector(float min_margin,
                                           float max_margin,
                                           float ema_alpha)
    : minMargin_(min_margin), maxMargin_(max_margin),
      emaAlpha_(ema_alpha),
      bestCost_(std::numeric_limits<float>::infinity()),
      margin_(max_margin), entropyEma_(0.0), haveEma_(false),
      closed_(false)
{
    ds_assert(min_margin > 0.0f);
    ds_assert(max_margin >= min_margin);
    ds_assert(ema_alpha > 0.0f && ema_alpha <= 1.0f);
    selectorTelemetry();
}

void
AdaptiveBeamSelector::startUtterance()
{
    // The entropy signal is per-utterance: a reused selector must not
    // carry one utterance's smoothed margin into the next, or results
    // would depend on decode order.
    entropyEma_ = 0.0;
    haveEma_ = false;
    margin_ = maxMargin_;
}

void
AdaptiveBeamSelector::beginFrame()
{
    stats_ = SelectorFrameStats{};
    table_.clear();
    bestCost_ = std::numeric_limits<float>::infinity();
    closed_ = false;
}

void
AdaptiveBeamSelector::insert(const Hypothesis &hyp)
{
    ++stats_.insertions;
    bestCost_ = std::min(bestCost_, hyp.cost);
    auto [it, inserted] = table_.emplace(hyp.state, hyp);
    if (!inserted) {
        ++stats_.recombinations;
        if (hyp.cost < it->second.cost)
            it->second = hyp;
    }
}

float
AdaptiveBeamSelector::finishFrame(std::vector<Hypothesis> &out)
{
    stats_.rejections = 0;
    out.clear();
    if (table_.empty()) {
        stats_.survivors = 0;
        if (!closed_) {
            closed_ = true;
            const SelectorTelemetry &t = selectorTelemetry();
            t.frames.add(1);
            t.beamWidth.observe(margin_);
            t.survivors.observe(0.0);
        }
        return std::numeric_limits<float>::infinity();
    }

    // The signal updates once per frame: a flat distribution (high
    // entropy — the dark-side condition) narrows the margin toward
    // minMargin_ to contain the explosion; a peaked one relaxes it
    // back toward maxMargin_. Repeated finishFrame() calls reuse the
    // frame's margin, so the selection is idempotent.
    if (!closed_) {
        const double h = normalizedEntropy(table_, bestCost_);
        entropyEma_ = haveEma_
            ? emaAlpha_ * h + (1.0 - emaAlpha_) * entropyEma_
            : h;
        haveEma_ = true;
        margin_ = maxMargin_ -
            static_cast<float>(entropyEma_) * (maxMargin_ - minMargin_);
    }
    const float threshold = bestCost_ + margin_;

    out.reserve(table_.size());
    for (const auto &[state, hyp] : table_) {
        if (hyp.cost <= threshold)
            out.push_back(hyp);
        else
            ++stats_.rejections;
    }
    stats_.survivors = out.size();

    if (!closed_) {
        closed_ = true;
        const SelectorTelemetry &t = selectorTelemetry();
        t.frames.add(1);
        t.thresholdHits.add(stats_.rejections);
        t.beamWidth.observe(margin_);
        t.survivors.observe(static_cast<double>(out.size()));
        t.entropy.observe(entropyEma_);
    }
    // The frame-best hypothesis survives any margin, so bestCost_ is
    // the survivor minimum.
    return bestCost_;
}

} // namespace darkside
