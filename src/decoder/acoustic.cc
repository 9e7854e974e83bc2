#include "decoder/acoustic.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/wire.hh"

namespace darkside {

namespace {

constexpr float kProbabilityFloor = 1e-10f;

/**
 * The per-frame cost transform, shared by fromPosteriors and
 * ScoreMatrixBuilder so both produce the same bits: writes
 * scale * -log(max(p, floor)) for every class into `row` and returns
 * the frame's peak posterior (its confidence).
 */
float
costRow(const Vector &posteriors, float scale, float *row)
{
    float peak = 0.0f;
    for (float p : posteriors) {
        peak = std::max(peak, p);
        *row++ = -scale * std::log(std::max(p, kProbabilityFloor));
    }
    return peak;
}

} // namespace

AcousticScores
AcousticScores::fromPosteriors(const std::vector<Vector> &posteriors,
                               float scale)
{
    ds_assert(!posteriors.empty());
    AcousticScores scores;
    scores.classes_ = posteriors.front().size();
    scores.costs_.resize(posteriors.size() * scores.classes_);

    double confidence_sum = 0.0;
    float *row = scores.costs_.data();
    for (const auto &frame : posteriors) {
        ds_assert(frame.size() == scores.classes_);
        confidence_sum += costRow(frame, scale, row);
        row += scores.classes_;
    }
    scores.meanConfidence_ =
        confidence_sum / static_cast<double>(posteriors.size());
    return scores;
}

AcousticScores
AcousticScores::fromMlp(const Mlp &mlp, const std::vector<Vector> &inputs,
                        float scale)
{
    return fromEngine(InferenceEngine(mlp), inputs, scale);
}

AcousticScores
AcousticScores::fromEngine(const InferenceEngine &engine,
                           const std::vector<Vector> &inputs, float scale)
{
    std::vector<Vector> posteriors;
    engine.forwardAll(inputs, posteriors);
    return fromPosteriors(posteriors, scale);
}

AcousticScores
AcousticScores::poisoned(std::size_t frames, std::size_t classes)
{
    ds_assert(frames > 0 && classes > 0);
    AcousticScores scores;
    scores.classes_ = classes;
    scores.costs_.assign(frames * classes,
                         std::numeric_limits<float>::quiet_NaN());
    scores.meanConfidence_ =
        std::numeric_limits<double>::quiet_NaN();
    return scores;
}

std::string
AcousticScores::serialize() const
{
    std::string out;
    out.reserve(24 + costs_.size() * sizeof(float));
    wire::Writer(out)
        .pod<std::uint64_t>(classes_)
        .pod<std::uint64_t>(costs_.size())
        .pod(meanConfidence_)
        .pods(costs_.data(), costs_.size());
    return out;
}

Result<AcousticScores>
AcousticScores::deserialize(const std::string &bytes,
                            const std::string &context)
{
    const auto malformed = [&context]() {
        return Status::error("'" + context +
                             "': malformed acoustic-score payload");
    };
    wire::Reader r(bytes);
    std::uint64_t classes = 0;
    std::uint64_t cost_count = 0;
    double mean_confidence = 0.0;
    if (!r.pod(classes) || !r.pod(cost_count) || !r.pod(mean_confidence))
        return malformed();
    if (classes == 0 || cost_count == 0 || cost_count % classes != 0 ||
        r.remaining() / sizeof(float) != cost_count ||
        r.remaining() % sizeof(float) != 0) {
        return malformed();
    }
    AcousticScores scores;
    scores.classes_ = static_cast<std::size_t>(classes);
    scores.meanConfidence_ = mean_confidence;
    scores.costs_.resize(static_cast<std::size_t>(cost_count));
    r.pods(scores.costs_.data(), scores.costs_.size());
    return scores;
}

ScoreMatrixBuilder::ScoreMatrixBuilder(const InferenceEngine &engine,
                                       const std::vector<Vector> &inputs,
                                       float scale)
    : engine_(&engine), inputs_(&inputs), scale_(scale),
      total_(inputs.size()), posteriors_(inputs.size())
{
    ds_assert(!inputs.empty());
    scores_.classes_ = engine.outputSize();
    // Full allocation up front: rows never move, so a reader may hold
    // row pointers below the scored boundary while later windows land.
    scores_.costs_.assign(total_ * scores_.classes_,
                          std::numeric_limits<float>::quiet_NaN());
}

bool
ScoreMatrixBuilder::scoreTo(std::size_t upTo)
{
    ds_assert(upTo <= total_);
    if (upTo <= scored_)
        return true;

    engine_->forwardRange(*inputs_, scored_, upTo, posteriors_, ws_);

    // fromPosteriors' per-frame transform, in frame order: identical
    // cost values and an identical confidence accumulation order, so
    // the completed matrix is bit-identical to the whole-utterance
    // transform for any window boundaries.
    bool all_finite = true;
    for (std::size_t f = scored_; f < upTo; ++f) {
        Vector &frame = posteriors_[f];
        ds_assert(frame.size() == scores_.classes_);
        float *row = scores_.costs_.data() + f * scores_.classes_;
        confidenceSum_ += costRow(frame, scale_, row);
        all_finite = all_finite &&
            std::all_of(row, row + scores_.classes_,
                        [](float c) { return std::isfinite(c); });
        Vector().swap(frame); // keep live scratch to one window
    }
    scored_ = upTo;
    return all_finite;
}

AcousticScores
ScoreMatrixBuilder::take() &&
{
    ds_assert(complete());
    scores_.meanConfidence_ =
        confidenceSum_ / static_cast<double>(total_);
    return std::move(scores_);
}

bool
AcousticScores::finite() const
{
    for (float c : costs_) {
        if (!std::isfinite(c))
            return false;
    }
    return true;
}

} // namespace darkside
