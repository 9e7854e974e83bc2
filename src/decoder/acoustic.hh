/**
 * @file
 * Acoustic score container: per-frame DNN posteriors converted to the
 * log-space costs the Viterbi search consumes. As in Kaldi, costs are
 * scaled by an acoustic scale balancing them against LM weights.
 */

#ifndef DARKSIDE_DECODER_ACOUSTIC_HH
#define DARKSIDE_DECODER_ACOUSTIC_HH

#include <string>
#include <vector>

#include "corpus/phoneme.hh"
#include "dnn/inference.hh"
#include "dnn/mlp.hh"
#include "util/status.hh"

namespace darkside {

/**
 * Immutable per-utterance acoustic cost matrix.
 */
class AcousticScores
{
  public:
    /**
     * Build from raw posterior vectors.
     * @param posteriors one probability vector per frame
     * @param scale acoustic scale applied to -log p
     */
    static AcousticScores fromPosteriors(
        const std::vector<Vector> &posteriors, float scale);

    /**
     * Score every spliced frame with the given acoustic model. Compiles
     * a one-shot InferenceEngine; callers scoring many utterances with
     * the same model should compile an engine once and use fromEngine.
     *
     * @param mlp the (possibly pruned) acoustic model
     * @param inputs spliced feature vectors (one per frame)
     * @param scale acoustic scale
     */
    static AcousticScores fromMlp(const Mlp &mlp,
                                  const std::vector<Vector> &inputs,
                                  float scale);

    /**
     * Score every spliced frame with a pre-compiled engine, in frame
     * windows on the calling thread.
     */
    static AcousticScores fromEngine(const InferenceEngine &engine,
                                     const std::vector<Vector> &inputs,
                                     float scale);

    /**
     * A score matrix filled with NaN costs, modelling a corrupted
     * scoring stage (the inference.scores nan_scores fault). Never
     * cache-inserted; finite() detects it before decoding.
     */
    static AcousticScores poisoned(std::size_t frames,
                                   std::size_t classes);

    /** True when every cost is finite (no NaN/Inf corruption). */
    bool finite() const;

    std::size_t frameCount() const
    {
        return classes_ == 0 ? 0 : costs_.size() / classes_;
    }

    std::size_t classCount() const { return classes_; }

    /** Cost of sub-phoneme `pdf` at `frame` (scale * -log p). */
    float cost(std::size_t frame, PdfId pdf) const
    {
        ds_assert(frame < frameCount());
        ds_assert(pdf < classes_);
        return costs_[frame * classes_ + pdf];
    }

    /**
     * The contiguous cost row of one frame (classCount() entries).
     * Decode hot path: hoisting the row turns the per-arc score lookup
     * into a single indexed load.
     */
    const float *row(std::size_t frame) const
    {
        ds_assert(frame < frameCount());
        return costs_.data() + frame * classes_;
    }

    /** Mean confidence (max posterior) over the utterance's frames. */
    double meanConfidence() const { return meanConfidence_; }

    /**
     * Serialise to bytes for the persistent score cache: costs,
     * class count and mean confidence round-trip bit-exactly, so a
     * decode over restored scores is byte-identical to one over
     * freshly computed scores (docs/STORE.md).
     */
    std::string serialize() const;

    /** Restore serialize() output; Status error on malformed bytes.
     *  @param context names the source in error messages. */
    static Result<AcousticScores> deserialize(
        const std::string &bytes, const std::string &context);

  private:
    friend class Result<AcousticScores>;
    friend class ScoreMatrixBuilder;

    AcousticScores() = default;

    std::vector<float> costs_;
    std::size_t classes_ = 0;
    double meanConfidence_ = 0.0;
};

/**
 * Incrementally fills one AcousticScores matrix, frame window by frame
 * window — the scoring seam of the pipelined streaming server: decode
 * can consume rows [0, scoredFrames()) while later windows are still
 * being scored.
 *
 * Bit-identity contract: once every frame is scored, the matrix
 * (costs, class count, mean confidence) is bit-identical to
 * AcousticScores::fromEngine over the same inputs, for ANY sequence of
 * scoreTo() boundaries. This holds because the MLP is stateless per
 * frame — the batched GEMM windows are themselves bit-identical to
 * per-frame forward (dnn/inference.hh) — and because this builder
 * applies fromPosteriors' per-frame cost transform (one shared helper)
 * and accumulates confidence in frame order.
 *
 * Concurrency: the cost matrix is fully allocated up front, so row
 * pointers never move while windows are appended. One thread may call
 * scoreTo() while another reads rows below a boundary it learned
 * through external synchronisation (ScoreStream provides it); writes
 * and reads then touch disjoint rows.
 *
 * Not itself thread-safe: at most one thread calls scoreTo() at a
 * time. The engine and inputs are borrowed and must outlive the
 * builder.
 */
class ScoreMatrixBuilder
{
  public:
    ScoreMatrixBuilder(const InferenceEngine &engine,
                       const std::vector<Vector> &inputs, float scale);

    std::size_t frameCount() const { return total_; }
    std::size_t scoredFrames() const { return scored_; }
    bool complete() const { return scored_ == total_; }

    /**
     * Score frames [scoredFrames(), upTo); no-op when already past
     * upTo. @return false when a newly scored cost is non-finite (the
     * caller abandons the utterance, as the batch path does on a
     * failed finite() check).
     */
    bool scoreTo(std::size_t upTo);

    /** The growing matrix. Rows below scoredFrames() are final; rows
     *  at or above it are NaN placeholders. Stable address. */
    const AcousticScores &matrix() const { return scores_; }

    /** Finalise and move the matrix out; requires complete(). */
    AcousticScores take() &&;

  private:
    const InferenceEngine *engine_;
    const std::vector<Vector> *inputs_;
    float scale_;
    std::size_t total_;
    std::size_t scored_ = 0;
    /** Running sum of per-frame peak posteriors, accumulated in frame
     *  order so the final mean is bit-identical to fromPosteriors. */
    double confidenceSum_ = 0.0;
    InferenceWorkspace ws_;
    /** Window scratch: posteriors_[f] is freed once converted, so live
     *  memory stays one window of posteriors, not the utterance. */
    std::vector<Vector> posteriors_;
    AcousticScores scores_;
};

} // namespace darkside

#endif // DARKSIDE_DECODER_ACOUSTIC_HH
