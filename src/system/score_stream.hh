/**
 * @file
 * Acoustic scoring for one utterance — the system's only scoring path.
 * AsrSystem::scoresFor is a ScoreStream opened and finished on the
 * calling thread; the streaming server keeps the stream open and
 * decodes early chunks while later frame windows are still being
 * scored, so the first partial hypothesis does not wait for the whole
 * utterance.
 *
 * A stream opens in one of two states:
 *
 *  - complete: the (level, id) key hit the sharded LRU or the
 *    persistent store; scores() is the full matrix immediately.
 *  - streaming: the stream owns the spliced inputs and a
 *    ScoreMatrixBuilder. ensureScored(f) makes rows [0, f) final —
 *    synchronously, or by waiting on the prefetch thread started with
 *    startPrefetch(), which scores window after window in the
 *    background.
 *
 * The completed matrix is the same for any window size
 * (ScoreMatrixBuilder's contract), and finish() commits it to the LRU
 * and the store, so every later open of the same key sees the
 * identical bytes. A corrupt LRU hit (the system.score_cache probe) is
 * discarded at open and its recovery noted once the recompute lands.
 *
 * Faults: the inference.scores probe is consulted once at open (NaN
 * fault → poisoned() stream that is never cached; other kinds throw
 * FaultError from openScoreStream), and a non-finite cost produced
 * while scoring surfaces as FaultError(inference.scores, NanScores).
 *
 * Threading: one consumer thread drives ensureScored/finish; the
 * prefetch worker is the only other toucher and hands rows over
 * through a mutex, so rows below an ensureScored() boundary are safe
 * to read without further locking.
 */

#ifndef DARKSIDE_SYSTEM_SCORE_STREAM_HH
#define DARKSIDE_SYSTEM_SCORE_STREAM_HH

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "decoder/acoustic.hh"
#include "system/asr_system.hh"

namespace darkside {

class ScoreStream
{
  public:
    /** Joins the prefetch worker (it stops at the next window). */
    ~ScoreStream();

    ScoreStream(const ScoreStream &) = delete;
    ScoreStream &operator=(const ScoreStream &) = delete;

    std::size_t frameCount() const;

    /** True when the whole matrix is final (cache hit or finished). */
    bool complete() const;

    /** The stream opened on a resident LRU/store entry. */
    bool fromCache() const { return fromCache_; }

    /** An injected NaN fault poisoned this stream at open; the caller
     *  degrades the utterance (the matrix is all-NaN, never cached). */
    bool poisoned() const { return poisoned_; }

    /**
     * Make rows [0, frame) final, scoring synchronously or blocking on
     * the prefetch worker. Throws FaultError(inference.scores,
     * NanScores) when scoring produced a non-finite cost, and rethrows
     * any scorer-thread exception.
     */
    void ensureScored(std::size_t frame);

    /**
     * Start a background thread that scores the rest of the utterance
     * in windows of `windowFrames` (0 = one window). No-op when the
     * stream is complete or a prefetch already runs.
     */
    void startPrefetch(std::size_t windowFrames);

    /**
     * The score matrix. Rows below the last ensureScored() boundary
     * are final; the reference and its row storage are stable until
     * finish() returns.
     */
    const AcousticScores &
    scores() const
    {
        return shared_ ? *shared_ : builder_->matrix();
    }

    /**
     * Score any remaining frames, commit the completed matrix to the
     * sharded LRU and the persistent store (cacheable, unpoisoned
     * streams only) and return shared ownership of it. After finish()
     * the stream stays readable through the returned pointer.
     */
    std::shared_ptr<const AcousticScores> finish();

  private:
    friend class AsrSystem;

    ScoreStream(AsrSystem &system, const Utterance &utt,
                PruneLevel level);

    AsrSystem &system_;
    ScoreKey key_;
    std::uint64_t uttId_;
    bool cacheable_;
    bool fromCache_ = false;
    bool poisoned_ = false;
    /** A corrupt LRU hit was discarded at open; finish() notes the
     *  recovery once the recompute lands. */
    bool recoveredPending_ = false;

    /** Set when complete (hit at open, or after finish()). */
    std::shared_ptr<const AcousticScores> shared_;

    /** Streaming state (unset when the stream opened complete). */
    std::vector<Vector> spliced_;
    std::optional<ScoreMatrixBuilder> builder_;

    /** Prefetch worker handshake. */
    std::thread worker_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool prefetching_ = false;
    std::size_t published_ = 0;
    bool nan_ = false;
    bool stop_ = false;
    std::exception_ptr error_;
};

} // namespace darkside

#endif // DARKSIDE_SYSTEM_SCORE_STREAM_HH
