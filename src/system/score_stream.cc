#include "system/score_stream.hh"

#include <algorithm>

#include "fault/fault.hh"

namespace darkside {

std::unique_ptr<ScoreStream>
AsrSystem::openScoreStream(const Utterance &utt, PruneLevel level)
{
    return std::unique_ptr<ScoreStream>(
        new ScoreStream(*this, utt, level));
}

ScoreStream::ScoreStream(AsrSystem &system, const Utterance &utt,
                         PruneLevel level)
    : system_(system), key_(static_cast<int>(level), utt.id),
      uttId_(utt.id), cacheable_(utt.id != 0)
{
    if (cacheable_) {
        auto found = system_.scoreCache_.lookup(key_);
        if (found.scores) {
            shared_ = std::move(found.scores);
            fromCache_ = true;
            return;
        }
        recoveredPending_ = found.corruptDiscarded;
        if (auto restored = system_.readPersistedScores(key_)) {
            shared_ = system_.scoreCache_.insert(key_,
                                                 std::move(restored));
            fromCache_ = true;
            return;
        }
    }

    spliced_ = system_.corpus().spliceUtterance(utt);
    if (auto kind = FaultInjector::global().trigger("inference.scores",
                                                    utt.id)) {
        if (*kind != FaultKind::NanScores)
            throw FaultError("inference.scores", *kind, utt.id);
        // Poisoned at open: the whole matrix is NaN, the caller
        // degrades the utterance, and nothing is ever cached from this
        // stream, so a later fault-free run recomputes cleanly.
        shared_ = std::make_shared<const AcousticScores>(
            AcousticScores::poisoned(spliced_.size(),
                                     system_.corpus().classCount()));
        poisoned_ = true;
        cacheable_ = false;
        return;
    }
    builder_.emplace(system_.engineFor(level), spliced_,
                     system_.platform().acousticScale);
}

ScoreStream::~ScoreStream()
{
    if (worker_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        worker_.join();
    }
}

std::size_t
ScoreStream::frameCount() const
{
    return shared_ ? shared_->frameCount() : builder_->frameCount();
}

bool
ScoreStream::complete() const
{
    return shared_ != nullptr;
}

void
ScoreStream::ensureScored(std::size_t frame)
{
    if (shared_)
        return;
    const std::size_t target = std::min(frame, builder_->frameCount());
    if (prefetching_) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
            return published_ >= target || nan_ || error_;
        });
        if (error_)
            std::rethrow_exception(error_);
        if (nan_) {
            throw FaultError("inference.scores", FaultKind::NanScores,
                             uttId_);
        }
        return;
    }
    if (builder_->scoredFrames() >= target)
        return;
    if (!builder_->scoreTo(target)) {
        // The caller degrades the utterance, as on a poisoned matrix.
        throw FaultError("inference.scores", FaultKind::NanScores,
                         uttId_);
    }
}

void
ScoreStream::startPrefetch(std::size_t windowFrames)
{
    if (shared_ || prefetching_ || builder_->complete())
        return;
    const std::size_t window =
        windowFrames ? windowFrames : builder_->frameCount();
    prefetching_ = true;
    published_ = builder_->scoredFrames();
    worker_ = std::thread([this, window] {
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (stop_)
                    return;
            }
            const std::size_t from = builder_->scoredFrames();
            const std::size_t total = builder_->frameCount();
            if (from >= total)
                return;
            const std::size_t to = std::min(from + window, total);
            bool finite = false;
            try {
                finite = builder_->scoreTo(to);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                error_ = std::current_exception();
                cv_.notify_all();
                return;
            }
            std::lock_guard<std::mutex> lock(mutex_);
            if (!finite) {
                // Publish the fault, not the window: rows at or above
                // published_ stay unread by the consumer.
                nan_ = true;
                cv_.notify_all();
                return;
            }
            published_ = to;
            cv_.notify_all();
        }
    });
}

std::shared_ptr<const AcousticScores>
ScoreStream::finish()
{
    if (!shared_) {
        ensureScored(builder_->frameCount());
        if (worker_.joinable())
            worker_.join();
        prefetching_ = false;
        shared_ = std::make_shared<const AcousticScores>(
            std::move(*builder_).take());
        builder_.reset();
        if (recoveredPending_) {
            FaultInjector::global().noteRecovered();
            recoveredPending_ = false;
        }
        if (cacheable_) {
            system_.persistScores(key_, *shared_);
            shared_ = system_.scoreCache_.insert(key_, shared_);
        }
    }
    return shared_;
}

} // namespace darkside
