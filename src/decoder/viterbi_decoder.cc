#include "decoder/viterbi_decoder.hh"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "nbest/adaptive_selectors.hh"
#include "nbest/histogram_selector.hh"
#include "nbest/selectors.hh"

namespace darkside {

double
DecodeResult::meanSurvivorsPerFrame() const
{
    if (frames.empty())
        return 0.0;
    return static_cast<double>(survivorTotal) /
        static_cast<double>(frames.size());
}

ViterbiDecoder::ViterbiDecoder(const Wfst &fst,
                               const DecoderConfig &config)
    : fst_(fst), config_(config)
{
    ds_assert(config.beam > 0.0f);
}

std::vector<WordId>
DecodeResult::backtrace(std::uint32_t trace_index) const
{
    std::vector<WordId> result;
    std::uint32_t node = trace_index;
    while (node != 0) {
        ds_assert(node < trace.size());
        result.push_back(trace[node].word - 1);
        node = trace[node].prev;
    }
    std::reverse(result.begin(), result.end());
    return result;
}

namespace {

/**
 * The one selector dispatch of the decoder: call `fn` with `selector`
 * as its concrete type when it is one of `Sels` (all `final`, so the
 * downcast is exact and every call through it binds statically), and
 * through the virtual interface otherwise — the fallback serves only
 * selectors defined outside the library (bench tees, test oracles).
 */
template <typename... Sels, typename Fn>
void
visitSelector(HypothesisSelector &selector, Fn &&fn)
{
    static_assert((std::is_final_v<Sels> && ...),
                  "a statically bound selector must be final");
    const auto bind = [&fn](auto *concrete) {
        if (concrete)
            fn(*concrete);
        return concrete != nullptr;
    };
    if (!(bind(dynamic_cast<Sels *>(&selector)) || ...))
        fn(selector);
}

/**
 * One frame of the search: the only decode kernel. Batch decode is a
 * one-chunk ViterbiStream, so every chunking performs identical
 * arithmetic in identical order. Templated on observer presence
 * (kObserved) and the concrete selector type: with kObserved == false
 * and Sel a final class, the inner per-arc loop compiles with no
 * observer branches and no virtual calls.
 *
 * @return false when the search died (no survivors this frame).
 */
template <bool kObserved, typename Sel>
bool
stepFrame(const Wfst &fst, const DecoderConfig &config, TraceArena &arena,
          std::vector<Hypothesis> &active, std::vector<Hypothesis> &next,
          float &active_best, const float *row, std::size_t t,
          FrameActivity &activity, DecodeResult &result, Sel &selector,
          SearchObserver *observer)
{
    if constexpr (kObserved)
        observer->onFrameStart(t);

    // Beam pruning: expand only tokens within `beam` of the best.
    const float lattice_beam = active_best + config.beam;

    selector.beginFrame();
    for (const auto &token : active) {
        if (token.cost > lattice_beam)
            continue;
        ++activity.expanded;
        if constexpr (kObserved)
            observer->onStateExpand(token.state);
        const std::size_t begin = fst.arcBegin(token.state);
        const std::size_t end = fst.arcEnd(token.state);
        const Arc *arc = fst.arcData(begin);
        for (std::size_t a = begin; a < end; ++a, ++arc) {
            if constexpr (kObserved)
                observer->onArcTraverse(a, *arc);
            Hypothesis hyp;
            hyp.state = arc->dest;
            hyp.cost = token.cost + arc->weight + row[arc->ilabel];
            hyp.trace = arc->olabel != kEpsilon
                ? arena.append(arc->olabel, token.trace)
                : token.trace;
            selector.insert(hyp);
        }
        activity.generated += end - begin;
    }

    active_best = selector.finishFrame(next);
    activity.selector = selector.frameStats();
    activity.survivors = next.size();
    result.generatedTotal += activity.generated;
    result.survivorTotal += activity.survivors;
    result.survivorPeak =
        std::max(result.survivorPeak, activity.survivors);
    if constexpr (kObserved)
        observer->onFrameEnd(activity);

    active.swap(next);
    if (active.empty())
        return false;
    // Frame boundary: the survivors are the only live trace roots,
    // so dead backpointer chains are collectable. Remaps the
    // survivors' trace handles in place.
    arena.maybeCollect(active);
    return true;
}

/** Hand the spent arena's pool and accounting to the result. */
void
sealTrace(TraceArena &arena, DecodeResult &result)
{
    arena.finish();
    result.trace = arena.release();
    result.traceStats = arena.stats();
}

/** Utterance epilogue: pick the best token, preferring complete
 *  (final-state) paths, and backtrace it. */
void
finalizeBest(const Wfst &fst, DecodeResult &result,
             const std::vector<Hypothesis> &active)
{
    result.finalTokens = active;

    const Hypothesis *best_final = nullptr;
    float best_final_cost = std::numeric_limits<float>::infinity();
    const Hypothesis *best_any = nullptr;
    float best_any_cost = std::numeric_limits<float>::infinity();
    for (const auto &h : active) {
        if (h.cost < best_any_cost) {
            best_any_cost = h.cost;
            best_any = &h;
        }
        const float final_cost = fst.finalCost(h.state);
        if (final_cost != kInfinityCost &&
            h.cost + final_cost < best_final_cost) {
            best_final_cost = h.cost + final_cost;
            best_final = &h;
        }
    }

    const Hypothesis *winner = best_final ? best_final : best_any;
    result.reachedFinal = best_final != nullptr;
    result.totalCost = best_final ? best_final_cost : best_any_cost;
    result.words = result.backtrace(winner->trace);
}

} // namespace

DecodeResult
ViterbiDecoder::decode(const AcousticScores &scores,
                       HypothesisSelector &selector,
                       SearchObserver *observer) const
{
    // An empty score matrix returns the default result without
    // touching the selector or the observer.
    const std::size_t frames = scores.frameCount();
    if (frames == 0)
        return DecodeResult{};
    ViterbiStream stream(*this, selector, observer, frames);
    stream.advanceFrames(scores, 0, frames);
    DecodeResult result = stream.finishUtterance();
    // A dead search still reports one (zero) activity record per frame
    // of the utterance.
    result.frames.resize(frames);
    return result;
}

ViterbiStream
ViterbiDecoder::startUtterance(HypothesisSelector &selector,
                               SearchObserver *observer) const
{
    return ViterbiStream(*this, selector, observer, 0);
}

ViterbiStream::ViterbiStream(const ViterbiDecoder &decoder,
                             HypothesisSelector &selector,
                             SearchObserver *observer, std::size_t frames)
    : fst_(&decoder.fst_), config_(decoder.config_),
      selector_(&selector), observer_(observer),
      arena_(decoder.config_.traceGcMinNodes)
{
    if (observer_)
        observer_->onUtteranceStart(frames);
    result_.frames.reserve(frames);
    active_.push_back({fst_->start(), 0.0f, 0});
    selector_->startUtterance();
}

void
ViterbiStream::advanceFrames(const AcousticScores &scores,
                             std::size_t begin, std::size_t end)
{
    ds_assert(!finished_);
    ds_assert(begin <= end && end <= scores.frameCount());
    if (dead_)
        return;

    visitSelector<UnboundedSelector, AccurateNBest, DirectMappedHash,
                  SetAssociativeHash, HistogramPruning,
                  RelativeThresholdSelector, AdaptiveBeamSelector>(
        *selector_, [&](auto &selector) {
            advanceImpl(scores, begin, end, selector);
        });
}

template <typename Sel>
void
ViterbiStream::advanceImpl(const AcousticScores &scores,
                           std::size_t begin, std::size_t end,
                           Sel &selector)
{
    for (std::size_t i = begin; i < end; ++i) {
        const std::size_t t = result_.frames.size();
        FrameActivity &activity = result_.frames.emplace_back();
        bool alive;
        try {
            alive = observer_
                ? stepFrame<true>(*fst_, config_, arena_, active_, next_,
                                  activeBest_, scores.row(i), t, activity,
                                  result_, selector, observer_)
                : stepFrame<false>(*fst_, config_, arena_, active_, next_,
                                   activeBest_, scores.row(i), t, activity,
                                   result_, selector, observer_);
        } catch (...) {
            // A throwing observer (DecodeWatchdog past its deadline)
            // aborts the stream mid-frame; the partial frame's arena
            // state is unusable, so the stream turns terminal and
            // finishUtterance reports the dead-search outcome.
            dead_ = true;
            sealTrace(arena_, result_);
            throw;
        }
        if (!alive) {
            // Search died (beam too small / selector too aggressive):
            // an empty transcript with an explicit dead-search outcome
            // (+inf cost, no final state reached).
            dead_ = true;
            sealTrace(arena_, result_);
            if (observer_)
                observer_->onUtteranceEnd(result_.traceStats);
            return;
        }
    }
}

PartialHypothesis
ViterbiStream::partial() const
{
    PartialHypothesis p;
    p.frames = result_.frames.size();
    if (dead_ || finished_ || active_.empty())
        return p;

    const Hypothesis *best = &active_.front();
    for (const auto &h : active_) {
        if (h.cost < best->cost)
            best = &h;
    }
    p.cost = best->cost;

    const auto &nodes = arena_.nodes();
    for (std::uint32_t n = best->trace; n != 0; n = nodes[n].prev)
        p.words.push_back(nodes[n].word - 1);
    std::reverse(p.words.begin(), p.words.end());
    return p;
}

DecodeResult
ViterbiStream::finishUtterance()
{
    ds_assert(!finished_);
    finished_ = true;
    if (dead_)
        return std::move(result_);
    if (result_.frames.empty()) {
        // Zero frames fed: the default result, as decode() returns for
        // an empty score matrix.
        return DecodeResult{};
    }
    sealTrace(arena_, result_);
    finalizeBest(*fst_, result_, active_);
    if (observer_)
        observer_->onUtteranceEnd(result_.traceStats);
    return std::move(result_);
}

EditStats
scoreTranscripts(const std::vector<std::vector<WordId>> &results,
                 const std::vector<std::vector<WordId>> &references)
{
    ds_assert(results.size() == references.size());
    EditStats total;
    for (std::size_t i = 0; i < results.size(); ++i)
        total.merge(alignSequences(references[i], results[i]));
    return total;
}

} // namespace darkside
