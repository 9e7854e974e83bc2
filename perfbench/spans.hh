/**
 * @file
 * In-memory span recording for the traced benchmark run, layer self
 * time, and a Chrome trace-event writer and reader (the JSON format
 * Perfetto and chrome://tracing open).
 *
 * Spans are recorded by the benchmark around its calls into each
 * layer's public functions; nothing inside the program is traced.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Sentinel parent of a root span. */
constexpr std::int64_t kNoParent = -1;

/** One timed interval of one layer call. */
struct Span
{
    std::string name;
    /** Microseconds since the recorder's epoch. */
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the causing span in the same trace, or kNoParent. */
    std::int64_t parent = kNoParent;
    /** Utterance or session id the span belongs to. */
    std::uint64_t traceId = 0;
    /** Track the span is drawn on (a thread, or one session). */
    std::uint32_t track = 0;

    double durationUs() const { return endUs - startUs; }
};

/**
 * Thread-safe span store. Disabled recorders do nothing, so the
 * traced and untraced runs share one code path.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Microseconds since the epoch of this recorder. */
    double nowUs() const;

    /** Record a finished span; returns its index (-1 when disabled). */
    std::int64_t add(Span span);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Small dense id of the calling thread, used as its track. */
    static std::uint32_t threadTrack();

    /**
     * RAII span on the calling thread's track. Nested scopes on one
     * thread get the enclosing scope as parent unless one is given.
     */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, const char *name,
              std::uint64_t traceId);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &recorder_;
        std::int64_t index_;
        Scope *outer_;
    };

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its children (children may run on other threads and
 * overlap each other; covered time is counted once).
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Per-name totals of duration and self time. */
struct LayerTime
{
    std::size_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};
std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &spans);

/**
 * Write spans as Chrome trace-event JSON: one complete ("X") event per
 * span with the trace id, span id and parent in its args, and the
 * given metadata under "otherData".
 */
std::string chromeTraceJson(
    const std::vector<Span> &spans,
    const std::vector<std::pair<std::string, std::string>> &metadata);

/** Parse spans back from chromeTraceJson output; throws on malformed
 *  input. */
std::vector<Span> parseChromeTrace(const std::string &json);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
