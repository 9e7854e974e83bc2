/**
 * @file
 * Summary statistics of the benchmark: percentiles under the "enough
 * samples beyond it" rule, and the due-time latency accounting of a
 * request stream (an utterance in a sweep, a session in serve).
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples a reported percentile must have ranked above it. */
constexpr std::size_t kSamplesBeyond = 10;

/**
 * Nearest-rank percentile: the ceil(p/100 * n)-th smallest value
 * (p in (0, 100]). Requires a non-empty sample.
 */
double percentile(std::vector<double> values, double p);

/** Middle value, or the mean of the two middle values. Requires a
 *  non-empty sample. */
double median(std::vector<double> values);

/** Samples ranked strictly above the nearest-rank p-th percentile of
 *  n samples: n - ceil(p/100 * n). */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * One request as the client sees it, in seconds on a common clock.
 * `due` is when the request was due to be sent (its scheduled arrival
 * in an open loop, its issue time in a closed loop), so a stall that
 * delays later sends is charged to them.
 */
struct RequestTimes
{
    double due = 0.0;
    /** First result (first partial transcript); valid when served. */
    double first = 0.0;
    /** Complete result; valid when served. */
    double done = 0.0;
    /** False for a refused (shed) or failed (degraded) request. */
    bool served = false;
};

/** Latency summary of a request stream, all times from due time. */
struct LatencySummary
{
    std::size_t offered = 0;
    std::size_t served = 0;
    double firstP50Ms = 0.0;
    double firstP99Ms = 0.0;
    double doneP50Ms = 0.0;
    double doneP99Ms = 0.0;
    /** Offered requests whose first result came within the limit; a
     *  refused or failed request misses it. */
    double goodput = 0.0;
    /** True when the served sample supports a p99 under the rule. */
    bool p99Supported = false;
};

/** Summarise a request stream against a first-result limit. */
LatencySummary summarize(const std::vector<RequestTimes> &requests,
                         double firstLimitMs);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
