#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/** 1-based nearest rank of the p-th percentile of n samples. The small
 *  slack keeps p/100 * n exact when it is a whole number in decimal
 *  (0.99 * 1000 must give rank 990, not 991). */
std::size_t
nearestRank(std::size_t n, double p)
{
    const double exact = p / 100.0 * static_cast<double>(n);
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        throw std::invalid_argument("percentile of an empty sample");
    const std::size_t rank = nearestRank(values.size(), p);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

LatencySummary
summarize(const std::vector<RequestTimes> &requests, double firstLimitMs)
{
    LatencySummary s;
    s.offered = requests.size();
    std::vector<double> first;
    std::vector<double> done;
    std::size_t inLimit = 0;
    for (const RequestTimes &r : requests) {
        if (!r.served)
            continue;
        const double firstMs = (r.first - r.due) * 1e3;
        first.push_back(firstMs);
        done.push_back((r.done - r.due) * 1e3);
        if (firstMs <= firstLimitMs)
            ++inLimit;
    }
    s.served = first.size();
    if (s.offered)
        s.goodput = static_cast<double>(inLimit) /
            static_cast<double>(s.offered);
    if (s.served) {
        s.firstP50Ms = percentile(first, 50.0);
        s.firstP99Ms = percentile(first, 99.0);
        s.doneP50Ms = percentile(done, 50.0);
        s.doneP99Ms = percentile(done, 99.0);
    }
    s.p99Supported = samplesBeyond(s.served, 99.0) >= kSamplesBeyond;
    return s;
}

} // namespace perfbench
