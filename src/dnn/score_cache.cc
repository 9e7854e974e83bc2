#include "dnn/score_cache.hh"

#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"

namespace darkside {
namespace detail {

namespace {

/**
 * The five dnn.cache.* counters, registered together so the closed
 * family is always complete once any cache operation ran
 * (tools/metrics_check). Hit/miss totals depend on which thread
 * computes first, so the whole family is nondeterministic.
 */
struct Counters
{
    telemetry::Counter lookup;
    telemetry::Counter hit;
    telemetry::Counter miss;
    telemetry::Counter insert;
    telemetry::Counter evict;

    static const Counters &
    get()
    {
        static const Counters c = [] {
            auto &reg = telemetry::MetricRegistry::global();
            return Counters{
                reg.counter(telemetry::metric("dnn.cache.lookup")),
                reg.counter(telemetry::metric("dnn.cache.hit")),
                reg.counter(telemetry::metric("dnn.cache.miss")),
                reg.counter(telemetry::metric("dnn.cache.insert")),
                reg.counter(telemetry::metric("dnn.cache.evict")),
            };
        }();
        return c;
    }
};

} // namespace

void
DnnCacheMetrics::noteLookup(bool hit) const
{
    const Counters &c = Counters::get();
    c.lookup.add(1);
    (hit ? c.hit : c.miss).add(1);
}

void
DnnCacheMetrics::noteInsert() const
{
    Counters::get().insert.add(1);
}

void
DnnCacheMetrics::noteEvict() const
{
    Counters::get().evict.add(1);
}

const DnnCacheMetrics &
DnnCacheMetrics::get()
{
    static const DnnCacheMetrics m;
    Counters::get(); // register the namespace up front
    return m;
}

} // namespace detail
} // namespace darkside
