#include "store/checkpoint.hh"

#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"

namespace darkside {

std::string
RunCheckpoint::unitFileName(const std::string &unitId)
{
    std::string safe;
    safe.reserve(unitId.size());
    for (const char c : unitId) {
        const bool keep = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '-' || c == '.';
        safe += keep ? c : '_';
    }
    return "units/" + safe + ".bin";
}

void
RunCheckpoint::noteResumedUnit()
{
    // Registered alongside the other store.* counters by the store
    // itself; this only has to bump it.
    telemetry::MetricRegistry::global()
        .counter(telemetry::metric("store.resumed_units"))
        .add(1);
}

} // namespace darkside
