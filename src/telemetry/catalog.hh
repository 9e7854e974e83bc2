/**
 * @file
 * The metric catalog: the one declaration of every metric in the
 * namespaces whose shape `tools/metrics_check` enforces — fault.*,
 * store.*, decode.trace.*, dnn.kernel.*, dnn.cache.*, decode.selector.*
 * and serve.* — and of the ledger identities that tie their values
 * together.
 *
 * A row gives a metric's kind, name, unit, determinism flag and (for
 * histograms) bucket geometry. Registration sites look rows up by name
 * at compile time (`reg.counter(metric("store.writes"))`), so a name
 * that is not catalogued does not compile and no site restates a
 * unit, flag or spec. checkCatalog() applies one rule to every
 * namespace of a snapshot; docs/METRICS.md lists the same rows, which
 * a test keeps in step.
 */

#ifndef DARKSIDE_TELEMETRY_CATALOG_HH
#define DARKSIDE_TELEMETRY_CATALOG_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hh"

namespace darkside {
namespace telemetry {

struct Snapshot;

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/** "counter", "gauge" or "histogram". */
const char *metricKindName(MetricKind kind);

/** One catalogued metric. */
struct MetricDef
{
    MetricKind kind = MetricKind::Counter;
    const char *name = "";
    const char *unit = "";
    /** False for values that vary run to run; gauges are always
     *  deterministic by contract. */
    bool deterministic = true;
    /** Bucket geometry (histograms only). */
    HistogramSpec spec{};
};

/**
 * A ledger identity over catalogued metrics:
 *  - SumEquals:      sum(parts) == total
 *  - AtMost:         parts[0] <= total
 *  - HistogramCount: count of histogram parts[0] == counter total
 * Unused trailing parts are null.
 */
struct LedgerIdentity
{
    enum class Kind : std::uint8_t { SumEquals, AtMost, HistogramCount };

    Kind kind = Kind::SumEquals;
    const char *total = "";
    std::array<const char *, 6> parts{};
};

namespace rows {

constexpr bool kRunDependent = false;

constexpr MetricDef
counter(const char *name, const char *unit, bool deterministic = true)
{
    return {MetricKind::Counter, name, unit, deterministic, {}};
}

constexpr MetricDef
gauge(const char *name, const char *unit)
{
    return {MetricKind::Gauge, name, unit, true, {}};
}

constexpr MetricDef
histogram(const char *name, const char *unit, HistogramSpec spec,
          bool deterministic = true)
{
    return {MetricKind::Histogram, name, unit, deterministic, spec};
}

} // namespace rows

/** The checked namespaces; every catalog row lies in exactly one. */
inline constexpr std::string_view kCatalogNamespaces[] = {
    "fault.",     "store.",           "decode.trace.", "dnn.kernel.",
    "dnn.cache.", "decode.selector.", "serve.",
};

/**
 * Per-probe fault counters (`fault.injected.<probe>`, unit and flag of
 * their probe). They are validated against the probe registry by
 * metrics_check, not by the catalog.
 */
inline constexpr std::string_view kFaultProbeFamily = "fault.injected.";

inline constexpr MetricDef kMetricCatalog[] = {
    // fault.*: outcome counters, registered when a plan is armed
    // (docs/FAULTS.md). fault.injected counts deterministic probes.
    rows::counter("fault.injected", "faults"),
    rows::counter("fault.retried", "attempts"),
    rows::counter("fault.recovered", "operations"),
    rows::counter("fault.degraded", "utterances"),

    // store.*: artifact-store outcomes (docs/STORE.md).
    rows::counter("store.writes", "artifacts"),
    rows::counter("store.write_failures", "artifacts"),
    rows::counter("store.verified_reads", "artifacts"),
    rows::counter("store.quarantined", "artifacts"),
    rows::counter("store.resumed_units", "units"),

    // decode.trace.*: backpointer-arena lifetime (SearchTelemetry).
    rows::counter("decode.trace.allocated", "nodes"),
    rows::counter("decode.trace.collected", "nodes"),
    rows::counter("decode.trace.gc_runs", "collections"),
    rows::histogram("decode.trace.peak_live", "nodes", {0.0, 32768.0, 64}),

    // dnn.kernel.*: kernel dispatch and shape-derived work items.
    rows::counter("dnn.kernel.dispatch.scalar", "calls"),
    rows::counter("dnn.kernel.dispatch.avx2", "calls"),
    rows::counter("dnn.kernel.dense_blocks", "blocks"),
    rows::counter("dnn.kernel.spmv_rows", "rows"),

    // dnn.cache.*: sharded score cache; shards race, so every count
    // is run-dependent.
    rows::counter("dnn.cache.lookup", "lookups", rows::kRunDependent),
    rows::counter("dnn.cache.hit", "lookups", rows::kRunDependent),
    rows::counter("dnn.cache.miss", "lookups", rows::kRunDependent),
    rows::counter("dnn.cache.insert", "entries", rows::kRunDependent),
    rows::counter("dnn.cache.evict", "entries", rows::kRunDependent),

    // decode.selector.*: frame-adaptive selectors, one publish per
    // closed frame.
    rows::counter("decode.selector.frames", "frames"),
    rows::counter("decode.selector.threshold_hits", "hypotheses"),
    rows::counter("decode.selector.cap_hits", "hypotheses"),
    rows::histogram("decode.selector.beam_width", "logcost",
                    {0.0, 20.0, 40}),
    rows::histogram("decode.selector.survivors", "hypotheses",
                    {0.0, 2048.0, 32}),
    rows::histogram("decode.selector.entropy", "ratio", {0.0, 1.0, 20}),

    // serve.*: streaming server (docs/SERVING.md). Only the offered
    // count and the drain/journal family are deterministic.
    rows::counter("serve.sessions.offered", "sessions"),
    rows::counter("serve.sessions.admitted", "sessions",
                  rows::kRunDependent),
    rows::counter("serve.sessions.shed", "sessions", rows::kRunDependent),
    rows::counter("serve.sessions.completed", "sessions",
                  rows::kRunDependent),
    rows::counter("serve.sessions.degraded", "sessions",
                  rows::kRunDependent),
    rows::counter("serve.chunks", "chunks", rows::kRunDependent),
    rows::counter("serve.frames", "frames", rows::kRunDependent),
    rows::counter("serve.shed.queue", "sessions", rows::kRunDependent),
    rows::counter("serve.shed.deadline", "sessions", rows::kRunDependent),
    rows::counter("serve.shed.length", "sessions", rows::kRunDependent),
    rows::counter("serve.shed.breaker", "sessions", rows::kRunDependent),
    rows::counter("serve.shed.injected", "sessions", rows::kRunDependent),
    rows::counter("serve.breaker.trips", "trips", rows::kRunDependent),
    rows::counter("serve.breaker.half_opens", "probes",
                  rows::kRunDependent),
    rows::counter("serve.drain.requested", "drains"),
    rows::counter("serve.drain.refused", "sessions"),
    rows::counter("serve.drain.committed_units", "units"),
    rows::counter("serve.drain.resumed_sessions", "sessions"),
    rows::histogram("serve.chunk_latency_us", "us", {0.0, 20000.0, 50},
                    rows::kRunDependent),
    rows::histogram("serve.session_latency_us", "us",
                    {0.0, 2000000.0, 50}, rows::kRunDependent),
    rows::histogram("serve.ttfp_us", "us", {0.0, 2000000.0, 50},
                    rows::kRunDependent),
    rows::gauge("serve.chunk_p50_us", "us"),
    rows::gauge("serve.chunk_p95_us", "us"),
    rows::gauge("serve.chunk_p99_us", "us"),
    rows::gauge("serve.sessions_per_sec", "sessions/s"),
    rows::gauge("serve.ttfp_p50_us", "us"),
    rows::gauge("serve.ttfp_p95_us", "us"),
};

inline constexpr LedgerIdentity kLedgerIdentities[] = {
    {LedgerIdentity::Kind::SumEquals,
     "dnn.cache.lookup",
     {"dnn.cache.hit", "dnn.cache.miss"}},
    {LedgerIdentity::Kind::AtMost,
     "dnn.cache.miss",
     {"dnn.cache.insert"}},
    {LedgerIdentity::Kind::AtMost,
     "dnn.cache.insert",
     {"dnn.cache.evict"}},
    {LedgerIdentity::Kind::AtMost,
     "decode.trace.allocated",
     {"decode.trace.collected"}},
    {LedgerIdentity::Kind::SumEquals,
     "serve.sessions.offered",
     {"serve.sessions.admitted", "serve.sessions.shed"}},
    {LedgerIdentity::Kind::SumEquals,
     "serve.sessions.admitted",
     {"serve.sessions.completed", "serve.sessions.degraded"}},
    {LedgerIdentity::Kind::SumEquals,
     "serve.sessions.shed",
     {"serve.shed.queue", "serve.shed.deadline", "serve.shed.length",
      "serve.shed.breaker", "serve.shed.injected",
      "serve.drain.refused"}},
    {LedgerIdentity::Kind::HistogramCount,
     "serve.chunks",
     {"serve.chunk_latency_us"}},
};

/** The catalog row named `name`; a name that is not catalogued is a
 *  compile error. */
consteval const MetricDef &
metric(std::string_view name)
{
    for (const MetricDef &m : kMetricCatalog) {
        if (name == m.name)
            return m;
    }
    throw "metric is not in the catalog";
}

/**
 * Problems of `snap` against the catalog, one message each. For every
 * namespace with any name present in any section: each row must be
 * present with its kind, unit, determinism flag and histogram
 * geometry; any other name in the namespace is unknown (the
 * fault.injected.<probe> family excepted); and every identity whose
 * metrics are all present must hold.
 */
std::vector<std::string> checkCatalog(const Snapshot &snap);

} // namespace telemetry
} // namespace darkside

#endif // DARKSIDE_TELEMETRY_CATALOG_HH
