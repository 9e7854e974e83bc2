#include "telemetry/catalog.hh"

#include <iterator>

#include "telemetry/snapshot.hh"

namespace darkside {
namespace telemetry {

namespace {

constexpr std::size_t kNoRow = std::size(kMetricCatalog);

/** Index of the row named `name`, kNoRow when there is none. (An index,
 *  not a pointer: g++ 12 cannot constant-fold a pointer null check
 *  under -fsanitize=undefined.) */
constexpr std::size_t
rowIndex(std::string_view name)
{
    for (std::size_t i = 0; i < kNoRow; ++i) {
        if (name == kMetricCatalog[i].name)
            return i;
    }
    return kNoRow;
}

/** Unique names, each in exactly one namespace; sane histograms. */
constexpr bool
rowsAreWellFormed()
{
    for (std::size_t i = 0; i < kNoRow; ++i) {
        const MetricDef &m = kMetricCatalog[i];
        if (rowIndex(m.name) != i)
            return false;
        int namespaces = 0;
        for (std::string_view ns : kCatalogNamespaces)
            namespaces += std::string_view(m.name).starts_with(ns);
        if (namespaces != 1)
            return false;
        if (m.kind == MetricKind::Histogram &&
            !(m.spec.lo < m.spec.hi && m.spec.buckets > 0))
            return false;
        if (m.kind == MetricKind::Gauge && !m.deterministic)
            return false;
    }
    return true;
}
static_assert(rowsAreWellFormed(),
              "catalog rows must be unique, in one namespace each");

/** Is `name` a catalogued metric of `kind`? */
constexpr bool
isRow(std::string_view name, MetricKind kind)
{
    const std::size_t i = rowIndex(name);
    return i != kNoRow && kMetricCatalog[i].kind == kind;
}

/** Identities relate catalogued counters (and one histogram count). */
constexpr bool
identitiesNameRows()
{
    for (const LedgerIdentity &id : kLedgerIdentities) {
        if (!isRow(id.total, MetricKind::Counter))
            return false;
        const MetricKind part_kind =
            id.kind == LedgerIdentity::Kind::HistogramCount
            ? MetricKind::Histogram
            : MetricKind::Counter;
        for (const char *part : id.parts) {
            if (!part)
                break;
            if (!isRow(part, part_kind))
                return false;
        }
    }
    return true;
}
static_assert(identitiesNameRows(),
              "ledger identities must name catalogued metrics");

std::string
flagText(bool deterministic)
{
    return deterministic ? "deterministic" : "non-deterministic";
}

void
checkRow(const Snapshot &snap, const MetricDef &m, std::string_view ns,
         std::vector<std::string> &problems)
{
    const std::string name = m.name;
    const auto missing = [&] {
        problems.push_back(std::string(ns) + "* present but " +
                           metricKindName(m.kind) + " '" + name +
                           "' is missing");
    };
    const auto unit = [&](const std::string &got) {
        if (got != m.unit) {
            problems.push_back(name + ": unit '" + got + "' != '" +
                               m.unit + "'");
        }
    };
    const auto flag = [&](bool got) {
        if (got != m.deterministic)
            problems.push_back(name + ": must be " +
                               flagText(m.deterministic));
    };

    switch (m.kind) {
    case MetricKind::Counter:
        if (const CounterSample *c = snap.findCounter(name)) {
            unit(c->unit);
            flag(c->deterministic);
        } else {
            missing();
        }
        break;
    case MetricKind::Gauge:
        if (const GaugeSample *g = snap.findGauge(name))
            unit(g->unit);
        else
            missing();
        break;
    case MetricKind::Histogram:
        if (const HistogramSample *h = snap.findHistogram(name)) {
            unit(h->unit);
            flag(h->deterministic);
            if (h->lo != m.spec.lo || h->hi != m.spec.hi ||
                h->buckets.size() != m.spec.buckets) {
                problems.push_back(name +
                                   ": bucket geometry differs from "
                                   "the catalog");
            }
        } else {
            missing();
        }
        break;
    }
}

void
checkIdentity(const Snapshot &snap, const LedgerIdentity &id,
              std::vector<std::string> &problems)
{
    const CounterSample *total = snap.findCounter(id.total);
    if (!total)
        return;
    const bool histogram =
        id.kind == LedgerIdentity::Kind::HistogramCount;
    std::uint64_t lhs = 0;
    std::string expr;
    for (const char *part : id.parts) {
        if (!part)
            break;
        const std::string name(part);
        if (histogram) {
            const HistogramSample *h = snap.findHistogram(name);
            if (!h)
                return;
            lhs += h->count;
        } else {
            const CounterSample *c = snap.findCounter(name);
            if (!c)
                return;
            lhs += c->value;
        }
        expr += (expr.empty() ? "" : " + ") + name;
    }
    const bool holds = id.kind == LedgerIdentity::Kind::AtMost
        ? lhs <= total->value
        : lhs == total->value;
    if (holds)
        return;
    const char *op = id.kind == LedgerIdentity::Kind::AtMost ? " > "
        : histogram                                          ? " count != "
                                                             : " != ";
    problems.push_back(expr + op + id.total);
}

} // namespace

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter:
        return "counter";
    case MetricKind::Gauge:
        return "gauge";
    case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

std::vector<std::string>
checkCatalog(const Snapshot &snap)
{
    std::vector<std::string> problems;

    struct Entry
    {
        MetricKind kind;
        const std::string *name;
    };
    std::vector<Entry> entries;
    for (const CounterSample &c : snap.counters)
        entries.push_back({MetricKind::Counter, &c.name});
    for (const GaugeSample &g : snap.gauges)
        entries.push_back({MetricKind::Gauge, &g.name});
    for (const HistogramSample &h : snap.histograms)
        entries.push_back({MetricKind::Histogram, &h.name});

    for (std::string_view ns : kCatalogNamespaces) {
        bool present = false;
        for (const Entry &e : entries) {
            if (!e.name->starts_with(ns))
                continue;
            present = true;
            if (e.kind == MetricKind::Counter &&
                e.name->starts_with(kFaultProbeFamily))
                continue;
            if (!isRow(*e.name, e.kind)) {
                problems.push_back(*e.name + ": unknown " +
                                   std::string(ns) + "* " +
                                   metricKindName(e.kind));
            }
        }
        if (!present)
            continue;
        for (const MetricDef &m : kMetricCatalog) {
            if (std::string_view(m.name).starts_with(ns))
                checkRow(snap, m, ns, problems);
        }
    }
    for (const LedgerIdentity &id : kLedgerIdentities)
        checkIdentity(snap, id, problems);
    return problems;
}

} // namespace telemetry
} // namespace darkside
