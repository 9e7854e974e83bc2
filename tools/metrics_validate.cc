#include "metrics_validate.hh"

#include "fault/fault.hh"
#include "telemetry/catalog.hh"
#include "telemetry/snapshot.hh"
#include "util/json.hh"

namespace darkside {

namespace {

using telemetry::CounterSample;
using telemetry::Snapshot;

/** Names of a section strictly increasing (so also unique). */
template <class Sample>
void
checkSorted(const char *section, const std::vector<Sample> &samples,
            std::vector<std::string> &problems)
{
    for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i].name <= samples[i - 1].name) {
            problems.push_back(std::string(section) +
                               ": names not sorted/unique at '" +
                               samples[i].name + "'");
        }
    }
}

/**
 * Every fault.injected.<probe> names a registered probe, with the
 * fault.injected unit and the registry's determinism flag, and
 * fault.injected is their sum over deterministic probes.
 */
void
checkFaultProbes(const Snapshot &snap, bool expect_faults,
                 std::vector<std::string> &problems)
{
    const telemetry::MetricDef &injected_def =
        telemetry::metric("fault.injected");
    const std::string prefix(telemetry::kFaultProbeFamily);
    bool any = false;
    bool sum_valid = true;
    std::uint64_t deterministic_sum = 0;
    std::uint64_t total = 0;
    for (const CounterSample &c : snap.counters) {
        if (!c.name.starts_with("fault."))
            continue;
        any = true;
        if (!c.name.starts_with(prefix))
            continue;
        const std::string probe_name = c.name.substr(prefix.size());
        const ProbePoint *probe = findProbe(probe_name);
        if (!probe) {
            problems.push_back(c.name + ": '" + probe_name +
                               "' is not a registered probe point");
            sum_valid = false;
            continue;
        }
        if (c.unit != injected_def.unit) {
            problems.push_back(c.name + ": unit '" + c.unit + "' != '" +
                               injected_def.unit + "'");
        }
        if (c.deterministic != probe->deterministic) {
            problems.push_back(c.name + ": determinism flag disagrees "
                                        "with the probe registry");
        }
        total += c.value;
        if (probe->deterministic)
            deterministic_sum += c.value;
    }
    if (!any) {
        if (expect_faults)
            problems.push_back(
                "--expect-faults: no fault.* counters present");
        return;
    }
    const CounterSample *injected = snap.findCounter(injected_def.name);
    if (sum_valid && injected && injected->value != deterministic_sum) {
        problems.push_back("fault.injected != sum of "
                           "fault.injected.<probe> over deterministic "
                           "probes");
    }
    if (expect_faults && total == 0)
        problems.push_back("--expect-faults: no faults were injected");
}

} // namespace

std::vector<std::string>
validateMetricsJson(const std::string &text, bool expect_faults)
{
    // The parser enforces the schema name and every entry's member
    // types, non-negative integers and histogram bucket sums.
    auto parsed = Snapshot::parseJson(text);
    if (!parsed.isOk())
        return {parsed.message()};
    const Snapshot &snap = parsed.value();

    std::vector<std::string> problems;
    const JsonValue root = JsonValue::parse(text);
    for (const auto &[key, value] : root.asObject()) {
        if (key != "schema" && key != "counters" && key != "gauges" &&
            key != "histograms") {
            problems.push_back("unexpected top-level member '" + key +
                               "'");
        }
    }
    checkSorted("counters", snap.counters, problems);
    checkSorted("gauges", snap.gauges, problems);
    checkSorted("histograms", snap.histograms, problems);
    for (const telemetry::HistogramSample &h : snap.histograms) {
        if (!(h.lo < h.hi))
            problems.push_back(h.name + ": lo must be < hi");
        if (h.count > 0 && h.min > h.max)
            problems.push_back(h.name + ": min > max with samples present");
    }

    for (std::string &problem : telemetry::checkCatalog(snap))
        problems.push_back(std::move(problem));
    checkFaultProbes(snap, expect_faults, problems);
    return problems;
}

} // namespace darkside
