/**
 * @file
 * Negative cases for tools/metrics_check. One batch decode plus one
 * small serve workload (adaptive-beam selector, pipelined scoring, a
 * session journal, an armed fault plan) register every namespace the
 * checker validates: fault.*, store.*, decode.trace.*, dnn.kernel.*,
 * dnn.cache.*, decode.selector.* and serve.*. Their snapshot must
 * pass. Each mutation of it (a missing member, a wrong unit or
 * determinism flag, an unknown name, a broken ledger identity, a bad
 * fault.injected.<probe> entry, --expect-faults without faults) must
 * be rejected with exit status 1 and a message naming the metric, and
 * validateMetricsJson must report it. Every catalog row and ledger
 * identity is also broken one at a time in process, and the metric
 * tables of docs/METRICS.md must list exactly the catalog's rows.
 *
 * The checker binary defaults to the one built with this tree; set
 * DARKSIDE_METRICS_CHECK to run the same cases against another build.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "mini_setup.hh"
#include "serve/serve_bench.hh"
#include "serve/serve_checkpoint.hh"
#include "metrics_validate.hh"
#include "system/defaults.hh"
#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"

namespace darkside {
namespace {

#ifndef DS_METRICS_CHECK
#error "DS_METRICS_CHECK must name the metrics_check binary"
#endif
#ifndef DS_METRICS_DOC
#error "DS_METRICS_DOC must point at docs/METRICS.md"
#endif

using telemetry::CounterSample;
using telemetry::HistogramSample;
using telemetry::LedgerIdentity;
using telemetry::MetricDef;
using telemetry::MetricKind;
using telemetry::Snapshot;

/** Per-process scratch directory, removed at exit. */
const std::string &
scratchDir()
{
    static const struct Dir
    {
        Dir()
            : path((std::filesystem::temp_directory_path() /
                    ("darkside_metrics_check_" +
                     std::to_string(::getpid())))
                       .string())
        {
            std::filesystem::remove_all(path);
            std::filesystem::create_directories(path);
        }
        ~Dir() { std::filesystem::remove_all(path); }
        std::string path;
    } dir;
    return dir.path;
}

/** The global registry after one workload that touches every checked
 *  namespace. */
const Snapshot &
liveSnapshot()
{
    static const Snapshot snap = [] {
        ExperimentContext ctx(miniSetup());
        const std::string run_dir = scratchDir() + "/run";
        ServeCheckpoint checkpoint(run_dir);

        FaultPlan plan;
        plan.seed = 1;
        FaultRule drop;
        drop.probe = "serve.admit_drop";
        drop.kind = FaultKind::AllocFail;
        drop.failCount = 1;
        plan.rules.push_back(drop);
        ScopedFaultPlan armed(plan);

        ServeWorkloadOptions options;
        options.serve.system = ctx.setup.configFor(
            SearchMode::AdaptiveBeam, PruneLevel::P90);
        options.serve.chunkFrames = 6;
        options.serve.threads = 0;
        options.serve.admission.maxSessions = 64;
        options.traffic.sessions = 6;
        options.traffic.arrivalsPerSecond = 1000.0;
        options.paceArrivals = false;
        options.checkpoint = &checkpoint;
        // Batch decode registers decode.trace.*; serving the rest.
        ctx.system.runTestSet(ctx.testSet, options.serve.system);
        publishServeGauges(
            runServeWorkload(ctx.system, ctx.testSet, options));
        return telemetry::MetricRegistry::global().snapshot();
    }();
    return snap;
}

template <class Sample>
Sample &
sample(std::vector<Sample> &section, const std::string &name)
{
    for (Sample &s : section) {
        if (s.name == name)
            return s;
    }
    ADD_FAILURE() << "live snapshot lacks '" << name << "'";
    static Sample none;
    return none;
}

template <class Sample>
void
erase(std::vector<Sample> &section, const std::string &name)
{
    sample(section, name); // must have been there
    std::erase_if(section,
                  [&](const Sample &s) { return s.name == name; });
}

/** `snap` as the exporter writes it (sorted by name). */
std::string
jsonOf(const Snapshot &snap)
{
    Snapshot sorted = snap;
    sorted.sortByName();
    return sorted.toJson();
}

/** Problems validateMetricsJson finds in `snap`. */
std::vector<std::string>
problemsOf(const Snapshot &snap, bool expect_faults = false)
{
    return validateMetricsJson(jsonOf(snap), expect_faults);
}

bool
mentions(const std::vector<std::string> &problems,
         const std::string &needle)
{
    for (const std::string &p : problems) {
        if (p.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

/** Exit status of the checker over the document `text` written to a
 *  file; its stderr lands in `*output` when given. */
int
runChecker(const std::string &text, bool expect_faults,
           const std::string &label, std::string *output = nullptr)
{
    std::string stem = label;
    for (char &c : stem) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    const std::string json = scratchDir() + "/" + stem + ".json";
    const std::string log = scratchDir() + "/" + stem + ".log";
    std::ofstream(json) << text;

    const char *env = std::getenv("DARKSIDE_METRICS_CHECK");
    const std::string checker = env && *env ? env : DS_METRICS_CHECK;
    const std::string cmd = "'" + checker + "' " +
        (expect_faults ? "--expect-faults " : "") + "'" + json +
        "' > /dev/null 2> '" + log + "'";
    const int status = std::system(cmd.c_str());
    if (output) {
        std::ifstream is(log);
        output->assign(std::istreambuf_iterator<char>(is), {});
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** One mutated snapshot; the rejection must mention `needle`. */
struct Mutation
{
    std::string label;
    std::string needle;
    std::function<void(Snapshot &)> apply;
    bool expectFaults = false;
};

void
expectAllRejected(const std::vector<Mutation> &cases)
{
    for (const Mutation &m : cases) {
        Snapshot snap = liveSnapshot();
        m.apply(snap);
        std::string output;
        EXPECT_EQ(
            runChecker(jsonOf(snap), m.expectFaults, m.label, &output), 1)
            << m.label << " was not rejected";
        EXPECT_NE(output.find(m.needle), std::string::npos)
            << m.label << ": '" << m.needle << "' not in:\n" << output;
        EXPECT_TRUE(mentions(problemsOf(snap, m.expectFaults), m.needle))
            << m.label << " was not reported in process";
    }
}

Mutation
missing(const std::string &name)
{
    return {"missing " + name, name, [name](Snapshot &s) {
                if (s.findHistogram(name))
                    erase(s.histograms, name);
                else if (s.findGauge(name))
                    erase(s.gauges, name);
                else
                    erase(s.counters, name);
            }};
}

Mutation
wrongUnit(const std::string &name)
{
    return {"unit " + name, name, [name](Snapshot &s) {
                if (s.findHistogram(name))
                    sample(s.histograms, name).unit = "bogus";
                else if (s.findGauge(name))
                    sample(s.gauges, name).unit = "bogus";
                else
                    sample(s.counters, name).unit = "bogus";
            }};
}

Mutation
wrongFlag(const std::string &name)
{
    return {"flag " + name, name, [name](Snapshot &s) {
                if (s.findHistogram(name)) {
                    auto &h = sample(s.histograms, name);
                    h.deterministic = !h.deterministic;
                } else {
                    auto &c = sample(s.counters, name);
                    c.deterministic = !c.deterministic;
                }
            }};
}

Mutation
unknownCounter(const std::string &name)
{
    return {"unknown counter " + name, name, [name](Snapshot &s) {
                s.counters.push_back({name, "calls", true, 0});
            }};
}

/** Counter `counter` one higher; the identity names `needle`. */
Mutation
bump(const std::string &counter, const std::string &needle)
{
    return {"bump " + counter, needle, [counter](Snapshot &s) {
                sample(s.counters, counter).value += 1;
            }};
}

/** Counter `name` set to one more than counter `bound`. */
Mutation
exceed(const std::string &name, const std::string &bound)
{
    return {name + " exceeds " + bound, name, [name, bound](Snapshot &s) {
                sample(s.counters, name).value =
                    sample(s.counters, bound).value + 1;
            }};
}

// ---------------------------------------------------------------------

TEST(MetricsCheck, LiveSnapshotCoversEveryCatalogRow)
{
    // Each namespace is present, so the clean pass below holds every
    // row to its kind, unit, flag and geometry.
    const Snapshot &snap = liveSnapshot();
    for (const MetricDef &m : telemetry::kMetricCatalog) {
        const bool found = snap.findCounter(m.name) ||
            snap.findGauge(m.name) || snap.findHistogram(m.name);
        EXPECT_TRUE(found) << m.name;
    }
    const CounterSample *injected = snap.findCounter("fault.injected");
    ASSERT_NE(injected, nullptr);
    EXPECT_GT(injected->value, 0u);
}

TEST(MetricsCheck, CleanSnapshotsPass)
{
    const std::string live = jsonOf(liveSnapshot());
    EXPECT_EQ(runChecker(live, false, "clean"), 0);
    EXPECT_EQ(runChecker(live, true, "clean expect faults"), 0);
    // Without the serve workload's namespaces a snapshot is still
    // valid: every namespace rule is conditional on presence.
    const Snapshot bare = liveSnapshot().withoutPrefixes(
        {"fault.", "store.", "decode.", "dnn.", "serve."});
    EXPECT_EQ(runChecker(jsonOf(bare), false, "clean bare"), 0);

    for (const Snapshot *snap : {&liveSnapshot(), &bare}) {
        const auto problems = problemsOf(*snap);
        EXPECT_TRUE(problems.empty()) << problems.front();
    }
    EXPECT_TRUE(problemsOf(liveSnapshot(), true).empty());
}

TEST(MetricsCheck, MalformedDocumentsAreRejected)
{
    const std::string base =
        R"({"schema": "darkside-metrics-v1", "counters": [)"
        R"({"name": "a.x", "unit": "u", "deterministic": true, "value": 1},)"
        R"({"name": "a.y", "unit": "u", "deterministic": true, "value": 2})"
        R"(], "gauges": [], "histograms": [)"
        R"({"name": "a.h", "unit": "u", "deterministic": true, "lo": 0,)"
        R"( "hi": 1, "count": 1, "underflow": 0, "overflow": 0,)"
        R"( "min": 0.5, "max": 0.5, "buckets": [1]}]})";
    EXPECT_EQ(runChecker(base, false, "malformed base"), 0);
    EXPECT_TRUE(validateMetricsJson(base, false).empty());

    const auto with = [&](const std::string &from, const std::string &to) {
        std::string text = base;
        const auto at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    const std::pair<std::string, std::string> cases[] = {
        {"truncated", base.substr(0, base.size() / 2)},
        {"array", "[]"},
        {"schema", with("metrics-v1", "metrics-v2")},
        {"no gauges", with(R"("gauges": [], )", "")},
        {"extra member", with(R"("gauges": [], )",
                              R"("gauges": [], "extra": 1, )")},
        {"counter unit", with(R"("unit": "u", )", "")},
        {"negative value", with(R"("value": 1)", R"("value": -1)")},
        {"unsorted", with(R"("a.y")", R"("a.a")")},
        {"lo >= hi", with(R"("hi": 1)", R"("hi": 0)")},
        {"count", with(R"("count": 1)", R"("count": 2)")},
        {"bucket", with(R"("buckets": [1])", R"("buckets": [0.5])")},
        {"min > max", with(R"("min": 0.5)", R"("min": 0.7)")},
    };
    for (const auto &[label, text] : cases) {
        EXPECT_EQ(runChecker(text, false, "malformed " + label), 1)
            << label;
        EXPECT_FALSE(validateMetricsJson(text, false).empty()) << label;
    }
}

TEST(MetricsCheck, MissingMembersAreRejected)
{
    expectAllRejected({
        missing("fault.retried"),
        missing("store.writes"),
        missing("decode.trace.gc_runs"),
        missing("dnn.kernel.spmv_rows"),
        missing("dnn.cache.evict"),
        missing("decode.selector.cap_hits"),
        missing("decode.selector.entropy"),
        missing("serve.frames"),
        missing("serve.drain.resumed_sessions"),
        missing("serve.ttfp_us"),
    });
}

TEST(MetricsCheck, WrongUnitsAreRejected)
{
    expectAllRejected({
        wrongUnit("fault.degraded"),
        wrongUnit("store.resumed_units"),
        wrongUnit("decode.trace.collected"),
        wrongUnit("decode.trace.peak_live"),
        wrongUnit("dnn.kernel.dispatch.scalar"),
        wrongUnit("dnn.cache.insert"),
        wrongUnit("decode.selector.threshold_hits"),
        wrongUnit("decode.selector.beam_width"),
        wrongUnit("serve.breaker.trips"),
        wrongUnit("serve.chunk_latency_us"),
        wrongUnit("serve.sessions_per_sec"),
        wrongUnit("serve.ttfp_p95_us"),
    });
}

TEST(MetricsCheck, WrongDeterminismFlagsAreRejected)
{
    expectAllRejected({
        wrongFlag("fault.recovered"),
        wrongFlag("store.quarantined"),
        wrongFlag("decode.trace.allocated"),
        wrongFlag("decode.trace.peak_live"),
        wrongFlag("dnn.kernel.dense_blocks"),
        wrongFlag("dnn.cache.hit"),
        wrongFlag("decode.selector.frames"),
        wrongFlag("decode.selector.survivors"),
        wrongFlag("serve.sessions.offered"),
        wrongFlag("serve.shed.queue"),
        wrongFlag("serve.drain.committed_units"),
        wrongFlag("serve.session_latency_us"),
    });
}

TEST(MetricsCheck, UnknownNamesInClosedNamespacesAreRejected)
{
    expectAllRejected({
        unknownCounter("dnn.kernel.dispatch.neon"),
        unknownCounter("dnn.cache.prefetch"),
        unknownCounter("decode.selector.resets"),
        unknownCounter("serve.sessions.lost"),
        unknownCounter("store.compactions"),
        unknownCounter("decode.trace.freed"),
        unknownCounter("fault.escalated"),
        {"unknown histogram decode.selector.margin",
         "decode.selector.margin",
         [](Snapshot &s) {
             HistogramSample h =
                 sample(s.histograms, "decode.selector.entropy");
             h.name = "decode.selector.margin";
             s.histograms.push_back(h);
         }},
        {"unknown histogram serve.queue_wait_us", "serve.queue_wait_us",
         [](Snapshot &s) {
             HistogramSample h = sample(s.histograms, "serve.ttfp_us");
             h.name = "serve.queue_wait_us";
             s.histograms.push_back(h);
         }},
        {"unknown gauge serve.chunk_p90_us", "serve.chunk_p90_us",
         [](Snapshot &s) {
             s.gauges.push_back({"serve.chunk_p90_us", "us", 1.0});
         }},
    });
}

TEST(MetricsCheck, BrokenIdentitiesAreRejected)
{
    expectAllRejected({
        bump("dnn.cache.hit", "dnn.cache.lookup"),
        exceed("dnn.cache.insert", "dnn.cache.miss"),
        exceed("dnn.cache.evict", "dnn.cache.insert"),
        exceed("decode.trace.collected", "decode.trace.allocated"),
        bump("serve.sessions.offered", "serve.sessions.offered"),
        bump("serve.sessions.completed", "serve.sessions.admitted"),
        bump("serve.shed.queue", "serve.sessions.shed"),
        bump("serve.chunks", "serve.chunks"),
        bump("fault.injected", "fault.injected"),
    });
}

TEST(MetricsCheck, BadFaultProbeEntriesAreRejected)
{
    expectAllRejected({
        {"unknown probe", "fault.injected.no.such_probe",
         [](Snapshot &s) {
             s.counters.push_back(
                 {"fault.injected.no.such_probe", "faults", true, 0});
         }},
        {"probe unit", "fault.injected.serve.admit_drop",
         [](Snapshot &s) {
             sample(s.counters, "fault.injected.serve.admit_drop").unit =
                 "calls";
         }},
        {"probe flag", "fault.injected.serve.admit_drop",
         [](Snapshot &s) {
             auto &c =
                 sample(s.counters, "fault.injected.serve.admit_drop");
             c.deterministic = !c.deterministic;
         }},
    });
}

TEST(MetricsCheck, ExpectFaultsRejectsFaultFreeSnapshots)
{
    expectAllRejected({
        {"expect faults without fault counters", "--expect-faults",
         [](Snapshot &s) { s = s.withoutPrefixes({"fault."}); }, true},
        {"expect faults with zero injected", "--expect-faults",
         [](Snapshot &s) {
             sample(s.counters, "fault.injected").value = 0;
             sample(s.counters, "fault.injected.serve.admit_drop")
                 .value = 0;
         },
         true},
    });
}

TEST(MetricsCheck, EveryCatalogRowIsEnforced)
{
    for (const MetricDef &m : telemetry::kMetricCatalog) {
        const std::string name = m.name;
        std::vector<Mutation> cases = {missing(name), wrongUnit(name)};
        if (m.kind != MetricKind::Gauge)
            cases.push_back(wrongFlag(name));
        if (m.kind == MetricKind::Histogram) {
            cases.push_back({"geometry " + name, name, [name](Snapshot &s) {
                                 sample(s.histograms, name).hi *= 2.0;
                             }});
        }
        for (const Mutation &c : cases) {
            Snapshot snap = liveSnapshot();
            c.apply(snap);
            EXPECT_TRUE(mentions(problemsOf(snap), name)) << c.label;
        }
    }
}

TEST(MetricsCheck, EveryLedgerIdentityIsEnforced)
{
    for (const LedgerIdentity &id : telemetry::kLedgerIdentities) {
        Snapshot snap = liveSnapshot();
        auto &total = sample(snap.counters, id.total);
        if (id.kind == LedgerIdentity::Kind::AtMost)
            sample(snap.counters, id.parts[0]).value = total.value + 1;
        else
            total.value += 1;
        EXPECT_TRUE(mentions(problemsOf(snap), id.total)) << id.total;
    }
}

/** {name, kind, unit} of every catalogued metric, as text. */
std::set<std::string>
catalogRows()
{
    std::set<std::string> rows;
    for (const MetricDef &m : telemetry::kMetricCatalog) {
        rows.insert(std::string(m.name) + " | " +
                    telemetry::metricKindName(m.kind) + " | " + m.unit);
    }
    return rows;
}

/**
 * {name, kind, unit} of every docs/METRICS.md table row in a catalog
 * namespace. Templated names (fault.injected.<probe>) are families
 * the catalog does not list.
 */
std::set<std::string>
documentedRows()
{
    std::ifstream is(DS_METRICS_DOC);
    EXPECT_TRUE(is.good()) << DS_METRICS_DOC;
    std::set<std::string> rows;
    std::string line;
    while (std::getline(is, line)) {
        if (!line.starts_with("| `"))
            continue;
        std::vector<std::string> cells;
        std::istringstream cols(line.substr(1));
        std::string cell;
        while (std::getline(cols, cell, '|')) {
            const auto first = cell.find_first_not_of(' ');
            const auto last = cell.find_last_not_of(' ');
            cells.push_back(first == std::string::npos
                                ? std::string()
                                : cell.substr(first, last - first + 1));
        }
        if (cells.size() < 3 || cells[0].size() < 2)
            continue;
        const std::string name = cells[0].substr(1, cells[0].size() - 2);
        bool in_catalog = false;
        for (std::string_view ns : telemetry::kCatalogNamespaces)
            in_catalog |= name.starts_with(ns);
        if (!in_catalog || name.find('<') != std::string::npos)
            continue;
        rows.insert(name + " | " + cells[1] + " | " + cells[2]);
    }
    return rows;
}

TEST(MetricCatalog, DocsTablesListExactlyTheCatalog)
{
    const std::set<std::string> catalog = catalogRows();
    const std::set<std::string> documented = documentedRows();
    for (const std::string &row : catalog)
        EXPECT_TRUE(documented.count(row)) << "undocumented: " << row;
    for (const std::string &row : documented)
        EXPECT_TRUE(catalog.count(row)) << "not in the catalog: " << row;
}

} // namespace
} // namespace darkside
