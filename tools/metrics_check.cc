/**
 * @file
 * metrics_check — validator for darkside-metrics-v1 JSON files (the
 * --metrics output of the CLI and the benches). CI runs it over
 * freshly produced snapshots so an exporter regression fails the build
 * rather than silently producing unreadable artefacts.
 *
 * Checks, per file (validateMetricsJson, tools/metrics_validate.hh):
 *   - the schema and section shapes: a "darkside-metrics-v1" object
 *     with sorted, typed counters/gauges/histograms and consistent
 *     histogram counts
 *   - the metric catalog (src/telemetry/catalog.hh), one rule for
 *     every namespace it declares: once any name of a namespace is
 *     present, every catalogued member must be, with its kind, unit,
 *     determinism flag and histogram geometry; an undeclared name in
 *     the namespace fails; and every ledger identity must hold
 *   - every fault.injected.<probe> names a registered probe with its
 *     determinism flag, and fault.injected sums the deterministic ones
 *
 * With --expect-faults, a file whose fault.injected.* total is zero
 * (or absent) fails — CI uses this to prove a fault plan actually
 * fired.
 *
 * With --diff, two snapshots are compared instead of validated: every
 * deterministic counter and histogram, and every gauge, must match
 * exactly after dropping metrics whose name starts with an --ignore
 * prefix. CI uses this to prove a killed-and-resumed sweep reproduced
 * an uninterrupted run's aggregates bit-identically.
 *
 * usage: metrics_check [--expect-faults] <file.json> [more.json ...]
 *        metrics_check --diff <a.json> <b.json> [--ignore p1,p2,...]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "metrics_validate.hh"
#include "telemetry/snapshot.hh"

namespace {

int failures = 0;
const char *current_file = "";

void
fail(const std::string &what)
{
    std::fprintf(stderr, "%s: %s\n", current_file, what.c_str());
    ++failures;
}

void
checkFile(const char *path, bool expect_faults)
{
    current_file = path;
    std::ifstream is(path);
    if (!is) {
        fail("cannot open");
        return;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    for (const std::string &problem :
         darkside::validateMetricsJson(buf.str(), expect_faults))
        fail(problem);
}

// --- --diff mode --------------------------------------------------------

bool
loadSnapshot(const char *path,
             const std::vector<std::string> &ignore,
             darkside::telemetry::Snapshot &out,
             darkside::telemetry::Snapshot *raw = nullptr)
{
    current_file = path;
    std::ifstream is(path);
    if (!is) {
        fail("cannot open");
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    auto parsed = darkside::telemetry::Snapshot::parseJson(buf.str());
    if (!parsed.isOk()) {
        fail(parsed.message());
        return false;
    }
    // Deterministic metrics and gauges are the reproducibility
    // contract; non-deterministic ones (wall time, cache races) are
    // expected to differ between any two runs.
    if (raw)
        *raw = parsed.value();
    out = parsed.take().deterministic().withoutPrefixes(ignore);
    return true;
}

/**
 * Report every `kind` sample present in only one section, or whose
 * `difference` (empty when equal) is non-empty.
 * @return how many names both sections hold
 */
template <class Sample, class Difference>
std::size_t
compareSection(const std::string &kind, const std::vector<Sample> &a,
               const std::vector<Sample> &b, Difference difference,
               const std::function<void(const std::string &)> &note)
{
    std::map<std::string, const Sample *> only_a;
    for (const Sample &s : a)
        only_a[s.name] = &s;
    std::size_t compared = 0;
    for (const Sample &s : b) {
        auto it = only_a.find(s.name);
        if (it == only_a.end()) {
            note(kind + " '" + s.name + "' only in second file");
            continue;
        }
        const std::string what = difference(*it->second, s);
        if (!what.empty())
            note(kind + " '" + s.name + "'" + what);
        only_a.erase(it);
        ++compared;
    }
    for (const auto &[name, s] : only_a)
        note(kind + " '" + name + "' only in first file");
    return compared;
}

int
diffSnapshots(const char *path_a, const char *path_b,
              const std::vector<std::string> &ignore,
              const std::vector<std::string> &require)
{
    namespace dt = darkside::telemetry;
    dt::Snapshot a, b, raw_a, raw_b;
    if (!loadSnapshot(path_a, ignore, a, &raw_a) ||
        !loadSnapshot(path_b, ignore, b, &raw_b))
        return 1;
    current_file = path_b;

    const auto note = [&](const std::string &what) {
        fail(std::string("differs from ") + path_a + ": " + what);
    };
    const auto value_differs = [](const auto &x, const auto &y) {
        return x.value == y.value ? std::string()
                                  : ": " + std::to_string(x.value) +
                                        " != " + std::to_string(y.value);
    };

    // --require: counters matching these prefixes must match exactly
    // even when flagged non-deterministic — the resume acceptance uses
    // it for the serve session ledger, which replay reproduces
    // bit-identically although concurrency makes it nondet-flagged.
    // Compared on the raw snapshots, before the deterministic filter.
    if (!require.empty()) {
        const auto required = [&](const dt::Snapshot &raw) {
            std::vector<dt::CounterSample> out;
            for (const auto &c : raw.counters) {
                for (const auto &p : require) {
                    if (c.name.rfind(p, 0) == 0) {
                        out.push_back(c);
                        break;
                    }
                }
            }
            return out;
        };
        if (compareSection("required counter", required(raw_a),
                           required(raw_b), value_differs, note) == 0)
            note("no counter matched any --require prefix");
    }

    compareSection("counter", a.counters, b.counters, value_differs,
                   note);
    compareSection("gauge", a.gauges, b.gauges, value_differs, note);
    compareSection(
        "histogram", a.histograms, b.histograms,
        [](const dt::HistogramSample &o, const dt::HistogramSample &h) {
            const bool same = o.count == h.count &&
                o.underflow == h.underflow && o.overflow == h.overflow &&
                o.buckets == h.buckets && o.min == h.min &&
                o.max == h.max;
            return same ? std::string() : std::string(" differs");
        },
        note);

    if (failures > 0) {
        std::fprintf(stderr, "%d difference(s) found\n", failures);
        return 1;
    }
    std::printf("snapshots match (%zu counters, %zu gauges, "
                "%zu histograms compared)\n",
                b.counters.size(), b.gauges.size(),
                b.histograms.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--diff") == 0) {
        const auto split = [](const char *arg,
                              std::vector<std::string> &out) {
            std::string prefixes = arg;
            std::size_t start = 0;
            while (start <= prefixes.size()) {
                const std::size_t comma = prefixes.find(',', start);
                const std::string p = prefixes.substr(
                    start, comma == std::string::npos
                               ? std::string::npos
                               : comma - start);
                if (!p.empty())
                    out.push_back(p);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        };
        std::vector<std::string> ignore, require;
        bool usage_ok = argc >= 4;
        for (int i = 4; i < argc; i += 2) {
            if (i + 1 < argc && std::strcmp(argv[i], "--ignore") == 0)
                split(argv[i + 1], ignore);
            else if (i + 1 < argc &&
                     std::strcmp(argv[i], "--require") == 0)
                split(argv[i + 1], require);
            else
                usage_ok = false;
        }
        if (!usage_ok) {
            std::fprintf(stderr,
                         "usage: metrics_check --diff <a.json> "
                         "<b.json> [--ignore p1,p2,...] "
                         "[--require p1,p2,...]\n");
            return 2;
        }
        return diffSnapshots(argv[2], argv[3], ignore, require);
    }

    bool expect_faults = false;
    int first_file = 1;
    if (first_file < argc &&
        std::strcmp(argv[first_file], "--expect-faults") == 0) {
        expect_faults = true;
        ++first_file;
    }
    if (first_file >= argc) {
        std::fprintf(stderr,
                     "usage: metrics_check [--expect-faults] "
                     "<file.json> [...]\n"
                     "       metrics_check --diff <a.json> <b.json> "
                     "[--ignore p1,p2,...] [--require p1,p2,...]\n");
        return 2;
    }
    for (int i = first_file; i < argc; ++i)
        checkFile(argv[i], expect_faults);
    if (failures > 0) {
        std::fprintf(stderr, "%d problem(s) found\n", failures);
        return 1;
    }
    std::printf("%d file(s) OK\n", argc - first_file);
    return 0;
}
