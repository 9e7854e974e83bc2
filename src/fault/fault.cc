#include "fault/fault.hh"

#include <fstream>
#include <sstream>

#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"
#include "util/bits.hh"
#include "util/json.hh"

namespace darkside {

namespace {

/** FNV-1a over a probe name; folded into the trigger hash coin. */
std::uint64_t
hashName(const char *name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char *p = name; *p; ++p) {
        h ^= static_cast<std::uint8_t>(*p);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The four always-registered outcome counters. */
struct FaultMetrics
{
    telemetry::Counter injected;
    telemetry::Counter retried;
    telemetry::Counter recovered;
    telemetry::Counter degraded;

    static const FaultMetrics &
    get()
    {
        static const FaultMetrics m = [] {
            auto &reg = telemetry::MetricRegistry::global();
            FaultMetrics fm;
            fm.injected = reg.counter(telemetry::metric("fault.injected"));
            fm.retried = reg.counter(telemetry::metric("fault.retried"));
            fm.recovered =
                reg.counter(telemetry::metric("fault.recovered"));
            fm.degraded = reg.counter(telemetry::metric("fault.degraded"));
            return fm;
        }();
        return m;
    }
};

} // namespace

std::uint64_t
faultKey(const std::string &text)
{
    return hashName(text.c_str());
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::ShortRead:
        return "short_read";
      case FaultKind::NanScores:
        return "nan_scores";
      case FaultKind::AllocFail:
        return "alloc_fail";
      case FaultKind::Timeout:
        return "timeout";
      case FaultKind::CorruptCache:
        return "corrupt_cache";
      case FaultKind::IoError:
        return "io_error";
    }
    return "?";
}

bool
faultKindFromName(const std::string &name, FaultKind *kind)
{
    for (FaultKind k :
         {FaultKind::ShortRead, FaultKind::NanScores, FaultKind::AllocFail,
          FaultKind::Timeout, FaultKind::CorruptCache,
          FaultKind::IoError}) {
        if (name == faultKindName(k)) {
            *kind = k;
            return true;
        }
    }
    return false;
}

const std::vector<ProbePoint> &
probeRegistry()
{
    // The probe-point contract (docs/FAULTS.md mirrors this table; the
    // fault-matrix suite iterates it). Keys, per probe:
    //   dnn.model_load   hash of the file path
    //   zoo.model_load   pruning level (0..3)
    //   corpus.splice    utterance id
    //   inference.scores utterance id
    //   system.score_cache utterance id (fires on cache hits)
    //   decoder.decode   utterance id
    //   pool.chunk       chunk begin index (worker-count dependent)
    //   store.torn_write   hash of the artifact's store-relative name
    //   store.fsync_fail   hash of the artifact's store-relative name
    //   store.rename_fail  hash of the artifact's store-relative name
    //   serve.admit_drop   utterance id
    //   serve.chunk_stall  utterance id
    //   serve.checkpoint_torn hash of the journal unit's
    //                         store-relative name
    static const std::vector<ProbePoint> registry = {
        {"dnn.model_load",
         {FaultKind::ShortRead},
         true,
         "tryLoad returns a Status error; load() stays fatal"},
        {"zoo.model_load",
         {FaultKind::ShortRead, FaultKind::CorruptCache},
         true,
         "cache load retried with backoff; persistent faults fall "
         "back to training"},
        {"corpus.splice",
         {FaultKind::ShortRead, FaultKind::AllocFail},
         true,
         "utterance degraded at the isolation boundary"},
        {"inference.scores",
         {FaultKind::NanScores, FaultKind::AllocFail},
         true,
         "NaN scores detected and the utterance degraded; allocation "
         "failure degraded at the isolation boundary"},
        {"system.score_cache",
         {FaultKind::CorruptCache},
         true,
         "hit entry discarded and recomputed (recovered)"},
        {"decoder.decode",
         {FaultKind::Timeout, FaultKind::AllocFail},
         true,
         "utterance degraded at the isolation boundary"},
        {"pool.chunk",
         {FaultKind::AllocFail, FaultKind::Timeout},
         false,
         "parallelFor finishes remaining chunks, then rethrows to the "
         "caller; the pool survives"},
        {"store.torn_write",
         {FaultKind::IoError},
         true,
         "payload silently truncated before commit; the next read "
         "fails CRC verification and quarantines the artifact"},
        {"store.fsync_fail",
         {FaultKind::IoError},
         true,
         "write returns a Status error; the temp file is removed and "
         "the final path is untouched"},
        {"store.rename_fail",
         {FaultKind::IoError},
         true,
         "commit returns a Status error; the temp file is removed and "
         "the final path is untouched"},
        {"serve.admit_drop",
         {FaultKind::AllocFail},
         true,
         "offer refused before admission and counted under "
         "serve.shed.injected; nothing runs"},
        {"serve.chunk_stall",
         {FaultKind::Timeout},
         true,
         "session degrades at the stalled chunk boundary; healthy "
         "neighbours unaffected"},
        {"serve.checkpoint_torn",
         {FaultKind::IoError},
         true,
         "committed journal unit truncated in place; the next load "
         "quarantines it and the session is recomputed"},
    };
    return registry;
}

const ProbePoint *
findProbe(const std::string &name)
{
    for (const ProbePoint &p : probeRegistry()) {
        if (name == p.name)
            return &p;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------

namespace {

/** Validate one parsed rule against the registry. */
Status
validateRule(const FaultRule &rule)
{
    const ProbePoint *probe = findProbe(rule.probe);
    if (!probe)
        return Status::error("unknown probe point '" + rule.probe + "'");
    bool supported = false;
    for (FaultKind k : probe->kinds)
        supported = supported || k == rule.kind;
    if (!supported) {
        return Status::error(std::string("probe '") + rule.probe +
                             "' does not support fault kind '" +
                             faultKindName(rule.kind) + "'");
    }
    const int schedules = (rule.keys.empty() ? 0 : 1) +
        (rule.every > 0 ? 1 : 0) + (rule.probability > 0.0 ? 1 : 0) +
        (rule.failCount > 0 ? 1 : 0);
    if (schedules > 1) {
        return Status::error("rule for '" + rule.probe +
                             "' has more than one trigger schedule");
    }
    if (rule.probability < 0.0 || rule.probability > 1.0)
        return Status::error("probability must be in [0, 1]");
    return Status::ok();
}

} // namespace

Result<FaultPlan>
FaultPlan::parseJson(const std::string &text)
{
    std::string error;
    const JsonValue root = JsonValue::parse(text, &error);
    if (!error.empty())
        return Status::error("fault plan: " + error);
    if (!root.isObject())
        return Status::error("fault plan: top level is not an object");

    const JsonValue *schema = root.member("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != "darkside-fault-plan-v1") {
        return Status::error(
            "fault plan: schema is not \"darkside-fault-plan-v1\"");
    }

    FaultPlan plan;
    if (const JsonValue *seed = root.member("seed")) {
        if (!seed->isNonNegativeInteger())
            return Status::error("fault plan: seed must be a "
                                 "non-negative integer");
        plan.seed = static_cast<std::uint64_t>(seed->asNumber());
    }

    const JsonValue *rules = root.member("rules");
    if (!rules || !rules->isArray())
        return Status::error("fault plan: missing 'rules' array");

    for (std::size_t i = 0; i < rules->asArray().size(); ++i) {
        const JsonValue &r = rules->asArray()[i];
        const std::string where =
            "fault plan: rules[" + std::to_string(i) + "]: ";
        if (!r.isObject())
            return Status::error(where + "not an object");

        FaultRule rule;
        const JsonValue *probe = r.member("probe");
        if (!probe || !probe->isString())
            return Status::error(where + "missing string 'probe'");
        rule.probe = probe->asString();

        const JsonValue *kind = r.member("kind");
        if (!kind || !kind->isString() ||
            !faultKindFromName(kind->asString(), &rule.kind)) {
            return Status::error(where + "missing or unknown 'kind'");
        }

        if (const JsonValue *keys = r.member("keys")) {
            if (!keys->isArray())
                return Status::error(where + "'keys' is not an array");
            for (const JsonValue &k : keys->asArray()) {
                if (!k.isNonNegativeInteger()) {
                    return Status::error(
                        where + "'keys' entry is not a non-negative "
                                "integer");
                }
                rule.keys.push_back(
                    static_cast<std::uint64_t>(k.asNumber()));
            }
        }
        if (const JsonValue *every = r.member("every")) {
            if (!every->isNonNegativeInteger())
                return Status::error(where + "'every' must be a "
                                             "non-negative integer");
            rule.every = static_cast<std::uint64_t>(every->asNumber());
        }
        if (const JsonValue *phase = r.member("phase")) {
            if (!phase->isNonNegativeInteger())
                return Status::error(where + "'phase' must be a "
                                             "non-negative integer");
            rule.phase = static_cast<std::uint64_t>(phase->asNumber());
        }
        if (const JsonValue *p = r.member("probability")) {
            if (!p->isNumber())
                return Status::error(where +
                                     "'probability' must be a number");
            rule.probability = p->asNumber();
        }
        if (const JsonValue *fc = r.member("fail_count")) {
            if (!fc->isNonNegativeInteger())
                return Status::error(where + "'fail_count' must be a "
                                             "non-negative integer");
            rule.failCount = static_cast<std::uint64_t>(fc->asNumber());
        }

        const Status valid = validateRule(rule);
        if (!valid)
            return Status::error(where + valid.message());
        plan.rules.push_back(std::move(rule));
    }
    return plan;
}

Result<FaultPlan>
FaultPlan::loadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return Status::error("cannot open fault plan '" + path + "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    auto plan = parseJson(buf.str());
    if (!plan)
        return Status::error("'" + path + "': " + plan.message());
    return plan;
}

// ---------------------------------------------------------------------
// FaultError / FaultInjector
// ---------------------------------------------------------------------

FaultError::FaultError(std::string probe, FaultKind kind,
                       std::uint64_t key)
    : std::runtime_error("injected fault " +
                         std::string(faultKindName(kind)) + " at " +
                         probe + " (key " + std::to_string(key) + ")"),
      probe_(std::move(probe)), kind_(kind), key_(key)
{}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(FaultPlan plan)
{
    auto armed = std::make_shared<ArmedPlan>();
    const std::size_t rules = plan.rules.size();
    armed->plan = std::move(plan);
    armed->hits = std::vector<std::atomic<std::uint64_t>>(rules);

    FaultMetrics::get(); // counters visible in snapshots immediately
    std::lock_guard<std::mutex> lock(mutex_);
    plan_ = std::move(armed);
    armed_.store(true, std::memory_order_release);
}

void
FaultInjector::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    armed_.store(false, std::memory_order_release);
    plan_.reset();
}

bool
FaultInjector::armed() const
{
    return armed_.load(std::memory_order_acquire);
}

std::optional<FaultKind>
FaultInjector::trigger(const char *probe, std::uint64_t key)
{
    if (!armed())
        return std::nullopt;

    std::shared_ptr<ArmedPlan> armed_plan;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        armed_plan = plan_;
    }
    if (!armed_plan)
        return std::nullopt;

    for (std::size_t i = 0; i < armed_plan->plan.rules.size(); ++i) {
        const FaultRule &rule = armed_plan->plan.rules[i];
        if (rule.probe != probe)
            continue;

        bool fires = false;
        if (!rule.keys.empty()) {
            for (std::uint64_t k : rule.keys)
                fires = fires || k == key;
        } else if (rule.every > 0) {
            fires = key % rule.every == rule.phase;
        } else if (rule.probability > 0.0) {
            // Seeded hash coin: a pure function of (seed, probe, key),
            // so the same plan fires at the same sites on replay.
            const std::uint64_t h = mix64(armed_plan->plan.seed ^
                                          hashName(probe) ^ mix64(key));
            const double u = static_cast<double>(h >> 11) *
                (1.0 / 9007199254740992.0); // 2^53
            fires = u < rule.probability;
        } else if (rule.failCount > 0) {
            fires = armed_plan->hits[i].fetch_add(
                        1, std::memory_order_relaxed) < rule.failCount;
        } else {
            fires = true; // unconditional rule
        }
        if (!fires)
            continue;

        const ProbePoint *point = findProbe(rule.probe);
        const bool deterministic = !point || point->deterministic;
        auto &reg = telemetry::MetricRegistry::global();
        if (deterministic)
            FaultMetrics::get().injected.add(1);
        reg.counter(std::string(telemetry::kFaultProbeFamily) + probe,
                    telemetry::metric("fault.injected").unit,
                    deterministic)
            .add(1);
        return rule.kind;
    }
    return std::nullopt;
}

void
FaultInjector::noteRetried()
{
    FaultMetrics::get().retried.add(1);
}

void
FaultInjector::noteRecovered()
{
    FaultMetrics::get().recovered.add(1);
}

void
FaultInjector::noteDegraded()
{
    FaultMetrics::get().degraded.add(1);
}

} // namespace darkside
