/**
 * @file
 * The repository benchmark harness. It drives the darkside libraries
 * through their public functions only, times each call from outside,
 * checks the outputs and prints one JSON result line.
 *
 *   perfbench_harness prepare --cache DIR
 *   perfbench_harness run --workload NAME --seed N --seconds S
 *       --trace 0|1 --cache DIR --work DIR --pins FILE
 *
 * Workloads (perfbench/README.md says why each exists):
 *   sweep_unbounded  closed loop, {Baseline, Beam} x {NP, 70, 80, 90}
 *   sweep_nbest      closed loop, NBest x {NP, 70, 80, 90}
 *   serve_nbest90    open loop, Poisson arrivals, NBest-90 sessions
 *
 * A plain run (--trace 0) reports the end-to-end metrics; a traced run
 * (--trace 1) reports the per-layer metrics and writes its spans as a
 * Chrome trace under the work directory.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "decoder/search_telemetry.hh"
#include "serve/serve_checkpoint.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "spans.hh"
#include "stats.hh"
#include "system/defaults.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/bits.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace perfbench {
namespace {

using namespace darkside;
using Clock = std::chrono::steady_clock;

// --- fixed workload parameters ------------------------------------------

/** Client threads of the closed loops and session workers of serve. */
constexpr std::size_t kWorkers = 2;
/** Context builds timed per run; setup_s is their median. */
constexpr std::size_t kSetupRepeats = 5;
/** Utterances of a sweep's seeded test set (also serve's base set). */
constexpr std::size_t kSweepUtterances = 60;
constexpr std::size_t kServeBaseUtterances = 400;
/** Open-loop arrival rate: about half of two workers' capacity. */
constexpr double kServeRate = 50.0;
/** Admission budget wide enough that the nominal rate sheds nothing,
 *  even on a shared VM where 10% of CPU time is stolen: 16 sessions
 *  shed under that load. */
constexpr std::size_t kServeMaxSessions = 32;
constexpr std::size_t kServeMaxQueue = 128;
constexpr std::size_t kServeChunkFrames = 16;
constexpr std::size_t kServeMaxLengthMultiple = 4;
/** First-result limit of goodput_ratio. */
constexpr double kFirstResultLimitMs = 100.0;
/** The open loop is valid only while the generator keeps this close
 *  to its schedule (99th percentile of send lateness): one mean gap
 *  between arrivals, so late sends do not merge arrivals. A late send
 *  still counts from its due time. A single hypervisor preemption of
 *  the generator can exceed 10 ms on a shared VM. */
constexpr double kGenLagBoundMs = 1e3 / kServeRate;
/** The generator spins for the last stretch before each due time. */
constexpr auto kGenSpin = std::chrono::milliseconds(2);
/** Unmeasured serving before the measured pass, so the first sessions
 *  do not pay for the server's and allocator's first use. */
constexpr double kServeWarmupSeconds = 2.0;
/** Sampling seed of the fixed evaluation set: every sweep run decodes
 *  it first, and its outputs are pinned in pins.json. Every workload's
 *  sim_*_per_speech_s come from it. */
constexpr std::uint64_t kEvalSetSeed = 5005;

double
since(Clock::time_point t0, Clock::time_point t1 = Clock::now())
{
    return std::chrono::duration<double>(t1 - t0).count();
}

// --- result line --------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Result
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Record a failed output check; the run then prints no result. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
            ++checkFailures_;
        }
    }

    bool ok() const { return checkFailures_ == 0; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    std::string
    json() const
    {
        std::string out = "{\"correct\": true, \"attempted\": " +
            std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) +
            ", \"metrics\": {";
        char buf[128];
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            if (!std::isfinite(m.value))
                throw std::runtime_error("metric " + m.name +
                                         " is not finite");
            std::snprintf(buf, sizeof(buf), "%.17g", m.value);
            out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + m.unit + "\"}";
        }
        return out + "}}";
    }

  private:
    std::vector<Metric> metrics_;
    std::size_t checkFailures_ = 0;
};

// --- process probes -----------------------------------------------------

/** A "Key:   value kB" field of /proc/self/status; 0 if absent. */
double
procStatus(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, len, key) == 0 && line.size() > len &&
            line[len] == ':')
            return std::atof(line.c_str() + len + 1);
    }
    return 0.0;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

/** Steal and total jiffies of all CPUs, from /proc/stat. */
struct HostTicks
{
    double steal = 0.0;
    double total = 0.0;
};

HostTicks
hostTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    HostTicks t;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        double v = 0.0;
        in >> v;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

std::uint64_t
counterValue(const telemetry::Snapshot &snap, const char *name)
{
    const auto *c = snap.findCounter(name);
    return c ? c->value : 0;
}

std::uint64_t
counterDelta(const telemetry::Snapshot &before,
             const telemetry::Snapshot &after, const char *name)
{
    return counterValue(after, name) - counterValue(before, name);
}

/** Run body(i) for i in [0, n) on kWorkers client threads, each taking
 *  the next index once its previous call returned (a closed loop). */
void
closedLoop(std::size_t n, const std::function<void(std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> clients;
    std::exception_ptr error;
    std::mutex errorMutex;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        clients.emplace_back([&] {
            try {
                for (std::size_t i; (i = next.fetch_add(1)) < n;)
                    body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                next.store(n);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

// --- set-up -------------------------------------------------------------

ExperimentSetup
setupFor(const std::string &cacheDir)
{
    ExperimentSetup setup = scaledSetup();
    setup.zoo.cacheDir = cacheDir;
    return setup;
}

/** Context built from the warm model cache with every level's engine
 *  compiled and DNN-accelerator model evaluated, so no lazy set-up is
 *  left for the measured window. */
std::unique_ptr<ExperimentContext>
buildContext(const ExperimentSetup &setup)
{
    auto ctx = std::make_unique<ExperimentContext>(setup);
    for (const PruneLevel level : kAllPruneLevels) {
        ctx->system.engineFor(level);
        ctx->system.dnnSim(level);
    }
    return ctx;
}

const char *
levelTag(PruneLevel level)
{
    static const char *tags[] = {"p0", "p70", "p80", "p90"};
    return tags[static_cast<std::size_t>(level)];
}

/** Copies of `utts` under fresh cache keys, so a repeated round starts
 *  with none of its scores resident. */
std::vector<Utterance>
withFreshIds(std::vector<Utterance> utts, std::uint64_t salt)
{
    for (std::size_t i = 0; i < utts.size(); ++i)
        utts[i].id = mix64(utts[i].id ^ mix64(salt)) | 1;
    return utts;
}

double
speechSeconds(std::size_t frames)
{
    return 0.01 * static_cast<double>(frames);
}

// --- layer probes (traced runs) -----------------------------------------

/** Scores of the probe utterances, indexed [level][utterance]. */
using ProbeScores = std::vector<std::vector<AcousticScores>>;

/** Time Corpus::spliceUtterance and AcousticScores::fromEngine per
 *  level on the workload's utterances. */
ProbeScores
probeScoring(ExperimentContext &ctx, const std::vector<Utterance> &utts,
             SpanRecorder &rec, Result &out)
{
    std::vector<std::vector<Vector>> spliced;
    std::size_t frames = 0;
    const double t0 = rec.nowUs();
    for (const Utterance &u : utts) {
        SpanRecorder::Scope s(rec, "corpus.splice", u.id);
        spliced.push_back(ctx.corpus.spliceUtterance(u));
        frames += u.frames.size();
    }
    out.add("corpus.splice_us_per_frame",
            (rec.nowUs() - t0) / static_cast<double>(frames), "us");
    ProbeScores scores;
    for (const PruneLevel level : kAllPruneLevels) {
        const InferenceEngine &engine = ctx.system.engineFor(level);
        const std::string span = std::string("dnn.score.") + levelTag(level);
        std::vector<AcousticScores> scored;
        const double s0 = rec.nowUs();
        for (std::size_t i = 0; i < utts.size(); ++i) {
            SpanRecorder::Scope s(rec, span.c_str(), utts[i].id);
            scored.push_back(AcousticScores::fromEngine(
                engine, spliced[i], ctx.setup.platform.acousticScale));
        }
        out.add(std::string("dnn.score_us_per_frame.") + levelTag(level),
                (rec.nowUs() - s0) / static_cast<double>(frames), "us");
        scores.push_back(std::move(scored));
    }
    return scores;
}

/** Theoretical FC work of a level: 2 flops per kept weight. */
double
mflopPerFrame(const Mlp &mlp)
{
    double nnz = 0.0;
    for (const FullyConnected *fc : mlp.fullyConnectedLayers())
        nnz += static_cast<double>(fc->nonzeroWeightCount());
    return 2.0 * nnz * 1e-6;
}

/**
 * Dense vs CSR kernels on every masked FC layer of the given levels at
 * the engine's batch width; per-frame cost summed over the layers and
 * averaged over the levels.
 */
void
probeKernels(ExperimentContext &ctx, const std::vector<PruneLevel> &levels,
             Result &out)
{
    const std::size_t batch = InferenceOptions{}.batchFrames;
    Rng rng(7);
    double denseUs = 0.0;
    double csrUs = 0.0;
    std::size_t pruned = 0;
    for (const PruneLevel level : levels) {
        if (level == PruneLevel::None)
            continue;
        ++pruned;
        for (const FullyConnected *fc :
             ctx.zoo.model(level).fullyConnectedLayers()) {
            if (!fc->hasMask())
                continue;
            Matrix x(batch, fc->inputSize());
            for (std::size_t i = 0; i < x.size(); ++i)
                x.data()[i] = static_cast<float>(rng.uniform());
            const SparseLayer sparse(*fc);
            Matrix y;
            kernels::KernelScratch scratch;
            const auto timeKernel = [&](const auto &call) {
                std::vector<double> perCall;
                const auto start = Clock::now();
                while (perCall.size() < 20 || since(start) < 0.02) {
                    const auto t = Clock::now();
                    if (!call())
                        throw std::runtime_error("kernel rejected input");
                    perCall.push_back(since(t) * 1e6);
                }
                return median(perCall);
            };
            denseUs += timeKernel([&] {
                return kernels::denseForward(x, fc->weights(),
                                             fc->biases(), y, scratch)
                    .ok();
            });
            csrUs += timeKernel([&] {
                return kernels::sparseForward(x, sparse.csrView(), y,
                                              scratch)
                    .ok();
            });
        }
    }
    const double perFrame = pruned ? 1.0 / static_cast<double>(pruned * batch)
                                   : 0.0;
    out.add("tensor.dense_us_per_frame", denseUs * perFrame, "us");
    out.add("tensor.csr_us_per_frame", csrUs * perFrame, "us");
}

/** Search-side counters of a set of decodes. */
struct SearchTotals
{
    std::uint64_t frames = 0;
    std::uint64_t survivors = 0;
    std::uint64_t generated = 0;
    std::uint64_t expanded = 0;
    SelectorFrameStats selector;
    std::uint64_t gcRuns = 0;
    std::uint64_t traceAllocated = 0;
    std::uint64_t traceCollected = 0;
    std::uint64_t tracePeakNodes = 0;
    std::uint64_t decodes = 0;
    ViterbiSimResult sim;

    void
    add(const DecodeResult &r)
    {
        ++decodes;
        frames += r.frames.size();
        survivors += r.totalSurvivors();
        generated += r.totalGenerated();
        for (const FrameActivity &f : r.frames) {
            expanded += f.expanded;
            selector.merge(f.selector);
        }
        gcRuns += r.traceStats.gcRuns;
        traceAllocated += r.traceStats.allocated;
        traceCollected += r.traceStats.collected;
        tracePeakNodes = std::max(tracePeakNodes, r.traceStats.peakLive);
    }

    void
    addSim(const ViterbiSimResult &v)
    {
        sim.cycles += v.cycles;
        sim.frames += v.frames;
        sim.overflowLines += v.overflowLines;
        sim.arcCache.hits += v.arcCache.hits;
        sim.arcCache.misses += v.arcCache.misses;
        sim.stateCache.hits += v.stateCache.hits;
        sim.stateCache.misses += v.stateCache.misses;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** `searchUsPerFrame` is the unobserved decode; `observedUsPerFrame`
 *  the decode under the simulator, each over its own frames. */
void
addSearchMetrics(const SearchTotals &t, double searchUsPerFrame,
                 double observedUsPerFrame, Result &out)
{
    const double frames = static_cast<double>(t.frames);
    out.add("decoder.search_us_per_frame", searchUsPerFrame, "us");
    out.add("decoder.hyps_per_frame", ratio(t.survivors, frames), "count");
    out.add("decoder.arcs_per_frame", ratio(t.generated, frames), "count");
    out.add("decoder.expanded_per_frame", ratio(t.expanded, frames),
            "count");
    out.add("decoder.trace_peak_bytes",
            static_cast<double>(t.tracePeakNodes * sizeof(TraceNode)),
            "bytes");
    out.add("decoder.gc_runs", ratio(t.gcRuns, t.decodes), "count");
    out.add("decoder.trace_collected_ratio",
            ratio(t.traceCollected, t.traceAllocated), "ratio");
    out.add("nbest.insertions_per_frame",
            ratio(t.selector.insertions, frames), "count");
    out.add("nbest.evictions_per_frame", ratio(t.selector.evictions, frames),
            "count");
    out.add("nbest.rejections_per_frame",
            ratio(t.selector.rejections, frames), "count");
    out.add("nbest.keep_ratio",
            ratio(t.selector.survivors, t.selector.insertions), "ratio");
    out.add("accel.sim_us_per_frame", observedUsPerFrame - searchUsPerFrame,
            "us");
    out.add("accel.cycles_per_frame", ratio(t.sim.cycles, t.sim.frames),
            "cycles");
    out.add("accel.arc_cache_miss_ratio", t.sim.arcCache.missRate(),
            "ratio");
    out.add("accel.state_cache_miss_ratio", t.sim.stateCache.missRate(),
            "ratio");
    out.add("accel.overflow_lines_per_frame",
            ratio(t.sim.overflowLines, t.sim.frames), "count");
}

/** Outcome of one decode observed by the simulator, as runUtterance
 *  performs it. */
struct ObservedDecode
{
    DecodeResult decode;
    ViterbiSimResult sim;
};

ObservedDecode
decodeWithSim(AsrSystem &sys, const AcousticScores &scores,
              const SystemConfig &cfg)
{
    ViterbiAcceleratorSim accel(sys.viterbiConfigFor(cfg), sys.fst());
    SearchTelemetry telemetry;
    TeeSearchObserver tee(&accel, &telemetry);
    // runUtterance hangs the (disarmed) watchdog off a second tee; the
    // same dispatch here keeps traced and plain decodes the same work.
    TeeSearchObserver observer(&tee, nullptr);
    auto selector = sys.makeSelector(cfg);
    const ViterbiDecoder decoder(sys.fst(), DecoderConfig{cfg.beam});
    ObservedDecode out;
    out.decode = decoder.decode(scores, *selector, &observer);
    accel.recordTelemetry();
    out.sim = accel.result();
    return out;
}

DecodeResult
decodePlain(AsrSystem &sys, const AcousticScores &scores,
            const SystemConfig &cfg)
{
    auto selector = sys.makeSelector(cfg);
    const ViterbiDecoder decoder(sys.fst(), DecoderConfig{cfg.beam});
    return decoder.decode(scores, *selector);
}

void
addZeroServeMetrics(Result &out)
{
    for (const char *name :
         {"serve.offer_us.p50", "serve.offer_us.p95", "serve.chunk_us.p50",
          "serve.chunk_us.p99"})
        out.add(name, 0.0, "us");
    for (const char *name :
         {"serve.admit_to_first_partial_ms.p50",
          "serve.admit_to_first_partial_ms.p95", "serve.gen_lag_ms.p99",
          "store.journal_ms"})
        out.add(name, 0.0, "ms");
    for (const char *name : {"serve.threads_peak", "serve.inflight_peak",
                             "store.writes_per_session"})
        out.add(name, 0.0, "count");
}

// --- sweeps -------------------------------------------------------------

/** Configurations level-major, so a Beam config re-reads the scores
 *  its Baseline sibling just cached. */
std::vector<SystemConfig>
sweepConfigs(const ExperimentSetup &setup,
             const std::vector<SearchMode> &modes)
{
    std::vector<SystemConfig> configs;
    for (const PruneLevel level : kAllPruneLevels)
        for (const SearchMode mode : modes)
            configs.push_back(setup.configFor(mode, level));
    return configs;
}

/** One utterance decode as the client sees it. */
struct UttOutcome
{
    std::vector<WordId> words;
    RequestTimes times;
    std::size_t frames = 0;
    std::uint64_t survivors = 0;
    double simSeconds = 0.0;
    double simJoules = 0.0;
};

/** One round: every configuration over one test set. */
struct Round
{
    std::vector<Utterance> utts;
    /** out[c][i]: configuration c, utterance i. */
    std::vector<std::vector<UttOutcome>> out;
    double wall = 0.0;
    double cpu = 0.0;
};

/** Plain round: AsrSystem::runUtterance per utterance, closed loop. */
Round
runPlainRound(AsrSystem &sys, std::vector<Utterance> utts,
              const std::vector<SystemConfig> &configs, Clock::time_point epoch)
{
    Round round;
    round.utts = std::move(utts);
    const std::vector<Utterance> &u = round.utts;
    round.out.assign(configs.size(), std::vector<UttOutcome>(u.size()));
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        closedLoop(u.size(), [&](std::size_t i) {
            UttOutcome &o = round.out[c][i];
            o.times.due = since(epoch);
            try {
                UtteranceRun run = sys.runUtterance(u[i], configs[c]);
                o.words = std::move(run.decode.words);
                o.frames = run.frames;
                o.survivors = run.decode.totalSurvivors();
                o.simSeconds = run.dnn.seconds + run.viterbi.seconds;
                o.simJoules = run.dnn.joules + run.viterbi.joules;
                o.times.served = true;
            } catch (const FaultError &e) {
                std::fprintf(stderr, "degraded: %s\n", e.what());
            }
            o.times.first = o.times.done = since(epoch);
        });
    }
    round.wall = since(t0);
    round.cpu = cpuSeconds() - cpu0;
    return round;
}

std::vector<Utterance>
evalSet(const ExperimentContext &ctx)
{
    return ctx.corpus.sampleUtterances(kSweepUtterances, kEvalSetSeed);
}

/** The modelled platform's time and energy per second of speech over a
 *  plain round of the fixed evaluation set: exact per build, whatever
 *  the seed and however many rounds fit in the window. */
void
addSimMetrics(const Round &eval, Result &out)
{
    double simS = 0.0;
    double simJ = 0.0;
    std::size_t frames = 0;
    for (const auto &cfgRun : eval.out) {
        for (const UttOutcome &o : cfgRun) {
            simS += o.simSeconds;
            simJ += o.simJoules;
            frames += o.frames;
        }
    }
    out.add("sim_s_per_speech_s", simS / speechSeconds(frames), "s/s");
    out.add("sim_j_per_speech_s", simJ / speechSeconds(frames), "J/s");
}

/**
 * Traced round: runUtterance's steps called one by one (scoresFor, then
 * the decode the simulator observes), each inside a span.
 */
Round
runTracedRound(AsrSystem &sys, std::vector<Utterance> utts,
               const std::vector<SystemConfig> &configs, SpanRecorder &rec,
               SearchTotals &totals, std::mutex &totalsMutex)
{
    Round round;
    round.utts = std::move(utts);
    round.out.assign(configs.size(),
                     std::vector<UttOutcome>(round.utts.size()));
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        closedLoop(round.utts.size(), [&](std::size_t i) {
            const Utterance &utt = round.utts[i];
            UttOutcome &o = round.out[c][i];
            SpanRecorder::Scope u(rec, "utterance", utt.id);
            std::shared_ptr<const AcousticScores> scores;
            {
                SpanRecorder::Scope s(rec, "system.scores_for", utt.id);
                scores = sys.scoresFor(utt, configs[c].prune);
            }
            if (!scores->finite())
                return;
            ObservedDecode d;
            {
                SpanRecorder::Scope s(rec, "decoder.decode_with_sim",
                                      utt.id);
                d = decodeWithSim(sys, *scores, configs[c]);
            }
            o.words = d.decode.words;
            o.frames = scores->frameCount();
            o.survivors = d.decode.totalSurvivors();
            o.times.served = true;
            std::lock_guard<std::mutex> lock(totalsMutex);
            totals.addSim(d.sim);
        });
    }
    round.wall = since(t0);
    return round;
}

/** Per-config aggregates compared against pins.json. */
struct ConfigPin
{
    EditStats wer;
    std::uint64_t survivors = 0;
    std::uint64_t frames = 0;
};

std::vector<ConfigPin>
pinsOf(const Round &round)
{
    const std::vector<Utterance> &utts = round.utts;
    std::vector<ConfigPin> pins;
    for (const auto &cfgRun : round.out) {
        ConfigPin p;
        std::vector<std::vector<WordId>> hyps;
        std::vector<std::vector<WordId>> refs;
        for (std::size_t i = 0; i < cfgRun.size(); ++i) {
            if (!cfgRun[i].times.served)
                continue;
            hyps.push_back(cfgRun[i].words);
            refs.push_back(utts[i].words);
            p.survivors += cfgRun[i].survivors;
            p.frames += cfgRun[i].frames;
        }
        p.wer = scoreTranscripts(hyps, refs);
        pins.push_back(p);
    }
    return pins;
}

/** Compare the evaluation set's pins with pins.json. */
void
checkPins(const std::string &pinsPath, const std::string &workload,
          const std::vector<SystemConfig> &configs,
          const std::vector<ConfigPin> &pins, Result &out)
{
    std::string line = "pins " + workload + " {";
    for (std::size_t c = 0; c < configs.size(); ++c) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": [%" PRIu64 ", %" PRIu64 ", %" PRIu64
                      ", %" PRIu64 "]",
                      c ? ", " : "", configs[c].label().c_str(),
                      pins[c].wer.errors(), pins[c].wer.referenceLength,
                      pins[c].survivors, pins[c].frames);
        line += buf;
    }
    std::printf("%s}\n", line.c_str());
    std::ifstream in(pinsPath);
    out.check(static_cast<bool>(in), "cannot read " + pinsPath);
    if (!in)
        return;
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue root = JsonValue::parse(text.str());
    const JsonValue *table = root.isObject() ? root.member(workload) : nullptr;
    out.check(table && table->isObject(),
              "pins.json has no table for " + workload);
    if (!table || !table->isObject())
        return;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const JsonValue *row = table->member(configs[c].label());
        const bool shaped = row && row->isArray() &&
            row->asArray().size() == 4;
        const auto at = [&](std::size_t k) {
            return static_cast<std::uint64_t>(row->asArray()[k].asNumber());
        };
        out.check(shaped && at(0) == pins[c].wer.errors() &&
                      at(1) == pins[c].wer.referenceLength &&
                      at(2) == pins[c].survivors && at(3) == pins[c].frames,
                  "evaluation-set WER/hypothesis pin of " + configs[c].label());
    }
}

/** End-to-end metrics of a sweep's plain rounds. */
void
addSweepMetrics(const std::vector<Round> &plain,
                const std::vector<ConfigPin> &evalSet, Result &out)
{
    std::vector<RequestTimes> requests;
    // Throughput of each round; their median is robust to a burst of
    // host contention that slows one round.
    std::vector<double> throughput;
    for (const Round &round : plain) {
        std::size_t frames = 0;
        for (const auto &cfgRun : round.out) {
            for (const UttOutcome &o : cfgRun) {
                requests.push_back(o.times);
                frames += o.frames;
            }
        }
        throughput.push_back(speechSeconds(frames) / round.wall);
    }
    const LatencySummary lat = summarize(requests, kFirstResultLimitMs);
    out.check(lat.p99Supported, "too few utterances for a p99");
    std::printf("sweep: %zu rounds, %zu decodes\n", plain.size(),
                requests.size());
    out.add("speech_s_per_wall_s", median(throughput), "s/s");
    addSimMetrics(plain.front(), out);
    // WER on the fixed evaluation set: quality is compared on identical
    // inputs whatever the seed; a seeded set of this size varies by a
    // third between seeds.
    EditStats wer;
    for (const ConfigPin &p : evalSet)
        wer.merge(p.wer);
    out.add("wer_pct", 100.0 * wer.wordErrorRate(), "%");
    // In a batch decode the first result is the whole transcript, so
    // an utterance's first-result and completion latencies coincide.
    out.add("ttfp_p50_ms", lat.firstP50Ms, "ms");
    out.add("session_p50_ms", lat.doneP50Ms, "ms");
    out.add("session_p99_ms", lat.doneP99Ms, "ms");
    out.add("goodput_ratio", lat.goodput, "ratio");
}

/** Layer probes after a traced sweep's window, plus the per-layer
 *  metrics its traced rounds measured. */
void
addSweepLayerMetrics(ExperimentContext &ctx,
                     const std::vector<SystemConfig> &configs,
                     const Round &ref, SearchTotals &totals,
                     const std::vector<Span> &roundSpans,
                     const std::vector<Round> &traced, SpanRecorder &rec,
                     Result &out)
{
    AsrSystem &sys = ctx.system;
    const std::vector<Utterance> &utts = ref.utts;
    const ProbeScores probes = probeScoring(ctx, utts, rec, out);
    const std::vector<PruneLevel> levels(std::begin(kAllPruneLevels),
                                         std::end(kAllPruneLevels));
    probeKernels(ctx, levels, out);
    double flop = 0.0;
    double mflop = 0.0;
    for (const PruneLevel level : levels) {
        const double m = mflopPerFrame(ctx.zoo.model(level));
        mflop += m / static_cast<double>(levels.size());
        for (const auto &s : probes[static_cast<std::size_t>(level)])
            flop += m * 1e6 * static_cast<double>(s.frameCount());
    }
    double scoreUs = 0.0;
    for (const auto &[name, t] : layerTimes(rec.spans()))
        if (name.rfind("dnn.score.", 0) == 0)
            scoreUs += t.totalUs;
    out.add("dnn.mflop_per_frame", mflop, "MFLOP");
    out.add("dnn.gflops", flop / (scoreUs * 1e3), "GFLOP/s");

    // The unobserved search of one round, on the probe's scores.
    const std::size_t n = utts.size();
    std::vector<double> searchUs(configs.size() * n);
    std::vector<DecodeResult> searched(configs.size() * n);
    closedLoop(searched.size(), [&](std::size_t k) {
        const SystemConfig &cfg = configs[k / n];
        const auto t0 = Clock::now();
        SpanRecorder::Scope s(rec, "decoder.search", utts[k % n].id);
        searched[k] = decodePlain(
            sys, probes[static_cast<std::size_t>(cfg.prune)][k % n],
            cfg);
        searchUs[k] = since(t0) * 1e6;
    });
    double searchTotalUs = 0.0;
    for (std::size_t k = 0; k < searched.size(); ++k) {
        totals.add(searched[k]);
        searchTotalUs += searchUs[k];
        out.check(searched[k].words == ref.out[k / n][k % n].words,
                  "unobserved search transcript differs");
    }

    const auto layers = layerTimes(roundSpans);
    const auto total = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.totalUs;
    };
    // The traced rounds decode other sets than the evaluation set, so
    // each time is divided by the frames it covered.
    std::size_t tracedFrames = 0;
    for (const Round &round : traced)
        for (const auto &cfgRun : round.out)
            for (const UttOutcome &o : cfgRun)
                tracedFrames += o.frames;
    addSearchMetrics(
        totals, ratio(searchTotalUs, static_cast<double>(totals.frames)),
        ratio(total("decoder.decode_with_sim"),
              static_cast<double>(tracedFrames)),
        out);
    out.add("system.scores_for_us_per_frame",
            ratio(total("system.scores_for"),
                  static_cast<double>(tracedFrames)),
            "us");
}

void
runSweep(const std::string &workload, const std::vector<SearchMode> &modes,
         ExperimentContext &ctx, std::uint64_t seed, double seconds,
         bool trace, const std::string &pinsPath, SpanRecorder &rec,
         Result &out)
{
    AsrSystem &sys = ctx.system;
    const std::vector<SystemConfig> configs = sweepConfigs(ctx.setup, modes);
    // Round 0 decodes the fixed evaluation set, whose WER and
    // hypothesis counts are pinned; round k > 0 decodes its own seeded
    // test set, so a run covers as many distinct utterances as its
    // window allows. A traced run follows each plain round with a
    // traced round on the same utterances under fresh cache keys: same
    // work, compared transcript by transcript.
    const auto testSet = [&](std::uint64_t k) {
        return k == 0 ? evalSet(ctx)
                      : ctx.corpus.sampleUtterances(
                            kSweepUtterances,
                            mix64(seed ^ mix64(0x7e57'5e7ull + k)));
    };
    auto &reg = telemetry::MetricRegistry::global();
    const telemetry::Snapshot before = reg.snapshot();
    const auto epoch = Clock::now();
    std::vector<Round> plain;
    std::vector<Round> traced;
    SearchTotals totals;
    std::mutex totalsMutex;
    double lastRound = 0.0;
    do {
        // The traced round runs second on even rounds and first on odd
        // ones, so warm-up order does not bias the overhead.
        std::vector<Utterance> utts = testSet(plain.size());
        const bool tracedFirst = trace && plain.size() % 2 == 1;
        lastRound = 0.0;
        if (tracedFirst) {
            traced.push_back(runTracedRound(sys,
                                            withFreshIds(utts, plain.size()),
                                            configs, rec, totals,
                                            totalsMutex));
            lastRound += traced.back().wall;
        }
        plain.push_back(runPlainRound(sys, std::move(utts), configs, epoch));
        lastRound += plain.back().wall;
        if (trace && !tracedFirst) {
            traced.push_back(runTracedRound(
                sys, withFreshIds(plain.back().utts, plain.size() - 1),
                configs, rec, totals, totalsMutex));
            lastRound += traced.back().wall;
        }
        for (std::size_t c = 0; trace && c < configs.size(); ++c)
            for (std::size_t i = 0; i < kSweepUtterances; ++i)
                out.check(traced.back().out[c][i].words ==
                              plain.back().out[c][i].words,
                          "traced transcript differs from plain run");
    } while (since(epoch) + lastRound <= seconds);
    const telemetry::Snapshot after = reg.snapshot();
    const std::vector<Span> roundSpans = rec.spans();

    const std::vector<ConfigPin> evalSet = pinsOf(plain.front());
    checkPins(pinsPath, workload, configs, evalSet, out);
    for (const Round &round : plain) {
        for (const auto &cfgRun : round.out) {
            for (const UttOutcome &o : cfgRun) {
                ++out.attempted;
                out.failed += o.times.served ? 0 : 1;
            }
        }
    }

    if (!trace) {
        addSweepMetrics(plain, evalSet, out);
        return;
    }
    addSweepLayerMetrics(ctx, configs, plain.front(), totals, roundSpans,
                         traced, rec, out);
    out.add("cache.hit_ratio",
            ratio(counterDelta(before, after, "dnn.cache.hit"),
                  counterDelta(before, after, "dnn.cache.lookup")),
            "ratio");
    out.add("cache.evict",
            static_cast<double>(counterDelta(before, after,
                                             "dnn.cache.evict")) /
                static_cast<double>(plain.size() + traced.size()),
            "count");
    addZeroServeMetrics(out);
    std::vector<double> overhead;
    double plainCpu = 0.0;
    double plainWall = 0.0;
    double tracedWall = 0.0;
    for (std::size_t k = 0; k < plain.size(); ++k) {
        overhead.push_back(traced[k].wall / plain[k].wall - 1.0);
        plainCpu += plain[k].cpu;
        plainWall += plain[k].wall;
        tracedWall += traced[k].wall;
    }
    out.add("proc.cpu_util", plainCpu / plainWall, "ratio");
    out.add("trace.overhead_ratio", median(overhead), "ratio");
    // Share of the traced rounds' worker time outside the layer calls:
    // per-utterance bookkeeping and idle workers at each config's end.
    const auto layers = layerTimes(roundSpans);
    double busy = 0.0;
    for (const char *name : {"system.scores_for", "decoder.decode_with_sim"})
        if (const auto it = layers.find(name); it != layers.end())
            busy += it->second.totalUs;
    out.add("trace.residual_ratio",
            1.0 - busy / (static_cast<double>(kWorkers) * tracedWall * 1e6),
            "ratio");
}

// --- serve --------------------------------------------------------------

/** Client-side record of one offered session. */
struct SessionTimes
{
    double due = 0.0;
    double offerStart = 0.0;
    double offerEnd = 0.0;
    double first = 0.0;
    double last = 0.0;
    std::size_t frames = 0;
    bool accepted = false;
};

struct ServePass
{
    ServeReport report;
    std::vector<SessionOutcome> outcomes;
    std::vector<SessionTimes> sessions;
    std::vector<TrafficEvent> events;
    double wall = 0.0;
    double cpu = 0.0;
    std::size_t threadsPeak = 0;
    std::size_t inflightPeak = 0;
    double samplingSeconds = 0.0;
    std::uint64_t storeWrites = 0;
    telemetry::Snapshot ledgerBefore;
    telemetry::Snapshot ledgerAfter;
};

ServeConfig
serveConfig(const ExperimentSetup &setup)
{
    ServeConfig config;
    config.system = setup.configFor(SearchMode::NBestHash, PruneLevel::P90);
    config.chunkFrames = kServeChunkFrames;
    config.pipelineScoring = true;
    config.threads = kWorkers;
    config.admission.maxSessions = kServeMaxSessions;
    config.admission.maxQueueDepth = kServeMaxQueue;
    return config;
}

/** Replay the schedule open loop; every time is seconds since `epoch`. */
ServePass
runServePass(AsrSystem &sys, std::vector<TrafficEvent> events,
             const ServeConfig &config, ServeCheckpoint *journal,
             bool sampleThreads)
{
    ServePass pass;
    pass.events = std::move(events);
    pass.sessions.resize(pass.events.size());
    std::unordered_map<std::uint64_t, std::size_t> indexOf;
    for (std::size_t i = 0; i < pass.events.size(); ++i) {
        indexOf.emplace(pass.events[i].utterance.id, i);
        pass.sessions[i].frames = pass.events[i].utterance.frames.size();
    }
    auto &reg = telemetry::MetricRegistry::global();
    pass.ledgerBefore = reg.snapshot();
    std::atomic<std::size_t> finished{0};
    const auto epoch = Clock::now() + std::chrono::milliseconds(5);
    {
        StreamingServer server(sys, config, journal);
        // Runs on the session's worker; a session's chunks run on one
        // worker in order, so its record has a single writer.
        server.setPartialCallback(
            [&](std::uint64_t id, const PartialHypothesis &partial) {
                const double now = since(epoch);
                SessionTimes &s = pass.sessions[indexOf.at(id)];
                if (s.first == 0.0)
                    s.first = now;
                if (partial.frames == s.frames) {
                    s.last = now;
                    finished.fetch_add(1);
                }
            });
        const double cpu0 = cpuSeconds();
        std::size_t accepted = 0;
        for (std::size_t i = 0; i < pass.events.size(); ++i) {
            SessionTimes &s = pass.sessions[i];
            s.due = pass.events[i].arrivalSeconds;
            const auto dueAt = epoch +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s.due));
            // Sleep to just short of the due time, then spin: a woken
            // thread can start late by a scheduler tick or more.
            std::this_thread::sleep_until(dueAt - kGenSpin);
            while (Clock::now() < dueAt)
                std::this_thread::yield();
            s.offerStart = since(epoch);
            s.accepted = server.offer(pass.events[i].utterance);
            s.offerEnd = since(epoch);
            accepted += s.accepted ? 1 : 0;
            if (sampleThreads) {
                const auto t0 = Clock::now();
                pass.threadsPeak = std::max(
                    pass.threadsPeak,
                    static_cast<std::size_t>(procStatus("Threads")));
                // A session can finish before its offer() returns.
                const std::size_t ended = finished.load();
                pass.inflightPeak = std::max(
                    pass.inflightPeak, accepted > ended ? accepted - ended : 0);
                pass.samplingSeconds += since(t0);
            }
        }
        server.drain();
        pass.wall = since(epoch);
        pass.cpu = cpuSeconds() - cpu0;
        pass.report = server.report();
        pass.outcomes = server.outcomes();
    }
    pass.ledgerAfter = reg.snapshot();
    pass.storeWrites =
        counterDelta(pass.ledgerBefore, pass.ledgerAfter, "store.writes");
    return pass;
}

/**
 * Ledger identities and generator validity of one pass, and the client
 * view of every offered session: served when it completed (neither
 * shed nor degraded) and its last partial covered every frame.
 */
std::vector<RequestTimes>
checkServePass(const ServePass &pass, Result &out, double &lagP99)
{
    const ServeReport &rep = pass.report;
    out.check(rep.admitted + rep.shed == rep.offered,
              "ledger: admitted + shed != offered");
    out.check(rep.completed + rep.degraded == rep.admitted,
              "ledger: completed + degraded != admitted");
    out.check(rep.offered == pass.events.size(),
              "ledger: offered != generated sessions");
    // Generator lateness: how long after its due time (or after the
    // previous offer returned, when that call overran the due time) a
    // send started. Time inside offer() is the server's, and is
    // charged to the sessions through their due-time latencies.
    std::vector<double> lagMs;
    double prevOfferEnd = 0.0;
    for (const SessionTimes &s : pass.sessions) {
        lagMs.push_back((s.offerStart - std::max(s.due, prevOfferEnd)) *
                        1e3);
        prevOfferEnd = s.offerEnd;
    }
    lagP99 = percentile(lagMs, 99.0);
    out.check(lagP99 <= kGenLagBoundMs,
              "generator lag p99 " + std::to_string(lagP99) +
                  " ms exceeds the bound");

    std::vector<bool> completed(pass.events.size(), false);
    for (const SessionOutcome &o : pass.outcomes)
        completed[o.index] = !o.degraded;
    std::vector<RequestTimes> requests;
    for (std::size_t i = 0; i < pass.sessions.size(); ++i) {
        const SessionTimes &s = pass.sessions[i];
        out.check(!(s.accepted && completed[i]) || s.last > 0.0,
                  "completed session without a final partial");
        requests.push_back(
            {s.due, s.first, s.last, s.accepted && completed[i] && s.last > 0.0});
    }
    out.attempted += rep.offered;
    out.failed += rep.shed + rep.degraded;
    return requests;
}

/** What re-decoding a pass's completed sessions in batch measured. */
struct Redecode
{
    std::vector<std::vector<WordId>> hyps;
    std::vector<std::vector<WordId>> refs;
    std::size_t completedFrames = 0;
    SearchTotals totals;
    double searchUs = 0.0;
    double observedUs = 0.0;
};

/**
 * Batch decode of every completed session with the serving config; each
 * served transcript must equal it. Plain: each session is scored and
 * decoded unobserved. Traced: each session is scored, decoded
 * unobserved and decoded under the simulator, each timed.
 */
Redecode
redecode(AsrSystem &sys, const ServeConfig &config, const ServePass &pass,
         bool trace, SpanRecorder &rec, Result &out)
{
    std::vector<const SessionOutcome *> done;
    for (const SessionOutcome &o : pass.outcomes)
        if (!o.degraded)
            done.push_back(&o);
    std::sort(done.begin(), done.end(),
              [](const auto *a, const auto *b) { return a->index < b->index; });
    const SystemConfig &cfg = config.system;
    std::vector<std::vector<WordId>> words(done.size());
    std::vector<DecodeResult> searched(trace ? done.size() : 0);
    std::vector<double> searchUs(done.size());
    std::vector<double> observedUs(done.size());
    Redecode r;
    std::mutex mutex;
    closedLoop(done.size(), [&](std::size_t k) {
        const Utterance &utt = pass.events[done[k]->index].utterance;
        std::shared_ptr<const AcousticScores> scores;
        {
            SpanRecorder::Scope s(rec, "system.scores_for", utt.id);
            scores = sys.scoresFor(utt, cfg.prune);
        }
        if (!trace) {
            words[k] = decodePlain(sys, *scores, cfg).words;
            return;
        }
        auto t0 = Clock::now();
        {
            SpanRecorder::Scope s(rec, "decoder.search", utt.id);
            searched[k] = decodePlain(sys, *scores, cfg);
        }
        searchUs[k] = since(t0) * 1e6;
        t0 = Clock::now();
        ObservedDecode d;
        {
            SpanRecorder::Scope s(rec, "decoder.decode_with_sim", utt.id);
            d = decodeWithSim(sys, *scores, cfg);
        }
        observedUs[k] = since(t0) * 1e6;
        words[k] = std::move(d.decode.words);
        std::lock_guard<std::mutex> lock(mutex);
        r.totals.addSim(d.sim);
    });
    for (std::size_t k = 0; k < done.size(); ++k) {
        const std::size_t i = done[k]->index;
        out.check(done[k]->words == words[k],
                  "served transcript differs from batch decode (session " +
                      std::to_string(i) + ")");
        r.hyps.push_back(done[k]->words);
        r.refs.push_back(pass.events[i].utterance.words);
        r.completedFrames += pass.sessions[i].frames;
        if (trace) {
            r.totals.add(searched[k]);
            r.searchUs += searchUs[k];
            r.observedUs += observedUs[k];
        }
    }
    return r;
}

/** Serve spans, built from the client timestamps after the pass:
 *  session [due, last partial] with its offer, the wait from offer
 *  return to the first partial, and the rest of the decode. */
void
addServeSpans(const ServePass &pass, SpanRecorder &rec)
{
    const auto us = [](double t) { return t * 1e6; };
    for (std::size_t i = 0; i < pass.sessions.size(); ++i) {
        const SessionTimes &s = pass.sessions[i];
        const std::uint64_t id = pass.events[i].utterance.id;
        const auto track = static_cast<std::uint32_t>(100000 + i);
        const double end = s.last > 0.0 ? s.last : s.offerEnd;
        const std::int64_t session = rec.add(
            {"serve.session", us(s.due), us(end), kNoParent, id, track});
        rec.add({"serve.offer", us(s.offerStart), us(s.offerEnd), session,
                 id, track});
        if (s.first > 0.0) {
            rec.add({"serve.admit_to_first_partial", us(s.offerEnd),
                     us(s.first), session, id, track});
            rec.add({"serve.first_to_last_partial", us(s.first), us(end),
                     session, id, track});
        }
    }
}

std::vector<TrafficEvent>
serveTraffic(const ExperimentContext &ctx, std::uint64_t seed,
             double seconds)
{
    const std::vector<Utterance> base = ctx.corpus.sampleUtterances(
        kServeBaseUtterances, mix64(seed ^ 0x5e7e'5e7ull));
    TrafficConfig traffic;
    traffic.sessions =
        static_cast<std::size_t>(std::floor(kServeRate * seconds));
    traffic.arrivalsPerSecond = kServeRate;
    traffic.maxLengthMultiple = kServeMaxLengthMultiple;
    traffic.seed = mix64(seed ^ 0x7aff'1cull);
    return SyntheticTrafficGenerator(base, traffic).generate();
}

void
runServe(ExperimentContext &ctx, std::uint64_t seed, double seconds,
         bool trace, const std::string &workDir, SpanRecorder &rec,
         Result &out)
{
    AsrSystem &sys = ctx.system;
    const ServeConfig config = serveConfig(ctx.setup);
    // Warm-up traffic of its own seed: fresh session ids, no cache hits
    // for the measured pass.
    runServePass(sys, serveTraffic(ctx, ~seed, kServeWarmupSeconds), config,
                 nullptr, false);
    double lagP99 = 0.0;
    if (!trace) {
        const ServePass pass = runServePass(
            sys, serveTraffic(ctx, seed, seconds), config, nullptr, false);
        const std::vector<RequestTimes> requests =
            checkServePass(pass, out, lagP99);
        const Redecode r = redecode(sys, config, pass, false, rec, out);
        const LatencySummary lat = summarize(requests, kFirstResultLimitMs);
        out.check(lat.p99Supported, "too few completed sessions for a p99");
        const ServeReport &rep = pass.report;
        std::printf("serve: %" PRIu64 " offered, %" PRIu64 " shed, %" PRIu64
                    " completed, %" PRIu64 " degraded; gen lag p99 %.3f ms\n",
                    rep.offered, rep.shed, rep.completed, rep.degraded,
                    lagP99);
        out.add("speech_s_per_wall_s",
                speechSeconds(r.completedFrames) / pass.wall, "s/s");
        addSimMetrics(runPlainRound(sys, evalSet(ctx), {config.system},
                                    Clock::now()),
                      out);
        out.add("wer_pct",
                100.0 * scoreTranscripts(r.hyps, r.refs).wordErrorRate(), "%");
        out.add("ttfp_p50_ms", lat.firstP50Ms, "ms");
        out.add("session_p50_ms", lat.doneP50Ms, "ms");
        out.add("session_p99_ms", lat.doneP99Ms, "ms");
        out.add("goodput_ratio", lat.goodput, "ratio");
        return;
    }

    // Traced: the first half of the window serves plain, the second
    // half serves the same sessions (fresh cache keys) with a session
    // journal on the artifact store; the difference is the journal's.
    std::vector<TrafficEvent> events = serveTraffic(ctx, seed, seconds / 2);
    std::vector<TrafficEvent> again = events;
    for (TrafficEvent &e : again)
        e.utterance.id = mix64(e.utterance.id) | 1;
    const ServePass plain =
        runServePass(sys, std::move(events), config, nullptr, true);
    const std::string journalDir = workDir + "/journal";
    std::filesystem::remove_all(journalDir);
    ServePass journaled;
    {
        ServeCheckpoint journal(journalDir);
        journaled =
            runServePass(sys, std::move(again), config, &journal, false);
    }
    std::filesystem::remove_all(journalDir);

    const std::vector<RequestTimes> requests =
        checkServePass(plain, out, lagP99);
    double journaledLag = 0.0;
    checkServePass(journaled, out, journaledLag);
    std::vector<std::vector<WordId>> plainWords(plain.events.size());
    for (const SessionOutcome &o : plain.outcomes)
        plainWords[o.index] = o.words;
    for (const SessionOutcome &o : journaled.outcomes)
        out.check(o.degraded || o.words == plainWords[o.index],
                  "journaled transcript differs from plain serving");
    addServeSpans(plain, rec);

    std::vector<double> offerUs;
    std::vector<double> admitMs;
    std::vector<double> clientSessionMs;
    for (std::size_t i = 0; i < plain.sessions.size(); ++i) {
        const SessionTimes &s = plain.sessions[i];
        offerUs.push_back((s.offerEnd - s.offerStart) * 1e6);
        if (requests[i].served) {
            admitMs.push_back((s.first - s.offerEnd) * 1e3);
            clientSessionMs.push_back((s.last - s.offerStart) * 1e3);
        }
    }
    const ServeReport &rep = plain.report;
    out.add("serve.offer_us.p50", percentile(offerUs, 50.0), "us");
    out.add("serve.offer_us.p95", percentile(offerUs, 95.0), "us");
    out.add("serve.admit_to_first_partial_ms.p50", percentile(admitMs, 50.0),
            "ms");
    out.add("serve.admit_to_first_partial_ms.p95", percentile(admitMs, 95.0),
            "ms");
    out.add("serve.chunk_us.p50", rep.chunkLatencyUs.percentile(50.0), "us");
    out.add("serve.chunk_us.p99", rep.chunkLatencyUs.percentile(99.0), "us");
    out.add("serve.threads_peak", static_cast<double>(plain.threadsPeak),
            "count");
    out.add("serve.inflight_peak", static_cast<double>(plain.inflightPeak),
            "count");
    out.add("serve.gen_lag_ms.p99", lagP99, "ms");
    out.add("store.writes_per_session",
            ratio(static_cast<double>(journaled.storeWrites),
                  static_cast<double>(journaled.report.admitted)),
            "count");
    // Server-side session latency (offer to the end of the session task,
    // past the last partial: finish and, when journaled, the commit).
    out.add("store.journal_ms",
            (journaled.report.sessionLatencyUs.percentile(50.0) -
             rep.sessionLatencyUs.percentile(50.0)) / 1e3,
            "ms");

    // Probes on the serving base utterances and the served sessions.
    const ProbeScores probes = probeScoring(
        ctx, ctx.corpus.sampleUtterances(kSweepUtterances,
                                         mix64(seed ^ 0x5e7e'5e7ull)),
        rec, out);
    probeKernels(ctx, {PruneLevel::P90}, out);
    std::size_t p90Frames = 0;
    for (const auto &s : probes[static_cast<std::size_t>(PruneLevel::P90)])
        p90Frames += s.frameCount();
    const auto probeLayers = layerTimes(rec.spans());
    const double mflop = mflopPerFrame(ctx.zoo.model(PruneLevel::P90));
    out.add("dnn.mflop_per_frame", mflop, "MFLOP");
    out.add("dnn.gflops",
            mflop * 1e6 * static_cast<double>(p90Frames) /
                (probeLayers.at("dnn.score.p90").totalUs * 1e3),
            "GFLOP/s");

    const Redecode r = redecode(sys, config, plain, true, rec, out);
    const double frames = static_cast<double>(r.totals.frames);
    addSearchMetrics(r.totals, ratio(r.searchUs, frames),
                     ratio(r.observedUs, frames), out);
    const auto layers = layerTimes(rec.spans());
    out.add("system.scores_for_us_per_frame",
            ratio(layers.at("system.scores_for").totalUs,
                  static_cast<double>(r.totals.frames)),
            "us");
    out.add("cache.hit_ratio",
            ratio(counterDelta(plain.ledgerBefore, plain.ledgerAfter,
                               "dnn.cache.hit"),
                  counterDelta(plain.ledgerBefore, plain.ledgerAfter,
                               "dnn.cache.lookup")),
            "ratio");
    out.add("cache.evict",
            static_cast<double>(counterDelta(
                plain.ledgerBefore, plain.ledgerAfter, "dnn.cache.evict")),
            "count");
    out.add("proc.cpu_util", plain.cpu / plain.wall, "ratio");
    out.add("trace.overhead_ratio", plain.samplingSeconds / plain.wall,
            "ratio");
    // Share of session time outside offer, first-partial wait and
    // decode: the generator's lateness before each send.
    const auto &session = layers.at("serve.session");
    out.add("trace.residual_ratio", ratio(session.selfUs, session.totalUs),
            "ratio");
}

// --- entry points -------------------------------------------------------

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cache;
    std::string work;
    std::string pins;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench_harness prepare|run "
                                    "[--option value ...]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::stoull(value);
        else if (key == "--seconds")
            a.seconds = std::stod(value);
        else if (key == "--trace")
            a.trace = value == "1";
        else if (key == "--cache")
            a.cache = value;
        else if (key == "--work")
            a.work = value;
        else if (key == "--pins")
            a.pins = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (a.cache.empty())
        throw std::invalid_argument("--cache is required");
    if (a.mode == "run" && a.pins.empty())
        throw std::invalid_argument("--pins is required");
    if (a.seconds <= 0.0)
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

int
run(const Args &args)
{
    const ExperimentSetup setup = setupFor(args.cache);
    if (args.mode == "prepare") {
        const auto t0 = Clock::now();
        buildContext(setup);
        std::printf("prepare: model zoo ready in %.1f s\n", since(t0));
        return 0;
    }
    if (args.mode != "run")
        throw std::invalid_argument("unknown mode " + args.mode);
    const bool sweep = args.workload == "sweep_unbounded" ||
        args.workload == "sweep_nbest";
    const bool serve = args.workload == "serve_nbest90";
    if (!sweep && !serve)
        throw std::invalid_argument("unknown workload " + args.workload);
    if (args.work.empty())
        throw std::invalid_argument("--work is required");
    std::filesystem::create_directories(args.work);

    Result out;
    std::vector<double> setupS;
    std::unique_ptr<ExperimentContext> ctx;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        ctx.reset();
        const auto t0 = Clock::now();
        ctx = buildContext(setup);
        setupS.push_back(since(t0));
    }
    std::printf("info {\"backend\": \"%s\", \"workers\": %zu}\n",
                kernels::kernelBackendName(kernels::activeKernelBackend()),
                kWorkers);

    SpanRecorder rec(args.trace);
    const HostTicks ticks0 = hostTicks();
    if (sweep) {
        const std::vector<SearchMode> modes = args.workload == "sweep_nbest"
            ? std::vector<SearchMode>{SearchMode::NBestHash}
            : std::vector<SearchMode>{SearchMode::Baseline,
                                      SearchMode::NarrowBeam};
        runSweep(args.workload, modes, *ctx, args.seed, args.seconds,
                 args.trace, args.pins, rec, out);
    } else {
        runServe(*ctx, args.seed, args.seconds, args.trace, args.work, rec,
                 out);
    }

    // The share of CPU time the hypervisor gave to other guests during
    // the workload: the wall-time metrics rise with it on a shared host.
    const HostTicks ticks1 = hostTicks();
    std::printf("host {\"steal_share\": %.4f}\n",
                ratio(ticks1.steal - ticks0.steal, ticks1.total - ticks0.total));
    if (!args.trace) {
        out.add("setup_s", median(setupS), "s");
        out.add("peak_rss_mb", procStatus("VmHWM") / 1024.0, "MB");
        out.add("completed_ratio",
                ratio(static_cast<double>(out.attempted - out.failed),
                      static_cast<double>(out.attempted)),
                "ratio");
    } else {
        const std::string path = args.work + "/trace-" + args.workload +
            "-seed" + std::to_string(args.seed) + ".json";
        std::ofstream file(path);
        file << chromeTraceJson(
            rec.spans(),
            {{"workload", args.workload},
             {"seed", std::to_string(args.seed)},
             {"backend",
              kernels::kernelBackendName(kernels::activeKernelBackend())}});
        out.check(static_cast<bool>(file), "cannot write " + path);
        std::printf("trace: %s\n", path.c_str());
    }
    if (!out.ok())
        return 1;
    std::printf("%s\n", out.json().c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 2;
    }
}
