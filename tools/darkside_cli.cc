/**
 * @file
 * darkside — command-line front end to the library.
 *
 * Subcommands:
 *   corpus    print language / lexicon / graph statistics
 *   train     train the dense acoustic model and save it
 *   prune     prune + retrain a trained model at a target sparsity
 *   eval      evaluate model quality (top-1/top-5/confidence)
 *   decode    decode the test set with a chosen hypothesis selector
 *   simulate  run one full system configuration on the simulated HW
 *   sweep     run the complete {Baseline,Beam,NBest} x pruning matrix
 *   serve     streaming session server over synthetic traffic
 *
 * All subcommands share the scaled experiment setup; flags tweak the
 * pieces relevant to each. Run `darkside <subcommand> --help`.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decoder/lattice.hh"
#include "decoder/search_telemetry.hh"
#include "fault/fault.hh"
#include "nbest/adaptive_selectors.hh"
#include "serve/serve_bench.hh"
#include "serve/serve_checkpoint.hh"
#include "store/checkpoint.hh"
#include "system/defaults.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/argparse.hh"
#include "util/text_table.hh"

using namespace darkside;

namespace {

/** Apply the common setup-shaping flags. */
void
addSetupFlags(ArgParser &args)
{
    args.addOption("utts", "test utterances", 12.0);
    args.addOption("cache", "model cache directory", "darkside_cache");
    args.addOption("beam", "beam width override (0 = config default)",
                   0.0);
    args.addOption("metrics",
                   "write a darkside-metrics-v1 JSON snapshot here", "");
    args.addOption("fault-plan",
                   "arm a darkside-fault-plan-v1 JSON plan "
                   "(or set DARKSIDE_FAULT_PLAN)",
                   "");
}

/**
 * Honour --fault-plan / DARKSIDE_FAULT_PLAN. A malformed plan is an
 * operator configuration error and dies; injected faults themselves
 * degrade gracefully downstream.
 */
void
armFaultPlan(const ArgParser &args)
{
    std::string path = args.get("fault-plan");
    if (path.empty()) {
        if (const char *env = std::getenv("DARKSIDE_FAULT_PLAN"))
            path = env;
    }
    if (path.empty())
        return;
    auto plan = FaultPlan::loadFile(path);
    if (!plan)
        fatal("%s", plan.message().c_str());
    FaultInjector::global().arm(plan.take());
    inform("fault injection armed from '%s'", path.c_str());
}

/** Honour --metrics: dump the global registry as schema JSON. */
int
writeMetrics(const ArgParser &args)
{
    const std::string &path = args.get("metrics");
    if (path.empty())
        return 0;
    const auto snap = telemetry::MetricRegistry::global().snapshot();
    if (!snap.writeJsonFile(path)) {
        std::fprintf(stderr, "cannot write metrics to '%s'\n",
                     path.c_str());
        return 1;
    }
    return 0;
}

ExperimentSetup
setupFrom(const ArgParser &args)
{
    armFaultPlan(args);
    ExperimentSetup setup = scaledSetup();
    setup.testUtterances =
        static_cast<std::size_t>(args.getInt("utts"));
    setup.zoo.cacheDir = args.get("cache");
    return setup;
}

PruneLevel
levelFrom(const std::string &name)
{
    if (name == "none" || name == "0")
        return PruneLevel::None;
    if (name == "70")
        return PruneLevel::P70;
    if (name == "80")
        return PruneLevel::P80;
    if (name == "90")
        return PruneLevel::P90;
    fatal("unknown pruning level '%s' (use none|70|80|90)",
          name.c_str());
}

SearchMode
modeFrom(const std::string &name)
{
    if (name == "baseline")
        return SearchMode::Baseline;
    if (name == "beam")
        return SearchMode::NarrowBeam;
    if (name == "nbest")
        return SearchMode::NBestHash;
    if (name == "rel")
        return SearchMode::RelativeThreshold;
    if (name == "adaptive")
        return SearchMode::AdaptiveBeam;
    fatal("unknown search mode '%s' "
          "(use baseline|beam|nbest|rel|adaptive)",
          name.c_str());
}

/** Parse a comma-separated search-mode list ("baseline,rel,..."). */
std::vector<SearchMode>
modesFrom(const std::string &list)
{
    std::vector<SearchMode> modes;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!name.empty())
            modes.push_back(modeFrom(name));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (modes.empty())
        fatal("--modes needs at least one search mode");
    return modes;
}

int
cmdCorpus(int argc, const char *const *argv)
{
    ArgParser args("darkside corpus", "language and graph statistics");
    addSetupFlags(args);
    if (!args.parse(argc, argv))
        return 1;

    const ExperimentSetup setup = setupFrom(args);
    const Corpus corpus(setup.corpus);
    GraphBuilder builder(corpus.inventory(), corpus.lexicon(),
                         corpus.grammar(), setup.graph);
    const Wfst fst = builder.build();

    std::printf("phonemes: %u x %u states = %u sub-phoneme classes\n",
                corpus.inventory().phonemeCount(),
                corpus.inventory().statesPerPhoneme(),
                corpus.inventory().pdfCount());
    std::printf("vocabulary: %u words, %zu phoneme tokens\n",
                corpus.lexicon().wordCount(),
                corpus.lexicon().totalPhonemes());
    std::printf("grammar: %u followers/word, P(eos) = %.2f\n",
                setup.corpus.grammarBranching,
                setup.corpus.eosProbability);
    std::printf("decoding graph: %s\n", fst.summary().c_str());
    std::printf("DNN input: %zu features (%zu-dim frames, +/-%zu "
                "context)\n",
                corpus.spliceDim(),
                static_cast<std::size_t>(
                    setup.corpus.synthesizer.featureDim),
                setup.corpus.contextFrames);

    const auto utts = corpus.sampleUtterances(
        setup.testUtterances, setup.testSeed);
    std::size_t frames = 0, words = 0;
    for (const auto &u : utts) {
        frames += u.frames.size();
        words += u.words.size();
    }
    std::printf("test set: %zu utterances, %zu words, %zu frames "
                "(%.1f s of speech)\n",
                utts.size(), words, frames, frames * 0.01);
    return 0;
}

int
cmdTrain(int argc, const char *const *argv)
{
    ArgParser args("darkside train",
                   "train the dense acoustic model and save it");
    addSetupFlags(args);
    args.addOption("out", "output model file", "dense.mlp");
    args.addOption("epochs", "training epochs", 8.0);
    if (!args.parse(argc, argv))
        return 1;

    ExperimentSetup setup = setupFrom(args);
    setup.zoo.training.epochs =
        static_cast<std::size_t>(args.getInt("epochs"));
    setup.zoo.cacheDir = ""; // explicit file output instead

    const Corpus corpus(setup.corpus);
    const ModelZoo zoo(corpus, setup.zoo);
    zoo.model(PruneLevel::None).save(args.get("out"));
    std::printf("saved dense model to %s\n%s",
                args.get("out").c_str(),
                zoo.model(PruneLevel::None).summary().c_str());
    return 0;
}

int
cmdPrune(int argc, const char *const *argv)
{
    ArgParser args("darkside prune",
                   "prune + retrain a trained model");
    addSetupFlags(args);
    args.addOption("in", "input model file", "dense.mlp");
    args.addOption("out", "output model file", "pruned.mlp");
    args.addOption("target", "target pruned fraction", 0.9);
    args.addOption("retrain-epochs", "retraining epochs", 4.0);
    if (!args.parse(argc, argv))
        return 1;

    const ExperimentSetup setup = setupFrom(args);
    const Corpus corpus(setup.corpus);
    Mlp model = Mlp::load(args.get("in"));

    const auto train_utts = corpus.sampleUtterances(
        setup.zoo.trainUtterances, setup.zoo.trainSeed);
    const FrameDataset data = corpus.frameDataset(train_utts);

    const double quality = MagnitudePruner::findQualityForTarget(
        model, args.getNumber("target"));
    TrainerConfig retrain = setup.zoo.retraining;
    retrain.epochs =
        static_cast<std::size_t>(args.getInt("retrain-epochs"));
    PruneReport report;
    Mlp pruned =
        pruneAndRetrain(model, data, quality, retrain, &report);
    pruned.save(args.get("out"));
    std::printf("%s\nsaved pruned model to %s\n",
                report.render().c_str(), args.get("out").c_str());
    return 0;
}

int
cmdEval(int argc, const char *const *argv)
{
    ArgParser args("darkside eval",
                   "model quality: accuracy and confidence");
    addSetupFlags(args);
    if (!args.parse(argc, argv))
        return 1;

    const ExperimentSetup setup = setupFrom(args);
    ExperimentContext ctx(setup);
    const FrameDataset test = ctx.corpus.frameDataset(ctx.testSet);

    TextTable table;
    table.header({"model", "top-1", "top-5", "confidence", "xent"});
    for (PruneLevel level : kAllPruneLevels) {
        const EvalReport eval =
            Trainer::evaluate(ctx.zoo.model(level), test, 5);
        table.row({pruneLevelName(level),
                   TextTable::num(eval.top1Accuracy, 3),
                   TextTable::num(eval.topKAccuracy, 3),
                   TextTable::num(eval.meanConfidence, 3),
                   TextTable::num(eval.meanCrossEntropy, 3)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdDecode(int argc, const char *const *argv)
{
    ArgParser args("darkside decode",
                   "decode the test set, print WER and workload");
    addSetupFlags(args);
    args.addOption("prune", "pruning level (none|70|80|90)", "none");
    args.addOption("selector",
                   "unbounded | nbest:<N>:<ways> | accurate:<N> | "
                   "rel:<margin>:<cap> | adaptive:<min>:<max>",
                   "unbounded");
    args.addOption("transcripts",
                   "write one per-utterance transcript line here", "");
    args.addSwitch("lattice", "print each utterance's top paths");
    if (!args.parse(argc, argv))
        return 1;

    const ExperimentSetup setup = setupFrom(args);
    ExperimentContext ctx(setup);
    const PruneLevel level = levelFrom(args.get("prune"));
    float beam = static_cast<float>(args.getNumber("beam"));
    if (beam <= 0.0f)
        beam = setup.baselineBeam;

    auto make_selector =
        [&]() -> std::unique_ptr<HypothesisSelector> {
        const std::string &spec = args.get("selector");
        if (spec == "unbounded") {
            return std::make_unique<UnboundedSelector>(
                setup.platform.viterbiBaseline.hashEntries,
                setup.platform.viterbiBaseline.backupEntries);
        }
        unsigned n = 0, ways = 8;
        if (std::sscanf(spec.c_str(), "nbest:%u:%u", &n, &ways) >= 1 &&
            n > 0) {
            return std::make_unique<SetAssociativeHash>(n, ways);
        }
        if (std::sscanf(spec.c_str(), "accurate:%u", &n) == 1 && n > 0)
            return std::make_unique<AccurateNBest>(n);
        float margin = 0.0f, max_margin = 0.0f;
        if (std::sscanf(spec.c_str(), "rel:%f:%u", &margin, &n) == 2 &&
            margin > 0.0f && n > 0) {
            return std::make_unique<RelativeThresholdSelector>(margin,
                                                               n);
        }
        if (std::sscanf(spec.c_str(), "adaptive:%f:%f", &margin,
                        &max_margin) == 2 &&
            margin > 0.0f && max_margin >= margin) {
            return std::make_unique<AdaptiveBeamSelector>(margin,
                                                          max_margin);
        }
        fatal("bad --selector '%s'", spec.c_str());
    };

    // Scores come from the system's one scoring path (compiled engine
    // per level, score cache); each decode feeds the telemetry
    // observer, so --metrics captures both stages.
    const LatticeDecoder decoder(ctx.fst, DecoderConfig{beam});
    SearchTelemetry search_telemetry;
    EditStats wer;
    std::uint64_t survivors = 0, frames = 0, degraded = 0;
    std::string transcripts;
    for (std::size_t i = 0; i < ctx.testSet.size(); ++i) {
        const auto &utt = ctx.testSet[i];
        // Per-utterance isolation: a fault anywhere in this body
        // degrades just this utterance; the batch carries on and the
        // command still exits 0.
        try {
            const auto scores = ctx.system.scoresFor(utt, level);
            if (!scores->finite()) {
                throw FaultError("inference.scores",
                                 FaultKind::NanScores, utt.id);
            }
            // The software lattice decoder runs no watchdog; injected
            // decode faults degrade the utterance directly.
            if (auto kind = FaultInjector::global().trigger(
                    "decoder.decode", utt.id))
                throw FaultError("decoder.decode", *kind, utt.id);

            auto selector = make_selector();
            Lattice lattice;
            const DecodeResult result =
                decoder.decode(*scores, *selector, lattice,
                               &search_telemetry);
            wer.merge(alignSequences(utt.words, result.words));
            survivors += result.totalSurvivors();
            frames += result.frames.size();
            transcripts.append("utt ").append(std::to_string(i)).append(
                " ok");
            for (WordId w : result.words)
                transcripts.append(" ").append(std::to_string(w));
            transcripts += "\n";
            if (args.getSwitch("lattice")) {
                std::printf("ref:");
                for (WordId w : utt.words)
                    std::printf(" %u", w);
                std::printf("\n%s", lattice.render(4).c_str());
            }
        } catch (const FaultError &e) {
            ++degraded;
            FaultInjector::global().noteDegraded();
            transcripts.append("utt ")
                .append(std::to_string(i))
                .append(" degraded ")
                .append(e.what())
                .append("\n");
            warn("utt %zu degraded: %s", i, e.what());
        }
    }
    std::printf("WER %.2f%% (%llu errors / %llu words), "
                "%.0f hypotheses/frame\n",
                100.0 * wer.wordErrorRate(),
                static_cast<unsigned long long>(wer.errors()),
                static_cast<unsigned long long>(wer.referenceLength),
                frames == 0 ? 0.0
                            : static_cast<double>(survivors) /
                        static_cast<double>(frames));
    if (degraded > 0) {
        std::printf("degraded %llu/%zu utterances (see fault.* "
                    "metrics)\n",
                    static_cast<unsigned long long>(degraded),
                    ctx.testSet.size());
    }
    if (!args.get("transcripts").empty()) {
        std::ofstream os(args.get("transcripts"));
        os << transcripts;
        if (!os) {
            std::fprintf(stderr, "cannot write transcripts to '%s'\n",
                         args.get("transcripts").c_str());
            return 1;
        }
    }
    return writeMetrics(args);
}

int
cmdSimulate(int argc, const char *const *argv)
{
    ArgParser args("darkside simulate",
                   "run one configuration on the simulated hardware");
    addSetupFlags(args);
    args.addOption("prune", "pruning level (none|70|80|90)", "none");
    args.addOption("mode", "baseline | beam | nbest | rel | adaptive",
                   "baseline");
    if (!args.parse(argc, argv))
        return 1;

    const ExperimentSetup setup = setupFrom(args);
    ExperimentContext ctx(setup);
    SystemConfig config = setup.configFor(modeFrom(args.get("mode")),
                                          levelFrom(args.get("prune")));
    if (args.getNumber("beam") > 0.0)
        config.beam = static_cast<float>(args.getNumber("beam"));

    const TestSetResult r = ctx.system.runTestSet(ctx.testSet, config);
    std::printf("config %s (beam %.1f)\n", config.label().c_str(),
                config.beam);
    std::printf("WER           %.2f%%\n",
                100.0 * r.wer.wordErrorRate());
    std::printf("confidence    %.3f\n", r.meanConfidence);
    std::printf("hyps/frame    %.0f\n", r.meanSurvivorsPerFrame());
    std::printf("DNN           %.3f ms  %.3f mJ\n",
                1e3 * r.dnn.seconds, 1e3 * r.dnn.joules);
    std::printf("Viterbi       %.3f ms  %.3f mJ\n",
                1e3 * r.viterbi.seconds, 1e3 * r.viterbi.joules);
    std::printf("search ms per speech second: p50 %.2f  p99 %.2f\n",
                1e3 * r.searchLatencyPerSpeechSecond.percentile(50),
                1e3 * r.searchLatencyPerSpeechSecond.percentile(99));
    if (r.degraded > 0) {
        std::printf("degraded      %llu/%zu utterances\n",
                    static_cast<unsigned long long>(r.degraded),
                    ctx.testSet.size());
    }
    return writeMetrics(args);
}

int
cmdSweep(int argc, const char *const *argv)
{
    ArgParser args("darkside sweep",
                   "the full configuration matrix (Figs. 11/12)");
    addSetupFlags(args);
    args.addOption("run-dir",
                   "run directory: checkpoint journal + persistent "
                   "score cache ('' = no checkpointing)",
                   "");
    args.addSwitch("resume",
                   "resume a killed run: replay completed units from "
                   "--run-dir's journal");
    args.addOption("threads", "decode worker threads", 1.0);
    args.addOption("modes",
                   "comma-separated search modes to sweep "
                   "(baseline|beam|nbest|rel|adaptive)",
                   "baseline,beam,nbest");
    if (!args.parse(argc, argv))
        return 1;

    const ExperimentSetup setup = setupFrom(args);
    ExperimentContext ctx(setup);
    const auto threads =
        static_cast<std::size_t>(args.getInt("threads"));
    if (threads == 0)
        fatal("--threads must be at least 1");

    const std::string &run_dir = args.get("run-dir");
    if (args.getSwitch("resume") && run_dir.empty())
        fatal("--resume requires --run-dir");
    std::optional<RunCheckpoint> checkpoint;
    if (!run_dir.empty()) {
        checkpoint.emplace(run_dir);
        // The run directory doubles as the persistent score cache, so
        // a resumed run does not re-score utterances from batches that
        // never committed.
        ctx.system.attachStore(
            std::make_shared<const ArtifactStore>(run_dir));
        inform("sweep: %s checkpointed run in '%s'",
               args.getSwitch("resume") ? "resuming" : "starting",
               run_dir.c_str());
    }

    // Run the whole matrix, then normalize against its first row
    // (Baseline-NP): one run per configuration keeps checkpoint unit
    // ids collision-free.
    std::vector<TestSetResult> results;
    for (SearchMode mode : modesFrom(args.get("modes"))) {
        for (PruneLevel level : kAllPruneLevels) {
            results.push_back(ctx.system.runTestSet(
                ctx.testSet, setup.configFor(mode, level), threads,
                checkpoint ? &*checkpoint : nullptr));
        }
    }
    const double norm_t = results.front().totalSeconds();
    const double norm_e = results.front().totalJoules();

    TextTable table;
    table.header({"config", "time %", "energy %", "speedup",
                  "energy sav", "WER %"});
    for (const TestSetResult &r : results) {
        table.row(
            {r.config.label(),
             TextTable::num(100.0 * r.totalSeconds() / norm_t, 1),
             TextTable::num(100.0 * r.totalJoules() / norm_e, 1),
             TextTable::num(norm_t / r.totalSeconds(), 2) + "x",
             TextTable::num(norm_e / r.totalJoules(), 2) + "x",
             TextTable::num(100.0 * r.wer.wordErrorRate(), 2)});
    }
    std::printf("%s", table.render().c_str());
    return writeMetrics(args);
}

int
cmdServe(int argc, const char *const *argv)
{
    ArgParser args("darkside serve",
                   "streaming session server over synthetic traffic "
                   "(docs/SERVING.md)");
    addSetupFlags(args);
    args.addOption("prune", "pruning level (none|70|80|90)", "90");
    args.addOption("mode", "baseline | beam | nbest | rel | adaptive",
                   "nbest");
    args.addOption("sessions", "sessions to offer", 32.0);
    args.addOption("rate", "open-loop Poisson arrivals per second",
                   200.0);
    args.addOption("tail", "Pareto shape of utterance lengths", 1.2);
    args.addOption("max-length",
                   "utterance length cap (base-utterance multiples)",
                   4.0);
    args.addOption("seed", "traffic seed", 20260808.0);
    args.addOption("chunk", "frames per chunk (0 = whole utterance)",
                   16.0);
    args.addOption("deadline",
                   "per-session wall budget in seconds (0 = off)", 0.0);
    args.addOption("threads", "session worker threads", 2.0);
    args.addOption("max-sessions",
                   "admission budget: concurrent sessions", 4.0);
    args.addOption("queue-depth",
                   "admission budget: queued pool tasks", 16.0);
    args.addOption("max-frames",
                   "admission length cap in frames (0 = off)", 0.0);
    args.addOption("breaker-k",
                   "circuit breaker: consecutive degraded sessions "
                   "that trip it (0 = off)",
                   0.0);
    args.addOption("breaker-cooldown",
                   "circuit breaker: seconds an open breaker waits "
                   "before half-opening",
                   0.05);
    args.addOption("run-dir",
                   "run directory: session journal + persistent score "
                   "cache ('' = no checkpointing)",
                   "");
    args.addSwitch("resume",
                   "resume a killed run: replay journaled sessions "
                   "from --run-dir");
    args.addOption("outcomes",
                   "write the deterministic per-session outcome dump "
                   "to this path",
                   "");
    args.addSwitch("no-pace",
                   "offer back to back instead of honoring the "
                   "arrival schedule (maximum admission pressure)");
    args.addSwitch("upfront-scoring",
                   "score each utterance in full before its first "
                   "chunk instead of pipelining scoring with decode");
    args.addSwitch("bench", "emit the BENCH_serve.json report");
    args.addOption("json",
                   "report JSON path (default BENCH_serve.json with "
                   "--bench)",
                   "");
    if (!args.parse(argc, argv))
        return 1;

    const ExperimentSetup setup = setupFrom(args);
    ExperimentContext ctx(setup);

    ServeWorkloadOptions options;
    options.serve.system = setup.configFor(modeFrom(args.get("mode")),
                                           levelFrom(args.get("prune")));
    if (args.getNumber("beam") > 0.0)
        options.serve.system.beam =
            static_cast<float>(args.getNumber("beam"));
    options.serve.chunkFrames =
        static_cast<std::size_t>(args.getInt("chunk"));
    options.serve.sessionDeadlineSeconds = args.getNumber("deadline");
    options.serve.threads =
        static_cast<std::size_t>(args.getInt("threads"));
    options.serve.admission.maxSessions =
        static_cast<std::size_t>(args.getInt("max-sessions"));
    options.serve.admission.maxQueueDepth =
        static_cast<std::size_t>(args.getInt("queue-depth"));
    options.serve.admission.maxSessionFrames =
        static_cast<std::size_t>(args.getInt("max-frames"));
    options.serve.breakerThreshold =
        static_cast<std::size_t>(args.getInt("breaker-k"));
    options.serve.breakerCooldownSeconds =
        args.getNumber("breaker-cooldown");
    options.traffic.sessions =
        static_cast<std::size_t>(args.getInt("sessions"));
    options.traffic.arrivalsPerSecond = args.getNumber("rate");
    options.traffic.tailShape = args.getNumber("tail");
    options.traffic.maxLengthMultiple =
        static_cast<std::size_t>(args.getInt("max-length"));
    options.traffic.seed =
        static_cast<std::uint64_t>(args.getInt("seed"));
    options.paceArrivals = !args.getSwitch("no-pace");
    options.serve.pipelineScoring = !args.getSwitch("upfront-scoring");
    if (options.serve.admission.maxSessions == 0)
        fatal("--max-sessions must be at least 1");

    const std::string &run_dir = args.get("run-dir");
    if (args.getSwitch("resume") && run_dir.empty())
        fatal("--resume requires --run-dir");
    std::optional<ServeCheckpoint> checkpoint;
    if (!run_dir.empty()) {
        checkpoint.emplace(run_dir);
        // The run directory doubles as the persistent score cache, so
        // a resumed run does not re-score utterances whose sessions
        // never committed.
        ctx.system.attachStore(
            std::make_shared<const ArtifactStore>(run_dir));
        options.checkpoint = &*checkpoint;
        options.serve.resume = args.getSwitch("resume");
        inform("serve: %s checkpointed run in '%s'",
               options.serve.resume ? "resuming" : "starting",
               run_dir.c_str());
    }

    // Warm the serving level's model + inference engine before the
    // clock starts: a long-lived server trains nothing during traffic.
    ctx.system.engineFor(options.serve.system.prune);

    std::vector<SessionOutcome> outcomes;
    const ServeReport report =
        runServeWorkload(ctx.system, ctx.testSet, options, &outcomes);
    printServeReport(std::cout, report, options);
    publishServeGauges(report);

    if (!args.get("outcomes").empty()) {
        std::ofstream os(args.get("outcomes"));
        os << serveOutcomesText(report, outcomes);
        if (!os) {
            std::fprintf(stderr, "cannot write outcomes to '%s'\n",
                         args.get("outcomes").c_str());
            return 1;
        }
    }

    std::string json_path = args.get("json");
    if (json_path.empty() && args.getSwitch("bench"))
        json_path = "BENCH_serve.json";
    if (!json_path.empty()) {
        std::ofstream os(json_path);
        os << serveReportJson(report, options);
        if (!os) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return writeMetrics(args);
}

void
printTopUsage()
{
    std::puts(
        "darkside — reproduction of 'The Dark Side of DNN Pruning'\n"
        "\n"
        "usage: darkside <subcommand> [flags]\n"
        "\n"
        "subcommands:\n"
        "  corpus     language and decoding-graph statistics\n"
        "  train      train the dense acoustic model\n"
        "  prune      prune + retrain a model\n"
        "  eval       model accuracy and confidence\n"
        "  decode     software decode with a chosen selector\n"
        "  simulate   one configuration on the simulated hardware\n"
        "  sweep      the full configuration matrix\n"
        "  serve      streaming session server over synthetic traffic\n"
        "\n"
        "run 'darkside <subcommand> --help' for flags");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printTopUsage();
        return 1;
    }
    const std::string command = argv[1];
    const int sub_argc = argc - 1;
    const char *const *sub_argv = argv + 1;

    if (command == "corpus")
        return cmdCorpus(sub_argc, sub_argv);
    if (command == "train")
        return cmdTrain(sub_argc, sub_argv);
    if (command == "prune")
        return cmdPrune(sub_argc, sub_argv);
    if (command == "eval")
        return cmdEval(sub_argc, sub_argv);
    if (command == "decode")
        return cmdDecode(sub_argc, sub_argv);
    if (command == "simulate")
        return cmdSimulate(sub_argc, sub_argv);
    if (command == "sweep")
        return cmdSweep(sub_argc, sub_argv);
    if (command == "serve")
        return cmdServe(sub_argc, sub_argv);
    printTopUsage();
    return 1;
}
