#include "system/model_zoo.hh"

#include "fault/fault.hh"
#include "fault/retry.hh"
#include "util/bits.hh"

namespace darkside {

const char *
pruneLevelName(PruneLevel level)
{
    switch (level) {
      case PruneLevel::None:
        return "Baseline";
      case PruneLevel::P70:
        return "70%Pruning";
      case PruneLevel::P80:
        return "80%Pruning";
      case PruneLevel::P90:
        return "90%Pruning";
    }
    return "?";
}

double
pruneLevelTarget(PruneLevel level)
{
    switch (level) {
      case PruneLevel::None:
        return 0.0;
      case PruneLevel::P70:
        return 0.70;
      case PruneLevel::P80:
        return 0.80;
      case PruneLevel::P90:
        return 0.90;
    }
    return 0.0;
}

namespace {

std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ (v + 0x9e3779b97f4a7c15ull));
}

/** Key binding a model cache file to the exact experiment setup. */
std::uint64_t
configKeyOf(const Corpus &corpus, const ModelZooConfig &config)
{
    std::uint64_t h = 0xdead5eedull;
    const auto &cc = corpus.config();
    h = hashCombine(h, cc.seed);
    h = hashCombine(h, cc.phonemes);
    h = hashCombine(h, cc.statesPerPhoneme);
    h = hashCombine(h, cc.words);
    h = hashCombine(h, cc.grammarBranching);
    h = hashCombine(h, static_cast<std::uint64_t>(
                        cc.synthesizer.noiseStddev * 1e6));
    h = hashCombine(h, static_cast<std::uint64_t>(
                        cc.synthesizer.meanRadius * 1e6));
    h = hashCombine(h, cc.synthesizer.confusableClusters);
    h = hashCombine(h, static_cast<std::uint64_t>(
                        cc.synthesizer.speakerStddev * 1e6));
    h = hashCombine(h, static_cast<std::uint64_t>(
                        cc.synthesizer.clusterSpread * 1e6));
    h = hashCombine(h, config.topology.inputDim);
    h = hashCombine(h, config.topology.fcWidth);
    h = hashCombine(h, config.topology.poolGroup);
    h = hashCombine(h, config.topology.classes);
    h = hashCombine(h, config.training.epochs);
    h = hashCombine(h, static_cast<std::uint64_t>(
                        config.training.learningRate * 1e6f));
    h = hashCombine(h, config.retraining.epochs);
    h = hashCombine(h, static_cast<std::uint64_t>(
                        config.retraining.learningRate * 1e6f));
    h = hashCombine(h, config.trainUtterances);
    h = hashCombine(h, config.trainSeed);
    h = hashCombine(h, config.initSeed);
    return h;
}

/** Payload-kind tag of cached model artifacts. */
constexpr const char *kModelKind = "mlp-model";

} // namespace

ModelZoo::ModelZoo(const Corpus &corpus, const ModelZooConfig &config)
    : config_(config), configKey_(configKeyOf(corpus, config)),
      reports_(4), qualities_(4, 0.0)
{
    if (!config_.cacheDir.empty())
        store_.emplace(config_.cacheDir);
    ds_assert(config.topology.inputDim == corpus.spliceDim());
    ds_assert(config.topology.classes == corpus.classCount());

    models_.resize(4);

    // The training data is needed for retraining even when the dense
    // model is cached, unless every model is cached.
    bool all_cached = !config_.cacheDir.empty();
    for (PruneLevel level : kAllPruneLevels)
        all_cached = all_cached && tryLoad(level);
    if (all_cached) {
        inform("model zoo: loaded all models from cache '%s'",
               config_.cacheDir.c_str());
        for (PruneLevel level :
             {PruneLevel::P70, PruneLevel::P80, PruneLevel::P90}) {
            const auto idx = static_cast<std::size_t>(level);
            qualities_[idx] = MagnitudePruner::findQualityForTarget(
                models_[0], pruneLevelTarget(level));
            MagnitudePruner pruner(qualities_[idx]);
            Mlp probe = models_[0].clone();
            reports_[idx] = pruner.prune(probe);
        }
        return;
    }

    inform("model zoo: synthesizing %zu training utterances",
           config_.trainUtterances);
    const auto utts = corpus.sampleUtterances(config_.trainUtterances,
                                              config_.trainSeed);
    trainData_ = corpus.frameDataset(utts);
    inform("model zoo: %zu training frames", trainData_.size());

    if (!tryLoad(PruneLevel::None)) {
        Rng init_rng(config_.initSeed);
        models_[0] = KaldiTopology::build(config_.topology, init_rng);
        Trainer trainer(config_.training);
        inform("model zoo: training dense model "
               "(%zu parameters, %zu epochs)",
               models_[0].parameterCount(), config_.training.epochs);
        trainer.train(models_[0], trainData_);
        store(PruneLevel::None);
    }

    for (PruneLevel level :
         {PruneLevel::P70, PruneLevel::P80, PruneLevel::P90}) {
        const auto idx = static_cast<std::size_t>(level);
        const double target = pruneLevelTarget(level);
        qualities_[idx] = MagnitudePruner::findQualityForTarget(
            models_[0], target);
        if (tryLoad(level)) {
            // Regenerate the report from the cached masks.
            MagnitudePruner pruner(qualities_[idx]);
            Mlp probe = models_[0].clone();
            reports_[idx] = pruner.prune(probe);
            continue;
        }
        inform("model zoo: pruning at %.0f%% (quality %.3f) + retraining",
               target * 100.0, qualities_[idx]);
        models_[idx] = pruneAndRetrain(models_[0], trainData_,
                                       qualities_[idx],
                                       config_.retraining,
                                       &reports_[idx]);
        store(level);
    }
}

const Mlp &
ModelZoo::model(PruneLevel level) const
{
    return models_[static_cast<std::size_t>(level)];
}

const PruneReport &
ModelZoo::pruneReport(PruneLevel level) const
{
    return reports_[static_cast<std::size_t>(level)];
}

double
ModelZoo::quality(PruneLevel level) const
{
    return qualities_[static_cast<std::size_t>(level)];
}

std::string
ModelZoo::artifactName(PruneLevel level) const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "model_%016llx_%s.bin",
                  static_cast<unsigned long long>(configKey_),
                  pruneLevelName(level));
    return buf;
}

bool
ModelZoo::tryLoad(PruneLevel level)
{
    if (!store_)
        return false;
    const std::string name = artifactName(level);
    if (!store_->exists(name))
        return false;

    // Cache reads are retried (transient I/O faults heal under the
    // zoo.model_load probe's fail_count schedule); a cache that stays
    // unreadable — or whose artifact fails frame verification and is
    // quarantined — falls back to training rather than killing the run.
    const auto key = static_cast<std::uint64_t>(level);
    auto loaded =
        retryWithBackoff(RetryPolicy{}, [&]() -> Result<Mlp> {
            if (auto kind = FaultInjector::global().trigger(
                    "zoo.model_load", key)) {
                std::string what = "'";
                what += store_->pathOf(name);
                what += "': injected ";
                what += faultKindName(*kind);
                what += " (fault zoo.model_load)";
                return Status::error(what);
            }
            auto payload = store_->read(name, kModelKind);
            if (!payload.isOk())
                return payload.status();
            return Mlp::deserialize(payload.value(),
                                    store_->pathOf(name));
        });
    if (!loaded) {
        warn("model zoo: cache model %s unusable (%s); falling back "
             "to training",
             pruneLevelName(level), loaded.message().c_str());
        return false;
    }
    models_[static_cast<std::size_t>(level)] = loaded.take();
    return true;
}

void
ModelZoo::store(PruneLevel level) const
{
    if (!store_)
        return;
    const auto &model = models_[static_cast<std::size_t>(level)];
    const Status written =
        store_->write(artifactName(level), kModelKind,
                      model.serialize());
    if (!written) {
        // A full disk or unwritable cache directory must not kill a
        // run that just spent minutes training: the model is still in
        // memory, so continue uncached and retrain next time.
        warn("model zoo: cannot cache model %s (%s); falling back to "
             "uncached operation",
             pruneLevelName(level), written.message().c_str());
    }
}

} // namespace darkside
