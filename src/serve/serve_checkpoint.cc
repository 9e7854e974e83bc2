#include "serve/serve_checkpoint.hh"

#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include "fault/fault.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/bits.hh"
#include "util/wire.hh"

namespace darkside {

namespace {

void
bumpServeDrainCounter(const char *name, const char *unit)
{
    // Registered alongside the other serve.* counters by the server;
    // this only has to bump it.
    telemetry::MetricRegistry::global().counter(name, unit).add(1);
}

} // namespace

std::uint64_t
ServeCheckpoint::configKeyOf(const ServeConfig &config)
{
    std::uint64_t h = 0x5e55104bcafeull;
    for (const char c : config.system.label())
        h = mix64(h ^ static_cast<std::uint8_t>(c));
    const auto mixFloat = [&h](float v) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = mix64(h ^ bits);
    };
    mixFloat(config.system.beam);
    h = mix64(h ^ config.system.nbestEntries);
    h = mix64(h ^ config.system.nbestWays);
    mixFloat(config.system.relMargin);
    h = mix64(h ^ config.system.relMaxSurvivors);
    mixFloat(config.system.adaptiveMinMargin);
    mixFloat(config.system.adaptiveMaxMargin);
    mixFloat(config.system.adaptiveEmaAlpha);
    h = mix64(h ^ config.chunkFrames);
    return h;
}

std::uint64_t
ServeCheckpoint::sessionKeyOf(const ServeConfig &config,
                              const Utterance &utt, std::size_t index)
{
    std::uint64_t h = configKeyOf(config);
    h = mix64(h ^ utt.id);
    h = mix64(h ^ utt.frames.size());
    h = mix64(h ^ index);
    return h;
}

std::string
ServeCheckpoint::sessionUnitName(std::size_t index)
{
    return "sessions/session_" + std::to_string(index) + ".bin";
}

Status
ServeCheckpoint::saveSession(std::uint64_t sessionKey,
                             const SessionOutcome &outcome,
                             const telemetry::Snapshot &delta) const
{
    // A journal unit parses all-or-nothing (loadSession), so a torn or
    // stale unit is recomputed instead of half-replayed.
    std::string payload;
    wire::Writer(payload)
        .pod<std::uint64_t>(sessionKey)
        .pod<std::uint64_t>(outcome.index)
        .pod<std::uint64_t>(outcome.utteranceId)
        .pod<std::uint8_t>(outcome.degraded ? 1 : 0)
        .string(outcome.faultCause)
        .pod<std::uint64_t>(outcome.frames)
        .pod<std::uint64_t>(outcome.chunks)
        .pod<double>(outcome.totalCost)
        .vector(outcome.words)
        .string(delta.toJson());

    const std::string name = sessionUnitName(outcome.index);
    const Status status = store_.write(name, kSessionKind, payload);
    if (!status.isOk())
        return status;
    bumpServeDrainCounter("serve.drain.committed_units", "units");

    // Torn-commit model: the rename landed but the page cache lied —
    // half the frame never reached the disk. The writer believed the
    // commit succeeded (Ok below); the next load fails verification
    // and quarantines the unit.
    if (FaultInjector::global().trigger("serve.checkpoint_torn",
                                        faultKey(name))) {
        std::error_code ec;
        const std::string path = store_.pathOf(name);
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec)
            std::filesystem::resize_file(path, size / 2, ec);
    }
    return Status::ok();
}

std::optional<SessionOutcome>
ServeCheckpoint::loadSession(std::size_t index,
                             std::uint64_t sessionKey) const
{
    auto payload = store_.read(sessionUnitName(index), kSessionKind);
    if (!payload.isOk())
        return std::nullopt;

    wire::Reader r(payload.value());
    std::uint64_t key = 0, stored_index = 0, frames = 0, chunks = 0;
    std::uint8_t degraded = 0;
    std::string delta_json;
    SessionOutcome o;
    if (!r.pod(key) || !r.pod(stored_index) || !r.pod(o.utteranceId) ||
        !r.pod(degraded) || degraded > 1 || !r.string(o.faultCause) ||
        !r.pod(frames) || !r.pod(chunks) || !r.pod(o.totalCost) ||
        !r.vector(o.words) || !r.string(delta_json) || !r.done()) {
        return std::nullopt;
    }
    if (key != sessionKey || stored_index != index)
        return std::nullopt;
    o.index = static_cast<std::size_t>(stored_index);
    o.degraded = degraded != 0;
    o.frames = static_cast<std::size_t>(frames);
    o.chunks = static_cast<std::size_t>(chunks);
    auto delta = telemetry::Snapshot::parseJson(delta_json);
    if (!delta.isOk())
        return std::nullopt;

    // All-or-nothing: the delta is applied only after the whole unit
    // parsed and matched its key.
    telemetry::MetricRegistry::global().apply(delta.value());
    bumpServeDrainCounter("serve.drain.resumed_sessions", "sessions");
    return o;
}

Status
ServeCheckpoint::saveManifest(const ServeManifest &manifest) const
{
    std::string payload;
    wire::Writer(payload)
        .pod(manifest.configKey)
        .pod(manifest.offered)
        .pod(manifest.admitted)
        .pod(manifest.shed)
        .pod(manifest.completed)
        .pod(manifest.degraded)
        .pod(manifest.resumedSessions);
    return store_.write(kManifestName, kManifestKind, payload);
}

Result<ServeManifest>
ServeCheckpoint::loadManifest() const
{
    auto payload = store_.read(kManifestName, kManifestKind);
    if (!payload.isOk())
        return Status::error(payload.message());
    wire::Reader r(payload.value());
    ServeManifest m;
    if (!r.pod(m.configKey) || !r.pod(m.offered) || !r.pod(m.admitted) ||
        !r.pod(m.shed) || !r.pod(m.completed) || !r.pod(m.degraded) ||
        !r.pod(m.resumedSessions) || !r.done()) {
        return Status::error("serve manifest payload is malformed");
    }
    return m;
}

} // namespace darkside
