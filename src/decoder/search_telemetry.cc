#include "decoder/search_telemetry.hh"

#include "telemetry/catalog.hh"

namespace darkside {

SearchTelemetry::SearchTelemetry(telemetry::MetricRegistry &registry)
    : utterances_(registry.counter("search.utterances", "utterances")),
      frames_(registry.counter("search.frames", "frames")),
      generated_(registry.counter("search.generated", "hypotheses")),
      expanded_(registry.counter("search.expanded", "tokens")),
      survivors_(registry.counter("search.survivors", "hypotheses")),
      insertions_(
          registry.counter("selector.insertions", "hypotheses")),
      recombinations_(
          registry.counter("selector.recombinations", "hypotheses")),
      collisions_(registry.counter("selector.collisions", "hypotheses")),
      backupAccesses_(
          registry.counter("selector.backup_accesses", "accesses")),
      overflowAccesses_(
          registry.counter("selector.overflow_accesses", "accesses")),
      evictions_(registry.counter("selector.evictions", "hypotheses")),
      rejections_(registry.counter("selector.rejections", "hypotheses")),
      traceAllocated_(
          registry.counter(telemetry::metric("decode.trace.allocated"))),
      traceCollected_(
          registry.counter(telemetry::metric("decode.trace.collected"))),
      traceGcRuns_(
          registry.counter(telemetry::metric("decode.trace.gc_runs"))),
      hypsPerFrame_(registry.histogram("search.hypotheses_per_frame",
                                       "hypotheses", {0.0, 2048.0, 64})),
      generatedPerFrame_(
          registry.histogram("search.generated_per_frame", "hypotheses",
                             {0.0, 8192.0, 64})),
      tracePeakLive_(
          registry.histogram(telemetry::metric("decode.trace.peak_live")))
{}

void
SearchTelemetry::onUtteranceStart(std::size_t frames)
{
    utterances_.add(1);
    frames_.add(frames);
}

void
SearchTelemetry::onFrameEnd(const FrameActivity &activity)
{
    generated_.add(activity.generated);
    expanded_.add(activity.expanded);
    survivors_.add(activity.survivors);
    insertions_.add(activity.selector.insertions);
    recombinations_.add(activity.selector.recombinations);
    collisions_.add(activity.selector.collisions);
    backupAccesses_.add(activity.selector.backupAccesses);
    overflowAccesses_.add(activity.selector.overflowAccesses);
    evictions_.add(activity.selector.evictions);
    rejections_.add(activity.selector.rejections);
    hypsPerFrame_.observe(static_cast<double>(activity.survivors));
    generatedPerFrame_.observe(static_cast<double>(activity.generated));
}

void
SearchTelemetry::onUtteranceEnd(const TraceStats &trace)
{
    traceAllocated_.add(trace.allocated);
    traceCollected_.add(trace.collected);
    traceGcRuns_.add(trace.gcRuns);
    tracePeakLive_.observe(static_cast<double>(trace.peakLive));
}

} // namespace darkside
