#include "serve/serve_bench.hh"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <thread>

#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"

namespace darkside {

namespace {

double
pct(const PercentileTracker &t, double p)
{
    return t.count() ? t.percentile(p) : 0.0;
}

} // namespace

ServeReport
runServeWorkload(AsrSystem &system, const std::vector<Utterance> &base,
                 const ServeWorkloadOptions &options,
                 std::vector<SessionOutcome> *outcomes)
{
    SyntheticTrafficGenerator generator(base, options.traffic);
    const std::vector<TrafficEvent> events = generator.generate();

    StreamingServer server(system, options.serve, options.checkpoint);
    const auto start = std::chrono::steady_clock::now();
    for (const auto &event : events) {
        if (options.paceArrivals) {
            // Open-loop replay: sleep to the scheduled arrival, never
            // to "when the server is ready" — a saturated server keeps
            // receiving offers, which is what exercises shedding.
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                event.arrivalSeconds)));
        }
        server.offer(event.utterance);
    }
    server.drain();
    if (outcomes)
        *outcomes = server.outcomes();
    return server.report();
}

std::string
serveOutcomesText(const ServeReport &report,
                  const std::vector<SessionOutcome> &outcomes)
{
    std::ostringstream os;
    os << "darkside-serve-outcomes-v1\n";
    os << "sessions offered " << report.offered << " admitted "
       << report.admitted << " shed " << report.shed << " completed "
       << report.completed << " degraded " << report.degraded
       << " chunks " << report.chunks << " frames " << report.frames
       << "\n";
    char cost[64];
    std::size_t next = 0; // outcomes are sorted by offer index
    for (const SessionOutcome &o : outcomes) {
        for (; next < o.index; ++next)
            os << "session " << next << " shed\n";
        next = o.index + 1;
        if (o.degraded) {
            os << "session " << o.index << " utt " << o.utteranceId
               << " degraded frames " << o.frames << " chunks "
               << o.chunks << " cause " << o.faultCause << "\n";
            continue;
        }
        std::snprintf(cost, sizeof(cost), "%.17g", o.totalCost);
        os << "session " << o.index << " utt " << o.utteranceId
           << " ok frames " << o.frames << " chunks " << o.chunks
           << " cost " << cost << " words";
        for (const WordId w : o.words)
            os << ' ' << w;
        os << "\n";
    }
    for (; next < report.offered; ++next)
        os << "session " << next << " shed\n";
    return os.str();
}

void
printServeReport(std::ostream &os, const ServeReport &report,
                 const ServeWorkloadOptions &options)
{
    char line[160];
    os << "serve workload: " << options.traffic.sessions
       << " sessions @ " << options.traffic.arrivalsPerSecond
       << "/s (seed " << options.traffic.seed << ", tail shape "
       << options.traffic.tailShape << ")\n";
    os << "server: " << options.serve.threads << " workers, budget "
       << options.serve.admission.maxSessions << " sessions / "
       << options.serve.admission.maxQueueDepth << " queued, chunk "
       << options.serve.chunkFrames << " frames, deadline "
       << options.serve.sessionDeadlineSeconds << " s\n\n";

    std::snprintf(line, sizeof(line),
                  "sessions  offered %llu | admitted %llu | shed %llu "
                  "| completed %llu | degraded %llu\n",
                  static_cast<unsigned long long>(report.offered),
                  static_cast<unsigned long long>(report.admitted),
                  static_cast<unsigned long long>(report.shed),
                  static_cast<unsigned long long>(report.completed),
                  static_cast<unsigned long long>(report.degraded));
    os << line;
    if (report.shed) {
        std::snprintf(
            line, sizeof(line),
            "shed      queue %llu | deadline %llu | length %llu | "
            "breaker %llu | injected %llu | draining %llu\n",
            static_cast<unsigned long long>(report.shedQueue),
            static_cast<unsigned long long>(report.shedDeadline),
            static_cast<unsigned long long>(report.shedLength),
            static_cast<unsigned long long>(report.shedBreaker),
            static_cast<unsigned long long>(report.shedInjected),
            static_cast<unsigned long long>(report.shedDraining));
        os << line;
    }
    if (report.breakerTrips || report.breakerHalfOpens ||
        report.resumedSessions) {
        std::snprintf(
            line, sizeof(line),
            "resilience breaker trips %llu | half-opens %llu | "
            "resumed %llu\n",
            static_cast<unsigned long long>(report.breakerTrips),
            static_cast<unsigned long long>(report.breakerHalfOpens),
            static_cast<unsigned long long>(report.resumedSessions));
        os << line;
    }
    std::snprintf(line, sizeof(line),
                  "chunk latency (us)   p50 %8.1f | p95 %8.1f | "
                  "p99 %8.1f | max %8.1f  (%llu chunks)\n",
                  pct(report.chunkLatencyUs, 50.0),
                  pct(report.chunkLatencyUs, 95.0),
                  pct(report.chunkLatencyUs, 99.0),
                  report.chunkLatencyUs.count()
                      ? report.chunkLatencyUs.max()
                      : 0.0,
                  static_cast<unsigned long long>(report.chunks));
    os << line;
    std::snprintf(line, sizeof(line),
                  "session latency (us) p50 %8.1f | p95 %8.1f | "
                  "p99 %8.1f\n",
                  pct(report.sessionLatencyUs, 50.0),
                  pct(report.sessionLatencyUs, 95.0),
                  pct(report.sessionLatencyUs, 99.0));
    os << line;
    std::snprintf(line, sizeof(line),
                  "first partial (us)   p50 %8.1f | p95 %8.1f | "
                  "p99 %8.1f  (%s scoring)\n",
                  pct(report.ttfpUs, 50.0), pct(report.ttfpUs, 95.0),
                  pct(report.ttfpUs, 99.0),
                  options.serve.pipelineScoring ? "pipelined"
                                                : "upfront");
    os << line;
    std::snprintf(line, sizeof(line),
                  "throughput           %.1f sessions/s | %.0f "
                  "frames/s | wall %.3f s\n",
                  report.sessionsPerSecond(), report.framesPerSecond(),
                  report.wallSeconds);
    os << line;
}

std::string
serveReportJson(const ServeReport &report,
                const ServeWorkloadOptions &options)
{
    std::ostringstream json;
    json << "{\n"
         << "  \"sessions\": " << options.traffic.sessions
         << ",\n  \"arrivals_per_second\": "
         << options.traffic.arrivalsPerSecond
         << ",\n  \"tail_shape\": " << options.traffic.tailShape
         << ",\n  \"seed\": " << options.traffic.seed
         << ",\n  \"threads\": " << options.serve.threads
         << ",\n  \"chunk_frames\": " << options.serve.chunkFrames
         << ",\n  \"max_sessions\": "
         << options.serve.admission.maxSessions
         << ",\n  \"max_queue_depth\": "
         << options.serve.admission.maxQueueDepth
         << ",\n  \"deadline_seconds\": "
         << options.serve.sessionDeadlineSeconds
         << ",\n  \"offered\": " << report.offered
         << ",\n  \"admitted\": " << report.admitted
         << ",\n  \"shed\": " << report.shed
         << ",\n  \"shed_queue\": " << report.shedQueue
         << ",\n  \"shed_deadline\": " << report.shedDeadline
         << ",\n  \"shed_length\": " << report.shedLength
         << ",\n  \"shed_breaker\": " << report.shedBreaker
         << ",\n  \"shed_injected\": " << report.shedInjected
         << ",\n  \"shed_draining\": " << report.shedDraining
         << ",\n  \"breaker_trips\": " << report.breakerTrips
         << ",\n  \"breaker_half_opens\": " << report.breakerHalfOpens
         << ",\n  \"resumed_sessions\": " << report.resumedSessions
         << ",\n  \"completed\": " << report.completed
         << ",\n  \"degraded\": " << report.degraded
         << ",\n  \"chunks\": " << report.chunks
         << ",\n  \"frames\": " << report.frames
         << ",\n  \"chunk_latency_us\": {\"p50\": "
         << pct(report.chunkLatencyUs, 50.0)
         << ", \"p95\": " << pct(report.chunkLatencyUs, 95.0)
         << ", \"p99\": " << pct(report.chunkLatencyUs, 99.0)
         << ", \"max\": "
         << (report.chunkLatencyUs.count() ? report.chunkLatencyUs.max()
                                           : 0.0)
         << "},\n  \"session_latency_us\": {\"p50\": "
         << pct(report.sessionLatencyUs, 50.0)
         << ", \"p95\": " << pct(report.sessionLatencyUs, 95.0)
         << ", \"p99\": " << pct(report.sessionLatencyUs, 99.0)
         << "},\n  \"pipeline_scoring\": "
         << (options.serve.pipelineScoring ? "true" : "false")
         << ",\n  \"ttfp_us\": {\"p50\": " << pct(report.ttfpUs, 50.0)
         << ", \"p95\": " << pct(report.ttfpUs, 95.0)
         << ", \"p99\": " << pct(report.ttfpUs, 99.0)
         << "},\n  \"sessions_per_second\": "
         << report.sessionsPerSecond()
         << ",\n  \"frames_per_second\": " << report.framesPerSecond()
         << ",\n  \"wall_seconds\": " << report.wallSeconds << "\n}\n";
    return json.str();
}

void
publishServeGauges(const ServeReport &report)
{
    auto &reg = telemetry::MetricRegistry::global();
    using telemetry::metric;
    reg.setGauge(metric("serve.chunk_p50_us"),
                 pct(report.chunkLatencyUs, 50.0));
    reg.setGauge(metric("serve.chunk_p95_us"),
                 pct(report.chunkLatencyUs, 95.0));
    reg.setGauge(metric("serve.chunk_p99_us"),
                 pct(report.chunkLatencyUs, 99.0));
    reg.setGauge(metric("serve.sessions_per_sec"),
                 report.sessionsPerSecond());
    reg.setGauge(metric("serve.ttfp_p50_us"), pct(report.ttfpUs, 50.0));
    reg.setGauge(metric("serve.ttfp_p95_us"), pct(report.ttfpUs, 95.0));
}

} // namespace darkside
