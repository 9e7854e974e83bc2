#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "util/json.hh"

namespace perfbench {

namespace {

/** Innermost open scope on this thread (any recorder). */
thread_local SpanRecorder::Scope *tCurrent = nullptr;

std::string
escaped(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

const darkside::JsonValue &
need(const darkside::JsonValue &obj, const char *key,
     darkside::JsonValue::Kind kind)
{
    const darkside::JsonValue *v = obj.isObject() ? obj.member(key)
                                                  : nullptr;
    if (!v || v->kind() != kind)
        throw std::runtime_error(std::string("trace event lacks ") + key);
    return *v;
}

double
number(const darkside::JsonValue &obj, const char *key)
{
    return need(obj, key, darkside::JsonValue::Kind::Number).asNumber();
}

const std::string &
text(const darkside::JsonValue &obj, const char *key)
{
    return need(obj, key, darkside::JsonValue::Kind::String).asString();
}

} // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::int64_t
SpanRecorder::add(Span span)
{
    if (!enabled_)
        return kNoParent;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::uint32_t
SpanRecorder::threadTrack()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t track = next.fetch_add(1);
    return track;
}

SpanRecorder::Scope::Scope(SpanRecorder &recorder, const char *name,
                           std::uint64_t traceId)
    : recorder_(recorder), index_(kNoParent), outer_(tCurrent)
{
    if (!recorder_.enabled_)
        return;
    // The slot is reserved at entry so nested scopes can name it as
    // their parent before it ends.
    Span span;
    span.name = name;
    span.parent = outer_ && &outer_->recorder_ == &recorder_
        ? outer_->index_
        : kNoParent;
    span.traceId = traceId;
    span.track = threadTrack();
    span.startUs = recorder_.nowUs();
    span.endUs = span.startUs;
    index_ = recorder_.add(std::move(span));
    tCurrent = this;
}

SpanRecorder::Scope::~Scope()
{
    if (!recorder_.enabled_)
        return;
    const double end = recorder_.nowUs();
    {
        std::lock_guard<std::mutex> lock(recorder_.mutex_);
        recorder_.spans_[static_cast<std::size_t>(index_)].endUs = end;
    }
    tCurrent = outer_;
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<double> self(spans.size());
    std::vector<std::pair<double, double>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        cover.clear();
        for (const std::size_t c : children[i]) {
            const double b = std::max(s.startUs, spans[c].startUs);
            const double e = std::min(s.endUs, spans[c].endUs);
            if (e > b)
                cover.emplace_back(b, e);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double runEnd = s.startUs;
        for (const auto &[b, e] : cover) {
            const double from = std::max(b, runEnd);
            if (e > from)
                covered += e - from;
            runEnd = std::max(runEnd, e);
        }
        self[i] = s.durationUs() - covered;
    }
    return self;
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime &t = out[spans[i].name];
        ++t.count;
        t.totalUs += spans[i].durationUs();
        t.selfUs += self[i];
    }
    return out;
}

std::string
chromeTraceJson(
    const std::vector<Span> &spans,
    const std::vector<std::pair<std::string, std::string>> &metadata)
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": {";
    for (std::size_t i = 0; i < metadata.size(); ++i) {
        out += (i ? ", \"" : "\"") + escaped(metadata[i].first) +
            "\": \"" + escaped(metadata[i].second) + "\"";
    }
    out += "},\n\"traceEvents\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu32
                      ", \"ts\": %.3f, \"dur\": %.3f, \"name\": \"",
                      i ? "," : "", s.track, s.startUs,
                      s.durationUs());
        out += buf;
        out += escaped(s.name);
        std::snprintf(buf, sizeof(buf),
                      "\", \"args\": {\"span\": %zu, \"parent\": %" PRId64
                      ", \"trace_id\": \"%016" PRIx64 "\"}}",
                      i, s.parent, s.traceId);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

std::vector<Span>
parseChromeTrace(const std::string &json)
{
    std::string error;
    const darkside::JsonValue root = darkside::JsonValue::parse(json, &error);
    if (!root.isObject())
        throw std::runtime_error("trace is not a JSON object: " + error);
    const auto &events =
        need(root, "traceEvents", darkside::JsonValue::Kind::Array);
    std::vector<Span> spans(events.asArray().size());
    for (const darkside::JsonValue &e : events.asArray()) {
        const auto &args = need(e, "args", darkside::JsonValue::Kind::Object);
        const double index = number(args, "span");
        if (index < 0 || index >= static_cast<double>(spans.size()))
            throw std::runtime_error("span index out of range");
        Span &s = spans[static_cast<std::size_t>(index)];
        s.name = text(e, "name");
        s.track = static_cast<std::uint32_t>(number(e, "tid"));
        s.startUs = number(e, "ts");
        s.endUs = s.startUs + number(e, "dur");
        s.parent = static_cast<std::int64_t>(number(args, "parent"));
        s.traceId = std::stoull(text(args, "trace_id"), nullptr, 16);
    }
    return spans;
}

} // namespace perfbench
