#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common/json.hh"

namespace perfbench
{

namespace
{

/** Innermost open Span of this thread (0: none). */
thread_local std::uint64_t tCurrentSpan = 0;

double
micros(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

std::uint64_t
Tracer::nextId()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return ++lastId_;
}

int
Tracer::threadIndexLocked()
{
    const std::size_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    auto [it, inserted] =
        threads_.emplace(key, static_cast<int>(threads_.size()) + 1);
    return it->second;
}

void
Tracer::record(std::uint64_t id, std::uint64_t parent,
               std::uint64_t request, std::string layer, std::string name,
               Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord span;
    span.id = id;
    span.parent = parent;
    span.request = request;
    span.layer = std::move(layer);
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    span.thread = threadIndexLocked();
    spans_.push_back(std::move(span));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, double>
Tracer::selfMillisByLayer() const
{
    return perfbench::selfMillisByLayer(spans());
}

std::map<std::string, double>
selfMillisByLayer(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord *>>
        children;
    for (const SpanRecord &span : spans)
        if (span.parent != 0)
            children[span.parent].push_back(&span);

    std::map<std::string, double> self;
    for (const SpanRecord &span : spans) {
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        if (auto it = children.find(span.id); it != children.end()) {
            for (const SpanRecord *child : it->second) {
                const auto lo = std::max(child->start, span.start);
                const auto hi = std::min(child->end, span.end);
                if (lo < hi)
                    cover.emplace_back(lo, hi);
            }
        }
        std::sort(cover.begin(), cover.end());
        double coveredUs = 0.0;
        Clock::time_point reach = span.start;
        for (const auto &[lo, hi] : cover) {
            const auto from = std::max(lo, reach);
            if (from < hi) {
                coveredUs += micros(from, hi);
                reach = hi;
            }
        }
        self[span.layer] +=
            (micros(span.start, span.end) - coveredUs) / 1000.0;
    }
    return self;
}

fpsa::Status
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &metadataJson) const
{
    const std::vector<SpanRecord> spans = this->spans();
    fpsa::JsonWriter j;
    j.beginObject();
    j.key("traceEvents").beginArray();
    for (const SpanRecord &span : spans) {
        j.beginObject();
        j.field("name", span.name);
        j.field("cat", span.layer);
        j.field("ph", "X");
        j.field("ts", micros(origin_, span.start));
        j.field("dur", micros(span.start, span.end));
        j.field("pid", 1);
        j.field("tid", span.thread);
        j.key("args").beginObject();
        j.field("id", static_cast<std::int64_t>(span.id));
        j.field("parent", static_cast<std::int64_t>(span.parent));
        if (span.request != 0)
            j.field("request", static_cast<std::int64_t>(span.request));
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.field("displayTimeUnit", "ms");
    j.key("otherData").raw(metadataJson);
    j.endObject();

    std::ofstream out(path);
    if (!out)
        return fpsa::Status::error(fpsa::StatusCode::Internal,
                                   "cannot write trace file " + path);
    out << j.str() << "\n";
    out.close();
    if (!out)
        return fpsa::Status::error(fpsa::StatusCode::Internal,
                                   "short write to trace file " + path);
    return fpsa::Status();
}

Span::Span(Tracer &tracer, const char *layer, std::string name,
           std::uint64_t request)
    : tracer_(tracer), layer_(layer)
{
    if (!tracer_.enabled())
        return;
    name_ = std::move(name);
    id_ = tracer_.nextId();
    parent_ = tCurrentSpan;
    request_ = request;
    tCurrentSpan = id_;
    start_ = Clock::now();
}

Span::~Span()
{
    if (!tracer_.enabled())
        return;
    const Clock::time_point end = Clock::now();
    tCurrentSpan = parent_;
    tracer_.record(id_, parent_, request_, layer_, std::move(name_),
                   start_, end);
}

} // namespace perfbench
