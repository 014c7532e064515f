/**
 * @file
 * In-memory span recorder for the traced run.  Spans are taken from
 * the benchmark's own code around its calls into each layer of the
 * library (nothing inside the library is instrumented), kept in
 * memory, and written at the end as Chrome trace-event JSON (load it
 * in chrome://tracing or Perfetto).
 *
 * A span has a layer (the trace category), a name, start and end, the
 * span that caused it and, for request spans, the request id that
 * groups one request's spans.  Nested `Span`s on one thread find
 * their parent automatically; spans that cross threads (a request
 * from submit to observed result) are recorded with `record()`.
 *
 * A disabled tracer records nothing; `Span` then costs one branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One recorded span. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0: a root span
    std::uint64_t request = 0; //!< 0: not part of a request
    std::string layer;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int thread = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** A fresh span id (0 when disabled). */
    std::uint64_t nextId();

    /** Record a finished span; ignored when disabled. */
    void record(std::uint64_t id, std::uint64_t parent,
                std::uint64_t request, std::string layer,
                std::string name, Clock::time_point start,
                Clock::time_point end);

    std::vector<SpanRecord> spans() const;

    /**
     * Self time per layer, in ms: each span's duration minus the part
     * of its interval that its child spans cover, summed by layer.
     */
    std::map<std::string, double> selfMillisByLayer() const;

    /**
     * Write every span as Chrome trace-event JSON, with `metadataJson`
     * (a JSON object) as the trace's "otherData".
     */
    fpsa::Status writeChromeTrace(const std::string &path,
                                  const std::string &metadataJson) const;

  private:
    int threadIndexLocked();

    const bool enabled_;
    const Clock::time_point origin_;

    mutable std::mutex mu_;
    std::uint64_t lastId_ = 0;
    std::vector<SpanRecord> spans_;
    std::map<std::size_t, int> threads_; //!< thread-id hash -> index
};

/** Self time of `spans` per layer (see Tracer::selfMillisByLayer). */
std::map<std::string, double>
selfMillisByLayer(const std::vector<SpanRecord> &spans);

/**
 * RAII span on the current thread: its parent is the innermost open
 * `Span` of this thread.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *layer, std::string name,
         std::uint64_t request = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    const char *layer_;
    std::string name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t request_ = 0;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
