#include "load.hh"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/rng.hh"

namespace perfbench
{

namespace
{

double
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** One request in flight, as handed from submitter to observer. */
struct Pending
{
    Outcome *outcome = nullptr;
    std::future<fpsa::StatusOr<fpsa::InferenceResult>> future;
    std::uint64_t requestId = 0;
    int client = -1; //!< closed loop: the client that sent it
};

/** Record a ready request's result, check and trace it. */
void
settle(const Front &front, Tracer &tracer, Clock::time_point start,
       Pending &pending)
{
    const Clock::time_point observed = Clock::now();
    Outcome &o = *pending.outcome;
    o.times.observedMs = millisBetween(start, observed);
    auto result = pending.future.get();
    if (result.ok()) {
        o.ok = true;
        o.correct = front.check(o.tenant, o.input, result->output);
        o.queueMs = result->queueMillis;
        o.execMs = result->execMillis;
        o.batch = result->batchSize;
        o.shards = result->shards;
        o.interconnectBytes = result->interconnectBytes;
        o.interconnectNs = result->interconnectNanos;
        o.modeledNs = result->modeledLatency;
    } else {
        o.error = result.status().toString();
    }
    if (tracer.enabled()) {
        const auto sent =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            o.times.sentMs));
        tracer.record(pending.requestId, 0, pending.requestId, "request",
                      front.tenantNames[static_cast<std::size_t>(o.tenant)],
                      sent, observed);
    }
}

/**
 * Settle every ready future of `live` at once, calling `settled` with
 * each as it is removed; when none was ready, wait up to 50 us for the
 * oldest.  Polling every live future means a slow request never delays
 * observing a faster one sent after it.
 */
template <typename Settled>
void
pollLive(const Front &front, Tracer &tracer, Clock::time_point start,
         std::vector<Pending> &live, Settled &&settled)
{
    bool progressed = false;
    for (std::size_t i = 0; i < live.size();) {
        if (live[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            settle(front, tracer, start, live[i]);
            Pending done = std::move(live[i]);
            if (i + 1 != live.size())
                live[i] = std::move(live.back());
            live.pop_back();
            settled(done);
            progressed = true;
        } else {
            ++i;
        }
    }
    if (!progressed && !live.empty())
        live.front().future.wait_for(std::chrono::microseconds(50));
}

/**
 * The observer half of an open-loop phase: the submitter hands it
 * futures and its thread settles each the moment it is ready.
 */
class Observer
{
  public:
    Observer(const Front &front, Tracer &tracer, Clock::time_point start)
        : front_(front), tracer_(tracer), start_(start)
    {
        thread_ = std::thread([this] { loop(); });
    }

    ~Observer() { finish(); }

    Observer(const Observer &) = delete;
    Observer &operator=(const Observer &) = delete;

    void
    hand(Pending pending)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.push_back(std::move(pending));
        }
        cv_.notify_all();
    }

    /** No more submissions: settle the rest, then join. */
    void
    finish()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void
    loop()
    {
        std::vector<Pending> live;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                if (live.empty())
                    cv_.wait(lock,
                             [&] { return !queue_.empty() || done_; });
                for (Pending &p : queue_)
                    live.push_back(std::move(p));
                queue_.clear();
                if (live.empty() && done_)
                    return;
            }
            pollLive(front_, tracer_, start_, live, [](const Pending &) {});
        }
    }

    const Front &front_;
    Tracer &tracer_;
    const Clock::time_point start_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Pending> queue_;
    bool done_ = false;
    std::thread thread_; // last: starts after the state it uses
};

/** Submit one request now; the caller settles what it returns. */
Pending
submitOne(const Front &front, Tracer &tracer, Clock::time_point start,
          Outcome &o, int client)
{
    const std::uint64_t requestId = tracer.nextId();
    const std::uint64_t submitId = tracer.nextId();
    const fpsa::Tensor &input =
        (*front.inputs)[static_cast<std::size_t>(o.tenant)]
                       [static_cast<std::size_t>(o.input)];
    const Clock::time_point t0 = Clock::now();
    o.times.sentMs = millisBetween(start, t0);
    auto future = front.submit(o.tenant, input);
    const Clock::time_point t1 = Clock::now();
    o.submitUs = millisBetween(t0, t1) * 1000.0;
    tracer.record(submitId, requestId, requestId, front.layer, "submit", t0,
                  t1);
    return {&o, std::move(future), requestId, client};
}

} // namespace

PhaseResult
runOpenLoop(const Front &front, const std::vector<Request> &schedule,
            Tracer &tracer)
{
    std::deque<Outcome> outcomes;
    const Clock::time_point start = Clock::now();
    Observer observer(front, tracer, start);
    for (const Request &r : schedule) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(r.dueMs)));
        Outcome &o = outcomes.emplace_back();
        o.tenant = r.tenant;
        o.input = r.input;
        o.times.dueMs = r.dueMs;
        observer.hand(submitOne(front, tracer, start, o, -1));
    }
    observer.finish();
    return {{outcomes.begin(), outcomes.end()}};
}

PhaseResult
runClosedLoop(const Front &front, const std::vector<int> &clientTenants,
              double durationMs, std::uint64_t seed, Tracer &tracer)
{
    std::deque<Outcome> outcomes;
    fpsa::Rng rng(seed);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(durationMs));
    // The calling thread both submits and observes: a client's next
    // request goes out as soon as its last one is seen to settle.
    std::vector<Pending> live;
    auto send = [&](int client) {
        const int tenant = clientTenants[static_cast<std::size_t>(client)];
        const auto pool =
            (*front.inputs)[static_cast<std::size_t>(tenant)].size();
        Outcome &o = outcomes.emplace_back();
        o.tenant = tenant;
        o.input = static_cast<int>(rng.uniformInt(pool));
        o.times.dueMs = millisBetween(start, Clock::now());
        live.push_back(submitOne(front, tracer, start, o, client));
    };
    for (std::size_t c = 0; c < clientTenants.size(); ++c)
        send(static_cast<int>(c));
    while (!live.empty())
        pollLive(front, tracer, start, live, [&](const Pending &done) {
            if (Clock::now() < end)
                send(done.client);
        });
    return {{outcomes.begin(), outcomes.end()}};
}

std::int64_t
backlogAt(const std::vector<Outcome> &outcomes, double atMs)
{
    std::int64_t backlog = 0;
    for (const Outcome &o : outcomes)
        if (o.times.sentMs <= atMs && o.times.observedMs > atMs)
            ++backlog;
    return backlog;
}

} // namespace perfbench
