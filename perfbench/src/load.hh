/**
 * @file
 * Load generation against a serving front (an `Engine` or a
 * `ClusterEngine`), from one process and at most two threads.
 *
 *  - `runOpenLoop` sends each request at its due time whatever the
 *    system is doing (independent users); latency runs from the due
 *    time, and the generator's own lateness is recorded.  The calling
 *    thread submits and one observer thread collects results as they
 *    complete.
 *  - `runClosedLoop` keeps a fixed number of clients each with one
 *    request outstanding (callers that wait for a reply).  The calling
 *    thread collects results and sends each client's next request.
 *
 * Every result is checked against a reference output by the caller's
 * `CheckFn` in the thread that collects it.
 */

#ifndef PERFBENCH_LOAD_HH
#define PERFBENCH_LOAD_HH

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "runtime/engine.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

/** One scheduled request: which tenant, which pooled input, when. */
struct Request
{
    int tenant = 0;
    int input = 0;
    double dueMs = 0.0;
};

/** What happened to one request. */
struct Outcome
{
    int tenant = 0;
    int input = 0;
    OpenLoopTimes times;
    double submitUs = 0.0; //!< wall time of the submit call itself
    bool ok = false;       //!< served without error
    bool correct = false;  //!< served and equal to the reference
    std::string error;

    // Telemetry copied from the InferenceResult.
    double queueMs = 0.0;
    double execMs = 0.0;
    int batch = 0;
    int shards = 0;
    std::int64_t interconnectBytes = 0;
    double interconnectNs = 0.0;
    double modeledNs = 0.0;
};

using SubmitFn = std::function<
    std::future<fpsa::StatusOr<fpsa::InferenceResult>>(int tenant,
                                                       fpsa::Tensor)>;

/** Whether `output` is the right answer for (tenant, input). */
using CheckFn =
    std::function<bool(int tenant, int input, const fpsa::Tensor &output)>;

/** The serving front under test, as the load generator sees it. */
struct Front
{
    SubmitFn submit;
    CheckFn check;
    /** Input pool per tenant. */
    const std::vector<std::vector<fpsa::Tensor>> *inputs = nullptr;
    std::vector<std::string> tenantNames;
    const char *layer = "engine"; //!< trace layer of the submit call
};

struct PhaseResult
{
    std::vector<Outcome> outcomes; //!< in submission order
};

/** Send `schedule` (ascending due times) open loop. */
PhaseResult runOpenLoop(const Front &front,
                        const std::vector<Request> &schedule,
                        Tracer &tracer);

/**
 * Closed loop for `durationMs`: client c always targets tenant
 * `clientTenants[c]`, drawing inputs from its pool with `seed`.
 * Requests not yet sent when the duration ends are not sent; those in
 * flight are awaited.
 */
PhaseResult runClosedLoop(const Front &front,
                          const std::vector<int> &clientTenants,
                          double durationMs, std::uint64_t seed,
                          Tracer &tracer);

/** Requests sent at or before `atMs` and not yet observed then. */
std::int64_t backlogAt(const std::vector<Outcome> &outcomes, double atMs);

} // namespace perfbench

#endif // PERFBENCH_LOAD_HH
