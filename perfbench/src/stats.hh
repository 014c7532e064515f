/**
 * @file
 * The benchmark's statistics rules, kept apart from the workloads so
 * they can be tested on their own (perfbench/tests/stats_test.cc):
 *
 *  - percentiles use the nearest-rank rule, and a percentile is only
 *    "supported" when at least ten samples lie beyond it;
 *  - open-loop latency runs from a request's due time (not its send
 *    time) to the moment its result is observed, so a stalled
 *    generator charges its lateness to every request it delayed, and
 *    the lateness itself is reported as generator lag;
 *  - a rate-ladder rung meets the SLO when its p99 is within the limit
 *    and the backlog left when its last request was due is no more
 *    than one limit's worth of arrivals;
 *  - shares and ratios are guarded against empty denominators.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a percentile for it to be reported. */
constexpr std::int64_t kSamplesBeyondPercentile = 10;

/**
 * Nearest-rank percentile of `values` (q in (0, 1]): the smallest
 * sample with at least q of the samples at or below it.  0 when empty.
 */
double percentile(std::vector<double> values, double q);

/** Samples strictly beyond the nearest-rank q-percentile of n. */
std::int64_t samplesBeyond(std::int64_t n, double q);

/** Whether n samples support the q-percentile (>= 10 beyond it). */
bool percentileSupported(std::int64_t n, double q);

/** Median of `values`; 0 when empty. */
double median(std::vector<double> values);

/** Geometric mean of positive `values`; 0 when empty. */
double geomean(const std::vector<double> &values);

/** part / whole, or 0 when whole is not positive. */
double share(double part, double whole);

/** One open-loop request's three instants, in ms since phase start. */
struct OpenLoopTimes
{
    double dueMs = 0.0;      //!< when the schedule said to send it
    double sentMs = 0.0;     //!< when the generator actually sent it
    double observedMs = 0.0; //!< when its result was observed
};

/** Latency a user sees: observed minus due. */
double dueLatencyMs(const OpenLoopTimes &t);

/** How late the generator ran for this request: sent minus due. */
double generatorLagMs(const OpenLoopTimes &t);

/**
 * Poisson arrival schedule: due times in ms within [0, durationMs) at
 * `ratePerSecond`, drawn from `seed` (exponential gaps).
 */
std::vector<double> poissonSchedule(std::uint64_t seed,
                                    double ratePerSecond,
                                    double durationMs);

/** One rung of an open-loop rate ladder. */
struct Rung
{
    double rate = 0.0;     //!< offered requests per second
    double p99Ms = 0.0;    //!< due-time latency tail
    std::int64_t backlogAtLastDue = 0; //!< outstanding when last was due
    std::int64_t failed = 0; //!< failed or refused requests
};

/**
 * Whether one rung meets the SLO: no failures, p99 within `limitMs`,
 * and a backlog no larger than the arrivals of one limit window
 * (rate x limit), which a queue that grows for the whole rung exceeds.
 */
bool rungMeetsSlo(const Rung &rung, double limitMs);

/**
 * The ladder's SLO rate: the highest rung such that it and every lower
 * rung meet the SLO (rungs in ascending rate order); 0 when the first
 * fails.
 */
double sloRate(const std::vector<Rung> &ladder, double limitMs);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
