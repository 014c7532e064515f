#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"

namespace perfbench
{

namespace
{

/** 1-based nearest rank of the q-percentile among n samples. */
std::int64_t
nearestRank(std::int64_t n, double q)
{
    const auto rank = static_cast<std::int64_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::int64_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const auto n = static_cast<std::int64_t>(values.size());
    const auto index = static_cast<std::size_t>(nearestRank(n, q) - 1);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

std::int64_t
samplesBeyond(std::int64_t n, double q)
{
    return n <= 0 ? 0 : n - nearestRank(n, q);
}

bool
percentileSupported(std::int64_t n, double q)
{
    return samplesBeyond(n, q) >= kSamplesBeyondPercentile;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logs = 0.0;
    for (double v : values)
        logs += std::log(v);
    return std::exp(logs / static_cast<double>(values.size()));
}

double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

double
dueLatencyMs(const OpenLoopTimes &t)
{
    return t.observedMs - t.dueMs;
}

double
generatorLagMs(const OpenLoopTimes &t)
{
    return std::max(0.0, t.sentMs - t.dueMs);
}

std::vector<double>
poissonSchedule(std::uint64_t seed, double ratePerSecond,
                double durationMs)
{
    std::vector<double> due;
    if (ratePerSecond <= 0.0)
        return due;
    fpsa::Rng rng(seed);
    const double meanGapMs = 1000.0 / ratePerSecond;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) * meanGapMs;
        if (t >= durationMs)
            return due;
        due.push_back(t);
    }
}

bool
rungMeetsSlo(const Rung &rung, double limitMs)
{
    const double window = rung.rate * limitMs / 1000.0;
    return rung.failed == 0 && rung.p99Ms <= limitMs &&
           static_cast<double>(rung.backlogAtLastDue) <=
               std::max(1.0, window);
}

double
sloRate(const std::vector<Rung> &ladder, double limitMs)
{
    double best = 0.0;
    for (const Rung &rung : ladder) {
        if (!rungMeetsSlo(rung, limitMs))
            break;
        best = rung.rate;
    }
    return best;
}

} // namespace perfbench
