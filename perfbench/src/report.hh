/**
 * @file
 * What one benchmark run hands back: metrics with units, request
 * counts, the output checks that failed, and free-form info (sample
 * counts, per-rung figures) that explains the metrics.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = "."; //!< where the traced run writes its trace
    std::string sourceId;       //!< commit or source digest (fingerprint)
};

class Report
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics_[name] = {value, unit};
    }

    /** Record a failed output check; the run is then not correct. */
    void
    fail(const std::string &what)
    {
        failures_.push_back(what);
    }

    /** Check `ok`, recording `what` as a failure when it is false. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
    }

    /** Attach an already-serialized JSON value as info. */
    void
    info(const std::string &key, const std::string &json)
    {
        info_[key] = json;
    }

    void
    info(const std::string &key, double value)
    {
        fpsa::JsonWriter j;
        j.value(value);
        info_[key] = j.str();
    }

    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    bool correct() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::map<std::string, std::pair<double, std::string>> &
    metrics() const
    {
        return metrics_;
    }
    const std::map<std::string, std::string> &infos() const
    {
        return info_;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::vector<std::string> failures_;
    std::map<std::string, std::string> info_;
};

class Tracer;

/** The three workloads; each fills `report` and returns. */
void runVgg17Serve(const RunConfig &config, Tracer &tracer,
                   Report &report);
void runLenetFleet(const RunConfig &config, Tracer &tracer,
                   Report &report);
void runZooCompile(const RunConfig &config, Tracer &tracer,
                   Report &report);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
