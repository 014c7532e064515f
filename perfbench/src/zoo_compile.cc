/**
 * @file
 * zoo-compile: the architect's design-space sweep.  For a fixed subset
 * of the model zoo a `Pipeline` per model sweeps the duplication
 * degree over {1, 4, 16, 64} with place-and-route on.  PnR is ~99% of
 * the wall time here and the serving layers do nothing.  The subset
 * spans netlists of 28 (MLP-500-100 at 1) to 1,760 blocks (MLP-500-100
 * at 64), so both placement-bound points and routing-bound points
 * (the unconverged routes at 64) are covered.  AlexNet is left out: its
 * points take 0.6-3.5 s each and swing 2x between placer seeds, so a
 * run could not hold enough seeds to be steady; VGG16 and ResNet152
 * (13-51 s per point) are left out too.
 *
 * One sweep places with a seed drawn from the run's seed and runs
 * twice: its counts and modeled latencies must come out identical.
 * Compile time is measured on sweeps over a fixed pool of placer seeds.
 */

#include <algorithm>

#include "nn/models.hh"
#include "report.hh"
#include "stack.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

constexpr fpsa::ModelId kModels[] = {fpsa::ModelId::Mlp500_100,
                                     fpsa::ModelId::LeNet,
                                     fpsa::ModelId::Vgg17Cifar};
constexpr std::int64_t kDuplications[] = {1, 4, 16, 64};

struct Sweep
{
    std::vector<double> pointMs;   //!< compile wall time per point
    std::vector<double> modeledNs; //!< modeled latency per point
    std::vector<CompileCounts> pointCounts;
    CompileTimes times;
    CompileCounts counts;
    double wallMs = 0.0;
};

Sweep
runSweep(const std::vector<fpsa::Graph> &graphs, std::uint64_t placerSeed,
         Tracer &tracer, Report &report)
{
    Sweep sweep;
    const Clock::time_point start = Clock::now();
    for (std::size_t m = 0; m < graphs.size(); ++m) {
        fpsa::Pipeline pipeline(graphs[m], compileOptions(1, placerSeed));
        for (std::int64_t dup : kDuplications) {
            const std::string label =
                std::string(fpsa::modelName(kModels[m])) + "@" +
                std::to_string(dup);
            pipeline.setDuplicationDegree(dup);
            CompileCounts counts;
            const Clock::time_point t = Clock::now();
            Span span(tracer, "compile", label);
            const fpsa::Status s =
                runStages(pipeline, tracer, label, sweep.times, counts);
            ++report.attempted;
            if (!s.ok()) {
                ++report.failed;
                report.fail(label + ": " + s.toString());
                continue;
            }
            sweep.pointMs.push_back(millisSince(t));
            sweep.modeledNs.push_back(counts.modeledNs);
            sweep.pointCounts.push_back(counts);
            sweep.counts += counts;
        }
    }
    sweep.wallMs = millisSince(start);
    return sweep;
}

} // namespace

void
runZooCompile(const RunConfig &config, Tracer &tracer, Report &report)
{
    // Set-up: build the subset's graphs and compile each at duplication
    // 1 with a fixed placer seed -- the baseline an architect starts a
    // sweep from -- which also warms lazily initialized state.  It takes
    // ~25 ms, so it is repeated more often than a serving set-up.
    constexpr int kZooSetupRepeats = 5 * kSetupRepeats;
    std::vector<double> setupS;
    std::vector<fpsa::Graph> graphs;
    for (int r = 0; r < kZooSetupRepeats; ++r) {
        Span setup(tracer, "setup", "setup");
        const Clock::time_point start = Clock::now();
        graphs.clear();
        for (fpsa::ModelId id : kModels) {
            graphs.push_back(fpsa::buildModel(id));
            fpsa::Pipeline baseline(graphs.back(), compileOptions(1, 0));
            CompileTimes times;
            CompileCounts counts;
            report.check(
                runStages(baseline, tracer, "baseline", times, counts).ok(),
                "baseline compile failed");
        }
        setupS.push_back(millisSince(start) / 1000.0);
    }

    // The run's own placement: its modeled latency and counts, and the
    // same sweep again, which must reproduce them exactly (untraced in a
    // traced run, which gives the tracing overhead).
    const std::uint64_t placerSeed = config.seed * 1000 + 1;
    const Sweep seeded = runSweep(graphs, placerSeed, tracer, report);
    Tracer off(false);
    const Sweep repeat =
        runSweep(graphs, placerSeed, config.trace ? off : tracer, report);
    report.check(repeat.pointCounts == seeded.pointCounts &&
                     repeat.modeledNs == seeded.modeledNs,
                 "two sweeps with one placer seed differ in counts or "
                 "modeled latency");

    // Compile time: sweeps over a fixed pool of placer seeds, one per
    // 5 s of the run, so every run compiles the same work -- at the
    // unconverged points PnR time swings 3x between seeds.  A point's
    // time is its median over the pool.
    const auto poolSize = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(config.seconds / 5.0));
    std::vector<Sweep> pool;
    for (std::uint64_t k = 1; k <= poolSize; ++k)
        pool.push_back(runSweep(graphs, k, tracer, report));
    std::vector<double> pointMs;
    for (std::size_t p = 0; p < seeded.pointMs.size(); ++p) {
        std::vector<double> samples;
        for (const Sweep &s : pool)
            if (p < s.pointMs.size())
                samples.push_back(s.pointMs[p]);
        pointMs.push_back(median(samples));
    }
    double sweepMs = 0.0;
    for (double ms : pointMs)
        sweepMs += ms;

    report.set("setup_s", median(setupS), "s");
    report.set("compile_s", geomean(pointMs) / 1000.0, "s");
    report.set("modeled_lat_ns", geomean(seeded.modeledNs), "ns");
    report.set("lat_p50_ms", percentile(pointMs, 0.50), "ms");
    report.set("lat_p99_ms", percentile(pointMs, 0.99), "ms");
    report.set("throughput_rps",
               share(static_cast<double>(pointMs.size()), sweepMs / 1000.0),
               "1/s");
    report.info("pool_seeds", static_cast<double>(poolSize));
    report.info("points", static_cast<double>(pointMs.size()));

    if (config.trace) {
        reportCompile(report, seeded.times, seeded.counts);
        report.set("trace.overhead_pct",
                   (share(seeded.wallMs, repeat.wallMs) - 1.0) * 100.0, "%");
    }
}

} // namespace perfbench
