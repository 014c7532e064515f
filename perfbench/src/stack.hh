/**
 * @file
 * The benchmark's calls into each layer of the stack, each wrapped in
 * a span and a timer: the compile pipeline stage by stage, the
 * artifact round trip, the execution plan and the kernel table.  The
 * workloads share these so one layer is always measured the same way.
 */

#ifndef PERFBENCH_STACK_HH
#define PERFBENCH_STACK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load.hh"
#include "pipeline.hh"
#include "report.hh"
#include "trace.hh"

namespace perfbench
{

double millisSince(Clock::time_point start);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Wall time of each compile stage, in ms. */
struct CompileTimes
{
    double synth = 0.0;
    double map = 0.0;
    double pnr = 0.0;
    double place = 0.0; //!< PnrResult::placeMillis
    double route = 0.0; //!< PnrResult::routeMillis
    double eval = 0.0;
    double freeze = 0.0; //!< Pipeline::compile() after the stages
};

/** What the compile produced, as counts (deterministic per seed). */
struct CompileCounts
{
    std::int64_t synthCacheHits = 0;
    std::int64_t blocks = 0;
    std::int64_t nets = 0;
    std::int64_t routeIters = 0;
    std::int64_t netsRouted = 0;
    std::int64_t overused = 0;
    std::int64_t wirelength = 0;
    double hpwl = 0.0;
    double modeledNs = 0.0; //!< modeled per-sample FPSA latency

    CompileCounts &operator+=(const CompileCounts &other);
    bool operator==(const CompileCounts &) const = default;
};

/**
 * Run synthesize -> map -> placeAndRoute -> evaluate on `pipeline`,
 * one call per stage.  A route that does not converge is an outcome
 * of the design point, counted in `overused`; any other stage error
 * is returned.
 */
fpsa::Status runStages(fpsa::Pipeline &pipeline, Tracer &tracer,
                       const std::string &label, CompileTimes &times,
                       CompileCounts &counts);

/** runStages, then freeze the artifacts with Pipeline::compile(). */
fpsa::StatusOr<fpsa::CompiledModel> compileStaged(
    fpsa::Pipeline &pipeline, Tracer &tracer, const std::string &label,
    CompileTimes &times, CompileCounts &counts);

/** Compile options every workload uses: PnR on, seeded placer. */
fpsa::CompileOptions compileOptions(std::int64_t duplication,
                                    std::uint64_t placerSeed);

struct ArtifactTimes
{
    double saveMs = 0.0; //!< CompiledModel::toJson
    double loadMs = 0.0; //!< CompiledModel::fromJson
    double mb = 0.0;     //!< serialized size
};

/** toJson -> fromJson: the model a serving process would load. */
fpsa::StatusOr<std::shared_ptr<const fpsa::CompiledModel>> roundTrip(
    const fpsa::CompiledModel &model, Tracer &tracer,
    ArtifactTimes &times);

/** `count` inputs of `shape`, uniform in [0, 1), drawn from `seed`. */
std::vector<fpsa::Tensor> inputPool(const fpsa::Shape &shape, int count,
                                    std::uint64_t seed);

/** Single-sample ExecutionPlan::run outputs of every pool input. */
std::vector<std::vector<float>> referenceOutputs(
    const fpsa::ExecutionPlan &plan, const std::vector<fpsa::Tensor> &pool);

/** Bit equality of a served output with a reference output. */
bool sameBits(const fpsa::Tensor &output, const std::vector<float> &want);

/** Set the compile-layer metrics (synth.ms ... pnr.hpwl). */
void reportCompile(Report &report, const CompileTimes &times,
                   const CompileCounts &counts);

/** Set artifact.save_ms / load_ms / mb. */
void reportArtifact(Report &report, const ArtifactTimes &times);

/**
 * Plan-layer probes on `model`'s graph: build, single-sample run and
 * per-sample batched run for fp32 and int8, plus int8 over vector
 * fp32.  Returns plan.run_ms for {fp32, int8}.
 */
std::pair<double, double> probePlan(const fpsa::CompiledModel &model,
                                    int maxBatch,
                                    const std::vector<fpsa::Tensor> &pool,
                                    Tracer &tracer, Report &report);

/**
 * Kernel-layer probes for every distinct conv/FC GEMM shape of
 * `graph`: fp32 GFLOP/s, int8 GOP/s, im2col time, the shape's share of
 * `planRunMsFp32` and the bytes its fp32 GEMM moves (computed from
 * operand sizes).
 */
void probeKernels(const fpsa::Graph &graph, double planRunMsFp32,
                  Tracer &tracer, Report &report);

/**
 * Engine-layer metrics of one tenant class from its outcomes:
 * queue p50/p99, exec p50, mean batch, overhead p50 (observed latency
 * after the send minus queue minus exec) and, when `planRunMs` > 0,
 * the exec-per-sample gap over a plain plan run.
 */
void reportEngineClass(Report &report, const std::string &cls,
                       const std::vector<const Outcome *> &outcomes,
                       double planRunMs);

/** Due-time latencies of `outcomes` that were served. */
std::vector<double> dueLatencies(const std::vector<const Outcome *> &outcomes);

/** Set a p50/p99 pair and record how many samples back them. */
void reportLatency(Report &report, const std::string &p50Name,
                   const std::string &p99Name,
                   const std::vector<double> &latencies);

/** Closed-loop throughput: requests served within the duration, per s. */
double closedLoopRate(const PhaseResult &phase, double durationMs);

/** Fold outcomes into attempted/failed and output-check failures. */
void countOutcomes(Report &report, const std::vector<Outcome> &outcomes,
                   const std::string &phase);

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/**
 * Placer seeds a serving run compiles its models with (its set-ups'
 * plus compile-only ones): compile_s and modeled_lat_ns are medians
 * over them, since one placement's PnR time and wire delay swing with
 * the seed.
 */
constexpr int kPlacements = 15;

} // namespace perfbench

#endif // PERFBENCH_STACK_HH
