/**
 * @file
 * vgg17-serve: one `Engine` with 3 workers serves the same VGG17
 * `CompiledModel` as two tenants, fp32 and int8, each through its own
 * `ExecutionConfig` -- the mixed-precision use `TenantOptions`
 * documents.  Conv GEMMs are ~92% of a request, so this workload is
 * where the kernel and plan layers dominate and the front door is
 * under 1%; fp32 and int8 use the kernel table in two different ways.
 *
 * Phases, interleaved over the run: open loop (Poisson, a fixed rate
 * per tenant) for 80% of the run, and one closed loop per precision
 * for 10% each.
 */

#include <algorithm>

#include "common/rng.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "nn/plan.hh"
#include "report.hh"
#include "runtime/engine.hh"
#include "stack.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

constexpr int kWorkers = 3;
constexpr int kMaxBatch = 8;
constexpr int kClosedClients = 2 * kWorkers;
constexpr int kPoolSize = 24;
constexpr std::int64_t kDuplication = 16;
/**
 * Open-loop rates, requests/s: together about a quarter of the
 * engine's capacity, so a noisy neighbour on the machine does not tip
 * the queue into its batching regime, and few enough 40 ms int8
 * requests that the fp32 tail does not flip between waiting behind one
 * and not; fp32 gets >= 1,000 samples.
 */
constexpr double kRate[2] = {45.0, 3.0};
/** Slots of a run; each has an open loop and two closed loops. */
constexpr int kSlots = 6;
constexpr double kOpenShare = 0.8; //!< of a slot; the rest is closed loop
const char *const kTenants[2] = {"fp32", "int8"};

} // namespace

void
runVgg17Serve(const RunConfig &config, Tracer &tracer, Report &report)
{
    fpsa::Graph graph = fpsa::buildVgg17Cifar();
    fpsa::Rng weights(2019);
    fpsa::randomizeWeights(graph, weights);

    // ------------------------------------------------------ set-up
    // Every compile places with its own seed; compile_s and
    // modeled_lat_ns are medians over kPlacements of them.
    std::vector<double> setupS, compileS, modeledNs;
    CompileTimes compileTimes;
    CompileCounts counts;
    auto compile = [&](int placement) {
        fpsa::Pipeline pipeline(
            graph, compileOptions(kDuplication,
                                  config.seed * kPlacements +
                                      static_cast<std::uint64_t>(placement)));
        compileTimes = {};
        counts = {};
        const Clock::time_point start = Clock::now();
        auto compiled =
            compileStaged(pipeline, tracer, "vgg17", compileTimes, counts);
        compileS.push_back(millisSince(start) / 1000.0);
        modeledNs.push_back(counts.modeledNs);
        return compiled;
    };
    std::unique_ptr<fpsa::Engine> engine;
    std::shared_ptr<const fpsa::CompiledModel> model;
    ArtifactTimes artifact;
    double loadMs = 0.0;
    for (int r = 0; r < kSetupRepeats; ++r) {
        if (engine) {
            report.check(engine->shutdown().ok(), "engine shutdown");
            engine.reset();
        }
        Span setup(tracer, "setup", "setup");
        const Clock::time_point start = Clock::now();
        auto compiled = compile(r);
        if (!compiled.ok()) {
            report.fail("compile: " + compiled.status().toString());
            return;
        }

        auto loaded = roundTrip(*compiled, tracer, artifact);
        if (!loaded.ok()) {
            report.fail("artifact: " + loaded.status().toString());
            return;
        }
        model = *loaded;

        fpsa::EngineOptions options;
        options.workerThreads = kWorkers;
        options.maxBatch = kMaxBatch;
        auto created =
            fpsa::Engine::create(fpsa::ChipCapacity::unlimited(), options);
        if (!created.ok()) {
            report.fail("engine: " + created.status().toString());
            return;
        }
        engine = std::move(created).value();
        const Clock::time_point loadStart = Clock::now();
        for (int t = 0; t < 2; ++t) {
            fpsa::TenantOptions tenant;
            tenant.execution = fpsa::ExecutionConfig{
                fpsa::ExecutorKind::Planned,
                t == 0 ? fpsa::PrecisionMode::Fp32
                       : fpsa::PrecisionMode::Int8,
                fpsa::KernelIsa::Auto};
            Span span(tracer, "engine", std::string("loadModel.") +
                                            kTenants[t]);
            if (fpsa::Status s = engine->loadModel(kTenants[t], model, tenant);
                !s.ok()) {
                report.fail("loadModel: " + s.toString());
                return;
            }
        }
        loadMs = millisSince(loadStart);
        const fpsa::Tensor warm(model->inputShape());
        for (int t = 0; t < 2; ++t)
            for (int i = 0; i < 2; ++i)
                report.check(engine->infer(kTenants[t], warm).ok(),
                             "warm-up request failed");
        setupS.push_back(millisSince(start) / 1000.0);
    }

    // Reference outputs: single-sample runs of the very plans the
    // tenants serve with, so every served output must match bit for bit.
    const std::vector<fpsa::Tensor> pool =
        inputPool(model->inputShape(), kPoolSize, config.seed ^ 0x1f00d);
    std::vector<std::vector<std::vector<float>>> reference(2);
    for (int t = 0; t < 2; ++t) {
        auto plan = model->executionPlan(t == 0 ? fpsa::PrecisionMode::Fp32
                                                : fpsa::PrecisionMode::Int8,
                                         fpsa::KernelIsa::Auto);
        if (!plan.ok()) {
            report.fail("plan: " + plan.status().toString());
            return;
        }
        reference[static_cast<std::size_t>(t)] =
            referenceOutputs(**plan, pool);
    }

    const std::vector<std::vector<fpsa::Tensor>> inputs = {pool, pool};
    Front front;
    front.inputs = &inputs;
    front.tenantNames = {kTenants[0], kTenants[1]};
    front.submit = [&](int tenant, fpsa::Tensor input) {
        return engine->submit(kTenants[tenant], std::move(input));
    };
    front.check = [&](int tenant, int input, const fpsa::Tensor &output) {
        return sameBits(output, reference[static_cast<std::size_t>(tenant)]
                                         [static_cast<std::size_t>(input)]);
    };

    // ------------------------------------------------ measured slots
    // The run is kSlots slots, each an open-loop segment and one
    // closed-loop segment per precision, so a burst of interference on
    // the machine lands in one segment.  Open-loop latencies are pooled
    // over the segments; a closed-loop rate is the median segment's.
    const double slotMs = config.seconds * 1000.0 / kSlots;
    const double openMs = slotMs * kOpenShare;
    const double closedMs = slotMs * (1.0 - kOpenShare) / 2.0;
    fpsa::Rng picks(config.seed ^ 0xa11);
    auto openSegment = [&](int slot) {
        std::vector<Request> schedule;
        for (int t = 0; t < 2; ++t)
            for (double due : poissonSchedule(
                     (config.seed * kSlots + static_cast<std::uint64_t>(slot)) *
                             2 +
                         static_cast<std::uint64_t>(t),
                     kRate[t], openMs))
                schedule.push_back(
                    {t, static_cast<int>(picks.uniformInt(kPoolSize)), due});
        std::sort(schedule.begin(), schedule.end(),
                  [](const Request &a, const Request &b) {
                      return a.dueMs < b.dueMs;
                  });
        PhaseResult phase = runOpenLoop(front, schedule, tracer);
        countOutcomes(report, phase.outcomes, "open loop");
        return phase;
    };
    auto closedSegment = [&](int tenant, std::uint64_t segment, Tracer &t) {
        const PhaseResult phase =
            runClosedLoop(front, std::vector<int>(kClosedClients, tenant),
                          closedMs, config.seed * 31 + segment, t);
        countOutcomes(report, phase.outcomes,
                      std::string("closed loop ") + kTenants[tenant]);
        return closedLoopRate(phase, closedMs);
    };
    // The placements beyond the set-ups' are compiled a few per slot, so
    // compile_s samples the whole run rather than one second of it.
    const int compilesPerSlot = (kPlacements - kSetupRepeats) / kSlots;
    std::vector<PhaseResult> open;
    std::vector<double> rates[2];
    for (int slot = 0; slot < kSlots; ++slot) {
        open.push_back(openSegment(slot));
        for (int t = 0; t < 2; ++t)
            rates[t].push_back(closedSegment(
                t, static_cast<std::uint64_t>(slot * 2 + t), tracer));
        for (int c = 0; c < compilesPerSlot; ++c)
            report.check(
                compile(kSetupRepeats + slot * compilesPerSlot + c).ok(),
                "compile failed");
    }

    std::vector<const Outcome *> byTenant[2];
    std::vector<double> lag;
    std::size_t requests = 0;
    for (const PhaseResult &phase : open) {
        requests += phase.outcomes.size();
        for (const Outcome &o : phase.outcomes) {
            byTenant[o.tenant].push_back(&o);
            lag.push_back(generatorLagMs(o.times));
        }
    }
    reportLatency(report, "lat_p50_ms", "lat_p99_ms",
                  dueLatencies(byTenant[0]));
    reportLatency(report, "int8.lat_p50_ms", "int8.lat_p99_ms",
                  dueLatencies(byTenant[1]));
    report.set("gen.lag_ms.p99", percentile(lag, 0.99), "ms");
    const double throughput = median(rates[0]);
    report.set("throughput_rps", throughput, "1/s");
    report.set("int8.throughput_rps", median(rates[1]), "1/s");
    if (config.trace) {
        // Tracing overhead: three fp32 closed-loop segments, untraced.
        Tracer off(false);
        std::vector<double> untraced;
        for (std::uint64_t s = 0; s < 3; ++s)
            untraced.push_back(closedSegment(0, 2 * kSlots + s, off));
        report.set("trace.overhead_pct",
                   (share(median(untraced), throughput) - 1.0) * 100.0, "%");
    }
    report.check(engine->shutdown().ok(), "engine shutdown");
    engine.reset();

    report.set("setup_s", median(setupS), "s");
    report.set("compile_s", median(compileS), "s");
    report.set("modeled_lat_ns", median(modeledNs), "ns");
    report.info("open.requests", static_cast<double>(requests));

    if (config.trace) {
        reportCompile(report, compileTimes, counts);
        reportArtifact(report, artifact);
        report.set("load.ms", loadMs, "ms");
        const auto [runFp32, runInt8] =
            probePlan(*model, kMaxBatch, pool, tracer, report);
        probeKernels(model->graph(), runFp32, tracer, report);
        reportEngineClass(report, "fp32", byTenant[0], runFp32);
        reportEngineClass(report, "int8", byTenant[1], runInt8);
    }
}

} // namespace perfbench
