/**
 * @file
 * Inference data-path bench: naive reference kernels vs the planned
 * im2col/GEMM execution engine across its execution configs (scalar
 * fp32, vector fp32, int8), single-sample vs batched, one JSON object
 * per line -- the anchor of the inference-throughput perf trajectory
 * (tools/bench_trajectory.py --bench infer).
 *
 *   $ ./inference_throughput > infer.jsonl   # full model sweep
 *   $ ./inference_throughput --small         # CI sizes
 *
 * Per model it reports:
 *  - reference / planned single-sample latency and the speedup ratio
 *    (machine-portable: both sides run on the same host);
 *  - the same planned latency pinned to the scalar kernel table and
 *    the vector-over-scalar ratio (`vectorSpeedup`) -- what the SIMD
 *    dispatch layer buys on this host;
 *  - the int8 plan's latency and its ratio over scalar fp32
 *    (`int8Speedup`) -- what quantized serving buys -- and over vector
 *    fp32 (`int8OverVectorFp32`), what it buys against the fp32 path
 *    that actually serves on this host;
 *  - planned batched latency per sample at the engine's default batch
 *    width and the batched-over-single per-sample speedup;
 *  - heap allocations per planned request across the fp32 and int8
 *    paths, counted with a global operator-new hook (must be 0).
 *
 * The summary line carries the gated metrics, including
 * `minCoalescedBatchSpeedup`: the worst batched speedup among models
 * whose conv layers all have fewer than 1024 output positions (for
 * those batched serving must beat single-sample; conv stacks with
 * wider layers are weight-amortized already and sit at ~1.0, reported
 * as info).
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/alloc_probe.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "nn/execute.hh"
#include "nn/graph.hh"
#include "nn/models.hh"
#include "nn/plan.hh"
#include "tensor/kernels.hh"
#include "tensor/tensor.hh"

using namespace fpsa;

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

Tensor
sampleInput(const Shape &shape, int id)
{
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>((i * (id + 3)) % 97) / 97.0f - 0.3f;
    return t;
}

/** Best-of-`reps` single-sample latency of the reference kernels. */
double
timeReference(const Graph &graph, const Tensor &input, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        Tensor out = runGraphFinal(graph, input);
        best = std::min(best, millisSince(start));
        if (out.numel() == 0)
            std::exit(1); // defeat dead-code elimination
    }
    return best;
}

struct PlannedTiming
{
    double singleMillis = 0.0;
    double batchedMillisPerSample = 0.0;
    long allocsPerRequest = 0;
    std::int64_t arenaFloats = 0;
    KernelIsa isa = KernelIsa::Scalar;
};

/**
 * Build a plan for one execution config, time it, and release it
 * before the next config (three resident VGG16 plans would double the
 * bench's footprint for no measurement benefit).  `batch` <= 0 skips
 * the batched timing.
 */
PlannedTiming
timePlanned(const Graph &graph, PrecisionMode precision,
            KernelIsa isa, int reps, int batch_reps, int batch,
            const Tensor &input)
{
    auto plan = ExecutionPlan::build(graph, {precision, isa});
    if (!plan.ok()) {
        std::cerr << plan.status().toString() << "\n";
        std::exit(1);
    }

    PlannedTiming t;
    t.isa = plan->kernelIsa();
    t.arenaFloats = plan->arenaFloatsPerSample();
    // makeContext sizes the arena/scratch up front, so every run
    // below (including the first batched one) is steady-state.
    PlanContext context = plan->makeContext(batch > 0 ? batch : 1);
    Tensor out(plan->outputShape());

    plan->run(input.data(), out.data(), context); // warm caches
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        plan->run(input.data(), out.data(), context);
        best = std::min(best, millisSince(start));
    }
    t.singleMillis = best;

    // Allocation count of a steady-state request.
    alloc_probe::arm();
    plan->run(input.data(), out.data(), context);
    t.allocsPerRequest = alloc_probe::disarm();

    if (batch > 0) {
        std::vector<Tensor> outs(static_cast<std::size_t>(batch),
                                 Tensor(plan->outputShape()));
        std::vector<const float *> in_ptrs(
            static_cast<std::size_t>(batch), input.data());
        std::vector<float *> out_ptrs;
        for (Tensor &o : outs)
            out_ptrs.push_back(o.data());
        best = 1e30;
        for (int r = 0; r < batch_reps; ++r) {
            const auto start = Clock::now();
            plan->runBatch(in_ptrs.data(), out_ptrs.data(), batch,
                           context);
            best = std::min(best, millisSince(start));
        }
        t.batchedMillisPerSample = best / batch;
        alloc_probe::arm();
        plan->runBatch(in_ptrs.data(), out_ptrs.data(), batch,
                       context);
        t.allocsPerRequest =
            std::max(t.allocsPerRequest, alloc_probe::disarm());
    }
    return t;
}

/**
 * Whether every conv layer has fewer than 1024 output positions per
 * sample -- the models (MLP, LeNet) whose batched serving must beat
 * single-sample.  This was the plan's coalescing cutoff (nn/plan.cc)
 * until it fell to 64; the set stays fixed so the batched gate keeps
 * covering LeNet, whose batch still wins on per-sample full-strip
 * GEMMs and its FC layers' m = batch GEMMs.
 */
bool
fullyCoalesced(const Graph &graph)
{
    for (const GraphNode &n : graph.nodes()) {
        if (n.kind != OpKind::Conv2d)
            continue;
        const Shape &s = n.outShape;
        if (s.size() == 3 && s[1] * s[2] >= 1024)
            return false;
    }
    return true;
}

struct ModelResult
{
    std::string name;
    std::int64_t ops = 0;
    double speedup = 0.0;
    double vectorSpeedup = 0.0;
    double int8Speedup = 0.0;
    double int8OverVectorFp32 = 0.0;
    double batchSpeedup = 0.0;
    bool coalesced = false;
    long allocsPerRequest = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool small = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--small") == 0) {
            small = true;
        } else {
            std::cerr << "usage: " << argv[0] << " [--small]\n";
            return 2;
        }
    }

    // The conv-heavy numeric-execution models, ordered by op count;
    // --small stops before AlexNet/VGG16 (minutes of naive reference
    // per request) but still gates on the conv-heavy VGG17.
    std::vector<ModelId> models{ModelId::Mlp500_100, ModelId::LeNet,
                                ModelId::Vgg17Cifar};
    if (!small) {
        models.push_back(ModelId::AlexNet);
        models.push_back(ModelId::Vgg16);
    }
    const int batch = 8; // EngineOptions::maxBatch default

    std::vector<ModelResult> results;
    for (ModelId id : models) {
        Graph graph = buildModel(id);
        Rng rng(2019);
        randomizeWeights(graph, rng);
        const Tensor input =
            sampleInput(graph.nodes().front().outShape, 1);

        const std::int64_t ops = graph.opCount();
        // Repeat counts scale down with model size; the reference side
        // of the big models is the wall-clock hog.
        const bool huge = ops > 1000000000;
        const int ref_reps = huge ? 1 : (small ? 3 : 5);
        const int plan_reps = huge ? 2 : 10;
        const int batch_reps = huge ? 1 : plan_reps;

        const double ref_ms = timeReference(graph, input, ref_reps);
        const PlannedTiming vec =
            timePlanned(graph, PrecisionMode::Fp32, KernelIsa::Auto,
                        plan_reps, batch_reps, batch, input);
        const PlannedTiming scalar =
            timePlanned(graph, PrecisionMode::Fp32, KernelIsa::Scalar,
                        plan_reps, 0, 0, input);
        const PlannedTiming int8 =
            timePlanned(graph, PrecisionMode::Int8, KernelIsa::Auto,
                        plan_reps, 0, 0, input);

        ModelResult r;
        r.name = modelName(id);
        r.ops = ops;
        r.speedup = ref_ms / vec.singleMillis;
        r.vectorSpeedup = scalar.singleMillis / vec.singleMillis;
        r.int8Speedup = scalar.singleMillis / int8.singleMillis;
        r.int8OverVectorFp32 = vec.singleMillis / int8.singleMillis;
        r.batchSpeedup =
            vec.singleMillis / vec.batchedMillisPerSample;
        r.coalesced = fullyCoalesced(graph);
        r.allocsPerRequest =
            std::max(vec.allocsPerRequest, int8.allocsPerRequest);
        results.push_back(r);

        JsonWriter j;
        j.beginObject();
        j.field("kind", "model");
        j.field("model", r.name);
        j.field("ops", ops);
        j.field("kernelIsa", kernelIsaName(vec.isa));
        j.field("referenceMillis", ref_ms);
        j.field("plannedMillis", vec.singleMillis);
        j.field("plannedScalarMillis", scalar.singleMillis);
        j.field("plannedInt8Millis", int8.singleMillis);
        j.field("plannedBatchedMillisPerSample",
                vec.batchedMillisPerSample);
        j.field("batch", static_cast<std::int64_t>(batch));
        j.field("speedup", r.speedup);
        j.field("vectorSpeedup", r.vectorSpeedup);
        j.field("int8Speedup", r.int8Speedup);
        j.field("int8OverVectorFp32", r.int8OverVectorFp32);
        j.field("batchSpeedup", r.batchSpeedup);
        j.field("fullyCoalesced", r.coalesced);
        j.field("allocsPerRequest",
                static_cast<std::int64_t>(r.allocsPerRequest));
        j.field("arenaFloatsPerSample", vec.arenaFloats);
        j.endObject();
        std::cout << j.str() << "\n";
    }

    // Summary: the largest (by op count) model's speedups are the
    // headline acceptance metrics.
    const ModelResult *largest = &results.front();
    long worst_allocs = 0;
    double min_coalesced_batch = 1e30;
    for (const ModelResult &r : results) {
        if (r.ops > largest->ops)
            largest = &r;
        worst_allocs = std::max(worst_allocs, r.allocsPerRequest);
        if (r.coalesced)
            min_coalesced_batch =
                std::min(min_coalesced_batch, r.batchSpeedup);
    }
    JsonWriter j;
    j.beginObject();
    j.field("kind", "summary");
    j.field("largestModel", largest->name);
    j.field("largestModelSpeedup", largest->speedup);
    j.field("largestModelVectorSpeedup", largest->vectorSpeedup);
    j.field("largestModelInt8Speedup", largest->int8Speedup);
    j.field("largestModelInt8OverVectorFp32",
            largest->int8OverVectorFp32);
    j.field("minCoalescedBatchSpeedup",
            min_coalesced_batch == 1e30 ? 0.0 : min_coalesced_batch);
    j.field("allocsPerRequest",
            static_cast<std::int64_t>(worst_allocs));
    j.key("models").beginArray();
    for (const ModelResult &r : results) {
        j.beginObject();
        j.field("model", r.name);
        j.field("speedup", r.speedup);
        j.field("vectorSpeedup", r.vectorSpeedup);
        j.field("int8Speedup", r.int8Speedup);
        j.field("int8OverVectorFp32", r.int8OverVectorFp32);
        j.field("batchSpeedup", r.batchSpeedup);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::cout << j.str() << "\n";
    return 0;
}
