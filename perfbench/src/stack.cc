#include "stack.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "common/rng.hh"
#include "nn/plan.hh"
#include "stats.hh"
#include "tensor/kernels.hh"

namespace perfbench
{

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

CompileCounts &
CompileCounts::operator+=(const CompileCounts &o)
{
    synthCacheHits += o.synthCacheHits;
    blocks += o.blocks;
    nets += o.nets;
    routeIters += o.routeIters;
    netsRouted += o.netsRouted;
    overused += o.overused;
    wirelength += o.wirelength;
    hpwl += o.hpwl;
    modeledNs += o.modeledNs;
    return *this;
}

fpsa::CompileOptions
compileOptions(std::int64_t duplication, std::uint64_t placerSeed)
{
    fpsa::CompileOptions options;
    options.duplicationDegree = duplication;
    options.runPlaceAndRoute = true;
    options.pnr.placer.seed = placerSeed;
    return options;
}

fpsa::Status
runStages(fpsa::Pipeline &pipeline, Tracer &tracer, const std::string &label,
          CompileTimes &times, CompileCounts &counts)
{
    const int hitsBefore = pipeline.stats(fpsa::Stage::Synthesize).cacheHits;
    Clock::time_point t = Clock::now();
    {
        Span span(tracer, "synth", label);
        auto synth = pipeline.synthesize();
        if (!synth.ok())
            return synth.status();
    }
    times.synth += millisSince(t);

    t = Clock::now();
    std::shared_ptr<const fpsa::MapArtifact> mapped;
    {
        Span span(tracer, "mapper", label);
        auto map = pipeline.map();
        if (!map.ok())
            return map.status();
        mapped = *map;
    }
    times.map += millisSince(t);

    t = Clock::now();
    {
        Span span(tracer, "pnr", label);
        auto pnr = pipeline.placeAndRoute();
        if (!pnr.ok() &&
            pnr.status().code() != fpsa::StatusCode::Unroutable)
            return pnr.status();
    }
    times.pnr += millisSince(t);

    t = Clock::now();
    std::shared_ptr<const fpsa::EvalArtifact> eval;
    {
        Span span(tracer, "sim", label);
        auto evaluated = pipeline.evaluate();
        if (!evaluated.ok())
            return evaluated.status();
        eval = *evaluated;
    }
    times.eval += millisSince(t);

    const auto pnr = pipeline.pnrArtifact();
    if (!pnr)
        return fpsa::Status::error(fpsa::StatusCode::Internal,
                                   label + ": no PnR artifact cached");
    times.place += pnr->placeMillis;
    times.route += pnr->routeMillis;

    counts.synthCacheHits +=
        pipeline.stats(fpsa::Stage::Synthesize).cacheHits - hitsBefore;
    counts.blocks += static_cast<std::int64_t>(mapped->netlist.blocks().size());
    counts.nets += static_cast<std::int64_t>(mapped->netlist.nets().size());
    if (pnr->routing) {
        counts.routeIters += pnr->routing->iterations;
        counts.netsRouted += pnr->routing->netsRouted;
        counts.overused += pnr->routing->overusedSegments;
        counts.wirelength += pnr->routing->totalWirelength;
    }
    counts.hpwl += pnr->placementHpwl;
    counts.modeledNs += eval->performance.latency;
    return fpsa::Status();
}

fpsa::StatusOr<fpsa::CompiledModel>
compileStaged(fpsa::Pipeline &pipeline, Tracer &tracer,
              const std::string &label, CompileTimes &times,
              CompileCounts &counts)
{
    if (fpsa::Status s = runStages(pipeline, tracer, label, times, counts);
        !s.ok())
        return s;
    const Clock::time_point t = Clock::now();
    Span span(tracer, "compile", label);
    auto compiled = pipeline.compile();
    times.freeze += millisSince(t);
    return compiled;
}

fpsa::StatusOr<std::shared_ptr<const fpsa::CompiledModel>>
roundTrip(const fpsa::CompiledModel &model, Tracer &tracer,
          ArtifactTimes &times)
{
    Clock::time_point t = Clock::now();
    std::string json;
    {
        Span span(tracer, "artifact", "toJson");
        json = model.toJson();
    }
    times.saveMs = millisSince(t);
    times.mb = static_cast<double>(json.size()) / 1e6;

    t = Clock::now();
    Span span(tracer, "artifact", "fromJson");
    auto loaded = fpsa::CompiledModel::fromJson(json);
    times.loadMs = millisSince(t);
    if (!loaded.ok())
        return loaded.status();
    return std::make_shared<const fpsa::CompiledModel>(
        std::move(loaded).value());
}

std::vector<fpsa::Tensor>
inputPool(const fpsa::Shape &shape, int count, std::uint64_t seed)
{
    fpsa::Rng rng(seed);
    std::vector<fpsa::Tensor> pool;
    for (int i = 0; i < count; ++i) {
        fpsa::Tensor t(shape);
        for (std::int64_t e = 0; e < t.numel(); ++e)
            t[e] = static_cast<float>(rng.uniform());
        pool.push_back(std::move(t));
    }
    return pool;
}

std::vector<std::vector<float>>
referenceOutputs(const fpsa::ExecutionPlan &plan,
                 const std::vector<fpsa::Tensor> &pool)
{
    fpsa::PlanContext context = plan.makeContext(1);
    std::vector<std::vector<float>> outputs;
    for (const fpsa::Tensor &input : pool) {
        std::vector<float> out(static_cast<std::size_t>(plan.outputNumel()));
        plan.run(input.data(), out.data(), context);
        outputs.push_back(std::move(out));
    }
    return outputs;
}

bool
sameBits(const fpsa::Tensor &output, const std::vector<float> &want)
{
    return static_cast<std::size_t>(output.numel()) == want.size() &&
           std::memcmp(output.data(), want.data(),
                       want.size() * sizeof(float)) == 0;
}

void
reportCompile(Report &report, const CompileTimes &times,
              const CompileCounts &counts)
{
    report.set("synth.ms", times.synth, "ms");
    report.set("map.ms", times.map, "ms");
    report.set("pnr.ms", times.pnr, "ms");
    report.set("pnr.place_ms", times.place, "ms");
    report.set("pnr.route_ms", times.route, "ms");
    report.set("eval.ms", times.eval, "ms");
    report.set("synth.cache_hits",
               static_cast<double>(counts.synthCacheHits), "count");
    report.set("map.blocks", static_cast<double>(counts.blocks), "count");
    report.set("map.nets", static_cast<double>(counts.nets), "count");
    report.set("pnr.route_iters", static_cast<double>(counts.routeIters),
               "count");
    report.set("pnr.nets_routed", static_cast<double>(counts.netsRouted),
               "count");
    report.set("pnr.overused", static_cast<double>(counts.overused),
               "count");
    report.set("pnr.wirelength", static_cast<double>(counts.wirelength),
               "count");
    report.set("pnr.hpwl", counts.hpwl, "count");
}

void
reportArtifact(Report &report, const ArtifactTimes &times)
{
    report.set("artifact.save_ms", times.saveMs, "ms");
    report.set("artifact.load_ms", times.loadMs, "ms");
    report.set("artifact.mb", times.mb, "MB");
}

namespace
{

/** Median wall time of `reps` calls of `fn`, in ms. */
template <typename Fn>
double
medianMillis(int reps, Fn &&fn)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t = Clock::now();
        fn(r);
        samples.push_back(millisSince(t));
    }
    return median(samples);
}

/**
 * Per-call ms of `fn`: calls are grouped so one group takes at least
 * ~2 ms, and the median over five groups is divided by the group size.
 */
template <typename Fn>
double
perCallMillis(Fn &&fn)
{
    fn();
    int group = 1;
    for (;;) {
        const Clock::time_point t = Clock::now();
        for (int i = 0; i < group; ++i)
            fn();
        if (millisSince(t) >= 2.0 || group >= (1 << 20))
            break;
        group *= 2;
    }
    return medianMillis(5, [&](int) {
               for (int i = 0; i < group; ++i)
                   fn();
           }) /
           group;
}

} // namespace

std::pair<double, double>
probePlan(const fpsa::CompiledModel &model, int maxBatch,
          const std::vector<fpsa::Tensor> &pool, Tracer &tracer,
          Report &report)
{
    double runMs[2] = {0.0, 0.0};
    const fpsa::PrecisionMode modes[2] = {fpsa::PrecisionMode::Fp32,
                                          fpsa::PrecisionMode::Int8};
    for (int m = 0; m < 2; ++m) {
        const std::string mode = fpsa::precisionModeName(modes[m]);
        const fpsa::PlanOptions options{modes[m], fpsa::KernelIsa::Auto};
        std::optional<fpsa::ExecutionPlan> plan;
        const double buildMs = medianMillis(3, [&](int) {
            Span span(tracer, "plan", "build." + mode);
            auto built = fpsa::ExecutionPlan::build(model.graph(), options);
            if (built.ok())
                plan.emplace(std::move(built).value());
        });
        if (!plan) {
            report.fail("plan build failed for " + mode);
            continue;
        }
        report.set("plan.build_ms." + mode, buildMs, "ms");

        std::vector<float> out(
            static_cast<std::size_t>(plan->outputNumel()) *
            static_cast<std::size_t>(maxBatch));
        fpsa::PlanContext single = plan->makeContext(1);
        plan->run(pool[0].data(), out.data(), single); // warm
        runMs[m] = medianMillis(15, [&](int r) {
            Span span(tracer, "plan", "run." + mode);
            plan->run(pool[static_cast<std::size_t>(r) % pool.size()].data(),
                      out.data(), single);
        });
        report.set("plan.run_ms." + mode, runMs[m], "ms");

        fpsa::PlanContext batched = plan->makeContext(maxBatch);
        std::vector<const float *> inputs;
        std::vector<float *> outputs;
        for (int b = 0; b < maxBatch; ++b) {
            inputs.push_back(
                pool[static_cast<std::size_t>(b) % pool.size()].data());
            outputs.push_back(out.data() + static_cast<std::size_t>(b) *
                                               static_cast<std::size_t>(
                                                   plan->outputNumel()));
        }
        plan->runBatch(inputs.data(), outputs.data(), maxBatch, batched);
        const double batchMs = medianMillis(3, [&](int) {
            Span span(tracer, "plan", "runBatch." + mode);
            plan->runBatch(inputs.data(), outputs.data(), maxBatch,
                           batched);
        });
        report.set("plan.batch_ms." + mode, batchMs / maxBatch, "ms");
    }
    report.set("kernel.int8_over_fp32", share(runMs[1], runMs[0]), "ratio");
    return {runMs[0], runMs[1]};
}

void
probeKernels(const fpsa::Graph &graph, double planRunMsFp32, Tracer &tracer,
             Report &report)
{
    struct GemmShape
    {
        std::int64_t m = 0, k = 0, n = 0;
        // im2col geometry; kernel 0 for fully connected layers.
        std::int64_t ci = 0, hi = 0, wi = 0, kernel = 0, stride = 1,
                     pad = 0, ho = 0, wo = 0;
        int count = 0;
    };
    std::map<std::string, GemmShape> shapes;
    for (fpsa::NodeId id : graph.topoOrder()) {
        const fpsa::GraphNode &node = graph.node(id);
        GemmShape s;
        if (node.kind == fpsa::OpKind::Conv2d) {
            const fpsa::Shape &in = graph.node(node.inputs[0]).outShape;
            s.ci = in[0] / node.attrs.groups;
            s.hi = in[1];
            s.wi = in[2];
            s.kernel = node.attrs.kernel;
            s.stride = node.attrs.stride;
            s.pad = node.attrs.pad;
            s.ho = node.outShape[1];
            s.wo = node.outShape[2];
            s.m = node.outShape[0] / node.attrs.groups;
            s.k = s.ci * s.kernel * s.kernel;
            s.n = s.ho * s.wo;
        } else if (node.kind == fpsa::OpKind::FullyConnected) {
            s.m = 1;
            s.k = graph.nodeWeightCount(id) / node.attrs.units;
            s.n = node.attrs.units;
        } else {
            continue;
        }
        const std::string key = "m" + std::to_string(s.m) + "k" +
                                std::to_string(s.k) + "n" +
                                std::to_string(s.n);
        auto [it, inserted] = shapes.emplace(key, s);
        it->second.count += node.attrs.groups;
    }

    const fpsa::KernelTable &kt = fpsa::kernelTable(fpsa::KernelIsa::Auto);
    fpsa::Rng rng(7);
    for (const auto &[key, s] : shapes) {
        Span span(tracer, "kernel", key);
        std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
        std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
        std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
        std::vector<std::int8_t> qa(a.size()), qb(b.size());
        std::vector<std::int32_t> qc(c.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            a[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
            qa[i] = static_cast<std::int8_t>(rng.uniformInt(255));
        }
        for (std::size_t i = 0; i < b.size(); ++i) {
            b[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
            qb[i] = static_cast<std::int8_t>(rng.uniformInt(255));
        }
        const double gemmMs = perCallMillis([&] {
            kt.gemmRowMajor(a.data(), s.k, b.data(), s.n, c.data(), s.n, s.m,
                            s.k, s.n);
        });
        const double int8Ms = perCallMillis([&] {
            kt.gemmInt8(qa.data(), s.k, qb.data(), s.n, qc.data(), s.n, s.m,
                        s.k, s.n);
        });
        double im2colMs = 0.0;
        if (s.kernel > 0) {
            std::vector<float> image(
                static_cast<std::size_t>(s.ci * s.hi * s.wi));
            for (float &v : image)
                v = static_cast<float>(rng.uniform());
            std::vector<float> columns(static_cast<std::size_t>(s.k * s.n));
            im2colMs = perCallMillis([&] {
                kt.im2colChw(image.data(), s.ci, s.hi, s.wi, s.kernel,
                             s.kernel, s.stride, s.pad, s.ho, s.wo,
                             columns.data(), s.n, 0.0f);
            });
        }
        const double ops = 2.0 * static_cast<double>(s.m) *
                           static_cast<double>(s.k) *
                           static_cast<double>(s.n);
        report.set("kernel.gemm_gflops." + key, ops / (gemmMs * 1e6),
                   "GFLOP/s");
        report.set("kernel.int8_gops." + key, ops / (int8Ms * 1e6), "GOP/s");
        report.set("kernel.im2col_ms." + key, im2colMs, "ms");
        report.set("kernel.share." + key,
                   share(s.count * (gemmMs + im2colMs), planRunMsFp32),
                   "ratio");
        report.set("kernel.bytes." + key,
                   4.0 * static_cast<double>(s.m * s.k + s.k * s.n +
                                             s.m * s.n),
                   "bytes");
    }
    report.info("kernel.bytes",
                "\"fp32 GEMM bytes per call, computed from operand sizes "
                "(A + B + C), not measured\"");
}

std::vector<double>
dueLatencies(const std::vector<const Outcome *> &outcomes)
{
    std::vector<double> latencies;
    for (const Outcome *o : outcomes)
        if (o->ok)
            latencies.push_back(dueLatencyMs(o->times));
    return latencies;
}

void
reportLatency(Report &report, const std::string &p50Name,
              const std::string &p99Name, const std::vector<double> &latencies)
{
    report.set(p50Name, percentile(latencies, 0.50), "ms");
    report.set(p99Name, percentile(latencies, 0.99), "ms");
    const auto n = static_cast<std::int64_t>(latencies.size());
    report.info(p99Name + ".samples", static_cast<double>(n));
    report.info(p99Name + ".supported",
                percentileSupported(n, 0.99) ? "true" : "false");
}

void
reportEngineClass(Report &report, const std::string &cls,
                  const std::vector<const Outcome *> &outcomes,
                  double planRunMs)
{
    std::vector<double> queue, exec, perSample, overhead;
    double batches = 0.0;
    for (const Outcome *o : outcomes) {
        if (!o->ok)
            continue;
        queue.push_back(o->queueMs);
        exec.push_back(o->execMs);
        perSample.push_back(o->execMs / std::max(1, o->batch));
        overhead.push_back(o->times.observedMs - o->times.sentMs -
                           o->queueMs - o->execMs);
        batches += o->batch;
    }
    report.set("engine.queue_ms.p50." + cls, percentile(queue, 0.50), "ms");
    report.set("engine.queue_ms.p99." + cls, percentile(queue, 0.99), "ms");
    report.set("engine.exec_ms.p50." + cls, percentile(exec, 0.50), "ms");
    report.set("engine.batch_mean." + cls,
               share(batches, static_cast<double>(queue.size())), "count");
    report.set("engine.overhead_ms.p50." + cls, percentile(overhead, 0.50),
               "ms");
    if (planRunMs > 0.0)
        report.set("engine.exec_gap_ms." + cls,
                   median(perSample) - planRunMs, "ms");
}

double
closedLoopRate(const PhaseResult &phase, double durationMs)
{
    std::int64_t served = 0;
    for (const Outcome &o : phase.outcomes)
        served += o.ok && o.times.observedMs <= durationMs;
    return share(static_cast<double>(served), durationMs / 1000.0);
}

void
countOutcomes(Report &report, const std::vector<Outcome> &outcomes,
              const std::string &phase)
{
    std::int64_t wrong = 0;
    std::string firstError;
    for (const Outcome &o : outcomes) {
        ++report.attempted;
        if (!o.ok) {
            ++report.failed;
            if (firstError.empty())
                firstError = o.error;
        } else if (!o.correct) {
            ++wrong;
        }
    }
    report.check(wrong == 0, phase + ": " + std::to_string(wrong) +
                                 " served outputs differ from the "
                                 "single-sample plan output");
    report.check(firstError.empty(),
                 phase + ": accepted request lost: " + firstError);
}

} // namespace perfbench
