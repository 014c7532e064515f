/**
 * @file
 * Model-sharding pipeline bench: serves a LeNet-class model two ways
 * and anchors the sharded data path's perf trajectory.  Emits one
 * JSON object per line:
 *
 *   $ ./shard_pipeline > shard.jsonl             # full run
 *   $ ./shard_pipeline --small                   # CI smoke size
 *
 * Arms:
 *
 *  - `wholeBaseline`: the model replicated whole on a single chip
 *    big enough to hold it (the classic serving path).
 *  - `shardedRun`: the same model on a fleet whose chips each hold
 *    ~70% of it, so `ClusterEngine::loadModel` takes the
 *    shard-across fallback and serves through a `ShardRouter`
 *    chip-to-chip pipeline with a modeled interconnect.
 *
 * Both arms stream the same paced request load (bounded in-flight
 * window) and report client-observed latency percentiles and
 * throughput.  The summary's gated metrics:
 *
 *  - `interconnectBytesPerRequest` (deterministic): the plan's total
 *    cut activation bytes -- grows only if the partitioner picks a
 *    worse cut.
 *  - `shardedP99Millis` (timing): the sharded arm's client-observed
 *    tail.
 *  - `lostRequests` (deterministic, 0): a streamed+drained pipeline
 *    run never fails an accepted request.
 *
 * Shard count, both arms' throughputs and their ratio, and the
 * modeled per-request interconnect cost are recorded as info for the
 * trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "pipeline.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/compiled_model.hh"
#include "runtime/engine.hh"

using namespace fpsa;

namespace
{

using Clock = std::chrono::steady_clock;

/** LeNet-class CNN (28x28 input) -- same family as the serving and
 * fault benches, so trajectories stay comparable across BENCH files. */
Graph
lenetClassModel()
{
    GraphBuilder b({1, 28, 28});
    b.conv(6, 5, 1, 0).relu().maxPool(2, 2);
    b.conv(16, 5, 1, 0).relu().maxPool(2, 2);
    b.flatten().fc(120).relu().fc(84).relu().fc(10);
    Graph g = b.build();
    Rng rng(2019);
    randomizeWeights(g, rng);
    return g;
}

Tensor
sampleInput(int id)
{
    Tensor t({1, 28, 28});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>((i * (id + 1)) % 97) / 97.0f;
    return t;
}

ChipCapacity
scaledCapacity(const ResourceDemand &demand, double factor)
{
    auto scale = [factor](std::int64_t units) {
        return std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   static_cast<double>(units) * factor) +
                   1);
    };
    ChipCapacity c;
    c.peBlocks = scale(demand.peBlocks);
    c.smbBlocks = scale(demand.smbBlocks);
    c.clbBlocks = scale(demand.clbBlocks);
    c.routingTracks = scale(demand.routingTracks);
    return c;
}

struct ArmResult
{
    std::int64_t requests = 0;
    std::int64_t lost = 0;
    double p50Millis = 0.0;
    double p99Millis = 0.0;
    double throughput = 0.0;
    int shards = 1;
    std::int64_t interconnectBytesPerRequest = 0;
    double interconnectNanosPerRequest = 0.0;
    double forwardsPerRequest = 0.0;
};

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1));
    return values[rank];
}

/**
 * Stream `requests` through one tenant with a bounded in-flight
 * window (so tail latency measures the pipeline, not an unbounded
 * backlog) and fold the per-request telemetry.  The `ShardRouter`
 * preserves submission order within a group, so resolving futures in
 * submit order gives faithful client-observed latencies.
 */
ArmResult
streamLoad(ClusterEngine &cluster, const std::string &model,
           int requests, int window)
{
    struct Pending
    {
        Clock::time_point submitted;
        std::future<StatusOr<InferenceResult>> future;
    };
    ArmResult out;
    out.requests = requests;
    std::vector<double> latencies;
    latencies.reserve(requests);
    std::int64_t bytes = 0;
    std::int64_t forwards = 0;
    double nanos = 0.0;

    std::deque<Pending> inflight;
    auto settle = [&](Pending pending) {
        auto r = pending.future.get();
        if (!r.ok()) {
            ++out.lost;
            return;
        }
        latencies.push_back(
            std::chrono::duration<double, std::milli>(
                Clock::now() - pending.submitted)
                .count());
        out.shards = std::max(out.shards, r->shards);
        bytes += r->interconnectBytes;
        nanos += r->interconnectNanos;
        forwards += r->shards > 1 ? r->shards - 1 : 0;
    };

    const Clock::time_point start = Clock::now();
    for (int i = 0; i < requests; ++i) {
        while (static_cast<int>(inflight.size()) >= window) {
            settle(std::move(inflight.front()));
            inflight.pop_front();
        }
        inflight.push_back(
            {Clock::now(), cluster.submit(model, sampleInput(i))});
    }
    while (!inflight.empty()) {
        settle(std::move(inflight.front()));
        inflight.pop_front();
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    out.p50Millis = percentile(latencies, 0.50);
    out.p99Millis = percentile(latencies, 0.99);
    out.throughput =
        seconds > 0.0 ? static_cast<double>(latencies.size()) / seconds
                      : 0.0;
    const auto completed =
        static_cast<std::int64_t>(latencies.size());
    if (completed > 0) {
        out.interconnectBytesPerRequest = bytes / completed;
        out.interconnectNanosPerRequest =
            nanos / static_cast<double>(completed);
        out.forwardsPerRequest = static_cast<double>(forwards) /
                                 static_cast<double>(completed);
    }
    return out;
}

StatusOr<ArmResult>
runArm(const std::shared_ptr<const CompiledModel> &model,
       const std::vector<std::pair<std::string, ChipCapacity>> &chips,
       int requests, int window)
{
    ClusterOptions options;
    options.engine.workerThreads = 2;
    std::vector<ChipSpec> specs;
    for (const auto &[id, capacity] : chips)
        specs.push_back({id, capacity, {}});
    auto cluster = ClusterEngine::create(specs, options);
    if (!cluster.ok())
        return cluster.status();
    Status loaded = (*cluster)->loadModel("m", model);
    if (!loaded.ok())
        return loaded;
    ArmResult result = streamLoad(**cluster, "m", requests, window);
    Status down = (*cluster)->shutdown();
    if (!down.ok())
        return down;
    return result;
}

void
emitArm(const char *kind, const ArmResult &arm)
{
    JsonWriter j;
    j.beginObject();
    j.field("kind", kind);
    j.field("requests", arm.requests);
    j.field("lostRequests", arm.lost);
    j.field("shards", static_cast<std::int64_t>(arm.shards));
    j.field("p50Millis", arm.p50Millis);
    j.field("p99Millis", arm.p99Millis);
    j.field("throughput", arm.throughput);
    j.field("interconnectBytesPerRequest",
            arm.interconnectBytesPerRequest);
    j.field("interconnectNanosPerRequest",
            arm.interconnectNanosPerRequest);
    j.field("forwardsPerRequest", arm.forwardsPerRequest);
    j.endObject();
    std::cout << j.str() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--small") == 0)
            small = true;

    CompileOptions compile_options;
    compile_options.duplicationDegree = 2;
    Pipeline pipeline(lenetClassModel(), compile_options);
    auto compiled = pipeline.compile();
    if (!compiled.ok()) {
        std::cerr << "compile: " << compiled.status().toString()
                  << "\n";
        return 1;
    }
    auto model =
        std::make_shared<CompiledModel>(std::move(compiled).value());
    const ResourceDemand demand = model->resourceDemand();

    const int requests = small ? 120 : 400;
    const int window = 16;

    {
        JsonWriter j;
        j.beginObject();
        j.field("kind", "model");
        j.field("weights", model->graph().weightCount());
        j.field("opsPerSample", model->graph().opCount());
        j.field("peBlocks", demand.peBlocks);
        j.field("hardwareConcurrency",
                static_cast<std::int64_t>(
                    std::thread::hardware_concurrency()));
        j.endObject();
        std::cout << j.str() << "\n";
    }

    // Whole-model baseline: one chip holds the model comfortably.
    auto whole = runArm(model, {{"big0", scaledCapacity(demand, 2.0)}},
                        requests, window);
    if (!whole.ok()) {
        std::cerr << "whole arm: " << whole.status().toString() << "\n";
        return 1;
    }
    emitArm("wholeBaseline", *whole);

    // Sharded arm: every chip holds ~70% of the model, so loadModel
    // falls back to shard-across and serves a 2+ stage pipeline.
    const ChipCapacity fractional = scaledCapacity(demand, 0.7);
    auto sharded = runArm(model,
                          {{"c0", fractional},
                           {"c1", fractional},
                           {"c2", fractional}},
                          requests, window);
    if (!sharded.ok()) {
        std::cerr << "sharded arm: " << sharded.status().toString()
                  << "\n";
        return 1;
    }
    if (sharded->shards < 2) {
        std::cerr << "sharded arm did not shard (shards="
                  << sharded->shards << ")\n";
        return 1;
    }
    emitArm("shardedRun", *sharded);

    JsonWriter j;
    j.beginObject();
    j.field("kind", "summary");
    j.field("shardCount", static_cast<std::int64_t>(sharded->shards));
    j.field("interconnectBytesPerRequest",
            sharded->interconnectBytesPerRequest);
    j.field("interconnectNanosPerRequest",
            sharded->interconnectNanosPerRequest);
    j.field("shardedP99Millis", sharded->p99Millis);
    j.field("shardedThroughput", sharded->throughput);
    j.field("wholeThroughput", whole->throughput);
    j.field("shardedThroughputRatio",
            whole->throughput > 0.0
                ? sharded->throughput / whole->throughput
                : 0.0);
    j.field("lostRequests", whole->lost + sharded->lost);
    j.field("requests",
            static_cast<std::int64_t>(whole->requests +
                                      sharded->requests));
    j.field("hardwareConcurrency",
            static_cast<std::int64_t>(
                std::thread::hardware_concurrency()));
    j.endObject();
    std::cout << j.str() << "\n";
    return 0;
}
