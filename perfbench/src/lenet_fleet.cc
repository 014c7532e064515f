/**
 * @file
 * lenet-fleet: a `ClusterEngine` over 3 variation-sampled chips with
 * one worker each, serving three small tenants:
 *
 *  - LeNet, 2 replicas under a `minAccuracy` SLO, so calibration runs
 *    at load;
 *  - MLP-500-100, 2 replicas;
 *  - a 784-1024-1024-10 MLP whose demand exceeds one chip, so
 *    `loadModel` falls back to sharding it across chips.
 *
 * A request costs 0.1-0.4 ms of compute, so queueing, scheduling,
 * routing and shard forwarding are the main cost here and the kernels
 * do little.  The sharded tenant forwards between stages instead of
 * dispatching to a replica.
 *
 * Phases, interleaved over the run in many short slots: open loop over
 * a fixed ladder of total rates (half the run), and a closed loop over
 * all tenants with enough clients to keep every chip busy.
 *
 * The workload's latency and throughput are the closed loop's, at
 * capacity.  An open-loop request at a moderate rate finds idle chips,
 * so its latency is mostly how promptly four threads (submitter, chip
 * worker, shard forwarder, observer) are woken, which on a shared host
 * follows the neighbours' load more than the serving stack; the open
 * loop's figures are per-layer records.
 */

#include <algorithm>
#include <cmath>

#include "accuracy/calibration.hh"
#include "common/rng.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "nn/plan.hh"
#include "report.hh"
#include "reram/variation.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "stack.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

constexpr int kChips = 3;
constexpr int kPoolSize = 64;
constexpr double kMinAccuracy = 0.90;
constexpr std::uint64_t kFleetSeed = 2019;

/** Offered total rates of the ladder, requests/s, ascending. */
constexpr double kLadder[] = {1500.0, 3000.0, 6000.0, 15000.0};
constexpr int kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
/** The rung every slot runs: open.lat_p50_ms, lat_p99_ms, shard.lat_*. */
constexpr int kReferenceRung = 1;
/** Slots of a run; each has two open-loop repeats and a closed loop. */
constexpr int kSlots = 40;
constexpr double kOpenShare = 0.5; //!< of a slot; the rest is closed
/** p99 limit of the SLO rate. */
constexpr double kLimitMs = 10.0;

enum Tenant
{
    kLenet = 0,
    kMlp = 1,
    kShard = 2,
};
const char *const kTenants[3] = {"lenet", "mlp", "shard"};
/** Share of the offered load per tenant. */
constexpr double kMix[3] = {0.4, 0.4, 0.2};
/**
 * Closed-loop clients per tenant: three full batches per replica (or
 * shard stage), so a chip's queue never empties while a batch's
 * clients wait for their results; with fewer the rate is bound by
 * wake-ups, not by the serving stack.
 */
constexpr int kClients[3] = {48, 48, 24};

struct TenantModel
{
    fpsa::Graph graph;
    std::int64_t duplication = 1;
    int replicas = 1;
};

std::vector<TenantModel>
tenantModels()
{
    std::vector<TenantModel> models;
    models.push_back({fpsa::buildLeNet(), 1, 2});
    models.push_back({fpsa::buildModel(fpsa::ModelId::Mlp500_100), 1, 2});
    models.push_back({fpsa::buildMlp(784, {1024, 1024}, 10), 4, 1});
    fpsa::Rng weights(2019);
    for (TenantModel &m : models)
        fpsa::randomizeWeights(m.graph, weights);
    return models;
}

/**
 * Per-chip budget: room for one LeNet and one MLP replica plus 60% of
 * the big tenant, which therefore fits no chip whole.
 */
fpsa::ChipCapacity
chipCapacity(const std::vector<std::shared_ptr<const fpsa::CompiledModel>> &m)
{
    const fpsa::ResourceDemand &l = m[kLenet]->resourceDemand();
    const fpsa::ResourceDemand &p = m[kMlp]->resourceDemand();
    const fpsa::ResourceDemand &s = m[kShard]->resourceDemand();
    auto budget = [](std::int64_t a, std::int64_t b, std::int64_t c) {
        return a + b +
               static_cast<std::int64_t>(std::ceil(0.6 * static_cast<double>(c)));
    };
    fpsa::ChipCapacity capacity;
    capacity.peBlocks = budget(l.peBlocks, p.peBlocks, s.peBlocks);
    capacity.smbBlocks = budget(l.smbBlocks, p.smbBlocks, s.smbBlocks);
    capacity.clbBlocks = budget(l.clbBlocks, p.clbBlocks, s.clbBlocks);
    capacity.routingTracks =
        budget(l.routingTracks, p.routingTracks, s.routingTracks);
    return capacity;
}

std::vector<fpsa::VariationProfile>
fleetProfiles()
{
    fpsa::VariationModel corner;
    corner.sigmaOfRange = 0.02;
    corner.stuckAtRate = 1e-4;
    return fpsa::sampleFleetProfiles(corner, kFleetSeed, kChips);
}

/** Each chip engine's aggregate counters, in fleet order. */
std::vector<fpsa::EngineStats>
chipStats(const fpsa::ClusterEngine &cluster)
{
    std::vector<fpsa::EngineStats> stats;
    for (std::size_t c = 0; c < cluster.fleet().size(); ++c)
        stats.push_back(cluster.fleet().engine(c).stats());
    return stats;
}

} // namespace

void
runLenetFleet(const RunConfig &config, Tracer &tracer, Report &report)
{
    std::vector<TenantModel> tenants = tenantModels();
    const std::vector<fpsa::VariationProfile> profiles = fleetProfiles();

    // ------------------------------------------------------ set-up
    // Every compile places with its own seeds; compile_s and
    // modeled_lat_ns are medians over kPlacements of them.
    std::vector<double> setupS, compileS, modeledNs;
    CompileTimes compileTimes;
    CompileCounts counts;
    auto compile = [&](int placement) {
        std::vector<fpsa::CompiledModel> compiled;
        std::vector<double> modeled;
        compileTimes = {};
        counts = {};
        const Clock::time_point start = Clock::now();
        for (int t = 0; t < 3; ++t) {
            const TenantModel &tenant = tenants[static_cast<std::size_t>(t)];
            fpsa::Pipeline pipeline(
                tenant.graph,
                compileOptions(tenant.duplication,
                               (config.seed * kPlacements +
                                static_cast<std::uint64_t>(placement)) *
                                       3 +
                                   static_cast<std::uint64_t>(t)));
            CompileCounts one;
            auto model = compileStaged(pipeline, tracer, kTenants[t],
                                       compileTimes, one);
            if (!model.ok()) {
                report.fail(std::string("compile ") + kTenants[t] + ": " +
                            model.status().toString());
                return compiled;
            }
            compiled.push_back(std::move(model).value());
            modeled.push_back(one.modeledNs);
            counts += one;
        }
        compileS.push_back(millisSince(start) / 1000.0);
        modeledNs.push_back(geomean(modeled));
        return compiled;
    };
    std::unique_ptr<fpsa::ClusterEngine> cluster;
    std::vector<std::shared_ptr<const fpsa::CompiledModel>> models(3);
    ArtifactTimes artifact;
    double loadMs = 0.0;
    for (int r = 0; r < kSetupRepeats; ++r) {
        if (cluster) {
            report.check(cluster->shutdown().ok(), "cluster shutdown");
            cluster.reset();
        }
        Span setup(tracer, "setup", "setup");
        const Clock::time_point start = Clock::now();
        const std::vector<fpsa::CompiledModel> compiled = compile(r);
        if (compiled.size() != 3)
            return;
        artifact = {};
        for (int t = 0; t < 3; ++t) {
            ArtifactTimes a;
            auto loaded =
                roundTrip(compiled[static_cast<std::size_t>(t)], tracer, a);
            if (!loaded.ok()) {
                report.fail("artifact: " + loaded.status().toString());
                return;
            }
            artifact.saveMs += a.saveMs;
            artifact.loadMs += a.loadMs;
            artifact.mb += a.mb;
            models[static_cast<std::size_t>(t)] = *loaded;
        }

        const fpsa::ChipCapacity capacity = chipCapacity(models);
        std::vector<fpsa::ChipSpec> chips;
        for (int i = 0; i < kChips; ++i)
            chips.push_back({"chip" + std::to_string(i), capacity,
                             profiles[static_cast<std::size_t>(i)]});
        fpsa::ClusterOptions options;
        options.engine.workerThreads = 1;
        options.engine.maxBatch = 8;
        auto created = [&] {
            Span span(tracer, "cluster", "create");
            return fpsa::ClusterEngine::create(chips, options);
        }();
        if (!created.ok()) {
            report.fail("cluster: " + created.status().toString());
            return;
        }
        cluster = std::move(created).value();

        const Clock::time_point loadStart = Clock::now();
        for (int t = 0; t < 3; ++t) {
            fpsa::TenantOptions tenant;
            if (t == kLenet)
                tenant.minAccuracy = kMinAccuracy;
            Span span(tracer, "cluster", std::string("loadModel.") +
                                             kTenants[t]);
            if (fpsa::Status s = cluster->loadModel(
                    kTenants[t], models[static_cast<std::size_t>(t)],
                    tenants[static_cast<std::size_t>(t)].replicas, tenant);
                !s.ok()) {
                report.fail(std::string("loadModel ") + kTenants[t] + ": " +
                            s.toString());
                return;
            }
        }
        loadMs = millisSince(loadStart);
        for (int t = 0; t < 3; ++t) {
            const fpsa::Tensor warm(
                models[static_cast<std::size_t>(t)]->inputShape());
            for (int i = 0; i < 4; ++i)
                report.check(cluster->infer(kTenants[t], warm).ok(),
                             "warm-up request failed");
        }
        setupS.push_back(millisSince(start) / 1000.0);
    }
    const std::size_t shardChips =
        cluster->replicaChips(kTenants[kShard]).size();
    report.check(shardChips >= 2,
                 "the big tenant was not sharded across chips");
    report.info("shard.chips", static_cast<double>(shardChips));

    // Reference outputs: single-sample plan runs of each whole model --
    // for the sharded tenant, the unsharded model.
    std::vector<std::vector<fpsa::Tensor>> inputs;
    std::vector<std::vector<std::vector<float>>> reference;
    for (int t = 0; t < 3; ++t) {
        const auto &m = models[static_cast<std::size_t>(t)];
        inputs.push_back(inputPool(m->inputShape(), kPoolSize,
                                   config.seed * 3 + static_cast<std::uint64_t>(t)));
        auto plan = m->executionPlan(fpsa::PrecisionMode::Fp32,
                                     fpsa::KernelIsa::Auto);
        if (!plan.ok()) {
            report.fail("plan: " + plan.status().toString());
            return;
        }
        reference.push_back(referenceOutputs(**plan, inputs.back()));
    }

    Front front;
    front.inputs = &inputs;
    front.tenantNames = {kTenants[0], kTenants[1], kTenants[2]};
    front.layer = "cluster";
    front.submit = [&](int tenant, fpsa::Tensor input) {
        return cluster->submit(kTenants[tenant], std::move(input));
    };
    front.check = [&](int tenant, int input, const fpsa::Tensor &output) {
        return sameBits(output, reference[static_cast<std::size_t>(tenant)]
                                         [static_cast<std::size_t>(input)]);
    };

    const std::vector<fpsa::EngineStats> before = chipStats(*cluster);

    // ------------------------------------------------ measured slots
    // The run is kSlots slots.  Each runs the reference rung once, one
    // other rung (each in turn) and a closed-loop segment, so a burst of
    // interference on the machine lands in one repeat of one phase;
    // every figure below is a median over repeats or pooled samples.
    std::vector<int> others;
    for (int k = 0; k < kRungs; ++k)
        if (k != kReferenceRung)
            others.push_back(k);
    std::vector<int> clientTenants;
    for (int t = 0; t < 3; ++t)
        clientTenants.insert(clientTenants.end(), kClients[t], t);
    const double slotMs = config.seconds * 1000.0 / kSlots;
    const double openMs = slotMs * kOpenShare / 2.0;
    const double closedMs = slotMs * (1.0 - kOpenShare);

    std::vector<std::vector<PhaseResult>> runs(kRungs);
    std::vector<std::vector<double>> lastDue(kRungs);
    std::vector<PhaseResult> closed;
    fpsa::Rng picks(config.seed ^ 0xfee7);
    auto openRepeat = [&](int k) {
        const auto repeat = static_cast<std::uint64_t>(runs[k].size());
        std::vector<Request> schedule;
        for (int t = 0; t < 3; ++t)
            for (double due : poissonSchedule(
                     config.seed * 997 +
                         (repeat * kRungs + static_cast<std::uint64_t>(k)) *
                             3 +
                         static_cast<std::uint64_t>(t),
                     kLadder[k] * kMix[t], openMs))
                schedule.push_back(
                    {t, static_cast<int>(picks.uniformInt(kPoolSize)), due});
        std::sort(schedule.begin(), schedule.end(),
                  [](const Request &a, const Request &b) {
                      return a.dueMs < b.dueMs;
                  });
        PhaseResult phase = runOpenLoop(front, schedule, tracer);
        countOutcomes(report, phase.outcomes,
                      "ladder rung " + std::to_string(k));
        lastDue[k].push_back(schedule.empty() ? 0.0 : schedule.back().dueMs);
        runs[k].push_back(std::move(phase));
    };
    auto closedSegment = [&](std::uint64_t segment, Tracer &t) {
        PhaseResult phase = runClosedLoop(front, clientTenants, closedMs,
                                          config.seed * 31 + segment, t);
        countOutcomes(report, phase.outcomes, "closed loop");
        return phase;
    };
    // The placements beyond the set-ups' are compiled spread over the
    // slots, so compile_s samples the whole run rather than one second
    // of it.
    constexpr int kExtraPlacements = kPlacements - kSetupRepeats;
    for (int slot = 0; slot < kSlots; ++slot) {
        openRepeat(kReferenceRung);
        openRepeat(others[static_cast<std::size_t>(slot) % others.size()]);
        closed.push_back(closedSegment(static_cast<std::uint64_t>(slot), tracer));
        for (int c = slot * kExtraPlacements / kSlots;
             c < (slot + 1) * kExtraPlacements / kSlots; ++c)
            report.check(compile(kSetupRepeats + c).size() == 3,
                         "compile failed");
    }

    std::vector<Rung> ladder;
    for (int k = 0; k < kRungs; ++k) {
        // A repeat is too short for its own p99: pool the repeats.
        std::vector<double> all, backlog;
        Rung rung;
        rung.rate = kLadder[k];
        for (std::size_t rep = 0; rep < runs[k].size(); ++rep) {
            const PhaseResult &phase = runs[k][rep];
            for (const Outcome &o : phase.outcomes) {
                if (o.ok)
                    all.push_back(dueLatencyMs(o.times));
                else
                    ++rung.failed;
            }
            backlog.push_back(static_cast<double>(
                backlogAt(phase.outcomes, lastDue[k][rep])));
        }
        rung.p99Ms = percentile(all, 0.99);
        rung.backlogAtLastDue = static_cast<std::int64_t>(median(backlog));
        ladder.push_back(rung);
        const std::string key = "ladder.r" + std::to_string(k);
        report.info(key + ".rate", rung.rate);
        report.info(key + ".p99_ms", rung.p99Ms);
        report.info(key + ".backlog", median(backlog));
        report.info(key + ".repeats", static_cast<double>(backlog.size()));
        report.info(key + ".samples", static_cast<double>(all.size()));
    }
    report.set("slo_rps", sloRate(ladder, kLimitMs), "1/s");
    report.info("slo.limit_ms", kLimitMs);

    // The open loop's latency: replicated tenants at the reference rung.
    // open.lat_p50_ms is the median of the per-repeat p50s; the p99s are
    // pooled over the repeats.
    std::vector<double> p50s;
    std::vector<const Outcome *> replicated, lenet, shard;
    for (const PhaseResult &phase : runs[kReferenceRung]) {
        std::vector<const Outcome *> repeat;
        for (const Outcome &o : phase.outcomes) {
            (o.tenant == kShard ? shard : repeat).push_back(&o);
            if (o.tenant == kLenet)
                lenet.push_back(&o);
        }
        p50s.push_back(percentile(dueLatencies(repeat), 0.50));
        replicated.insert(replicated.end(), repeat.begin(), repeat.end());
    }
    report.set("open.lat_p50_ms", median(p50s), "ms");
    const std::vector<double> replicatedLat = dueLatencies(replicated);
    report.set("lat_p99_ms", percentile(replicatedLat, 0.99), "ms");
    report.info("lat_p99_ms.samples",
                static_cast<double>(replicatedLat.size()));
    reportLatency(report, "shard.lat_p50_ms", "shard.lat_p99_ms",
                  dueLatencies(shard));

    // The workload's latency and throughput: the closed loop at
    // capacity, per segment (latency of the replicated tenants).
    std::vector<double> segmentRates, segmentP50s, segmentSamples;
    for (const PhaseResult &phase : closed) {
        segmentRates.push_back(closedLoopRate(phase, closedMs));
        std::vector<const Outcome *> repeat;
        for (const Outcome &o : phase.outcomes)
            if (o.tenant != kShard)
                repeat.push_back(&o);
        const std::vector<double> lat = dueLatencies(repeat);
        segmentP50s.push_back(percentile(lat, 0.50));
        segmentSamples.push_back(static_cast<double>(lat.size()));
    }
    report.set("lat_p50_ms", median(segmentP50s), "ms");
    report.info("lat_p50_ms.samples_per_segment", median(segmentSamples));
    const double throughput = median(segmentRates);
    report.set("throughput_rps", throughput, "1/s");

    std::vector<double> lag, submitUs;
    std::int64_t hops = 0, bytes = 0, requests = 0, shardRequests = 0,
                 shardSubmissions = 0;
    double interconnectNs = 0.0;
    auto tally = [&](const PhaseResult &phase) {
        for (const Outcome &o : phase.outcomes) {
            ++requests;
            if (o.tenant == kShard && o.ok) {
                ++shardRequests;
                shardSubmissions += o.shards;
                hops += o.shards - 1;
                bytes += o.interconnectBytes;
                interconnectNs += o.interconnectNs;
            }
        }
    };
    for (const auto &repeats : runs)
        for (const PhaseResult &phase : repeats)
            tally(phase);
    for (const PhaseResult &phase : closed)
        tally(phase);
    // Generator lag and submit cost at the reference rung; past the
    // knee, backpressure makes submit block by design.
    for (const PhaseResult &phase : runs[kReferenceRung]) {
        for (const Outcome &o : phase.outcomes) {
            lag.push_back(generatorLagMs(o.times));
            submitUs.push_back(o.submitUs);
        }
    }
    report.set("gen.lag_ms.p99", percentile(lag, 0.99), "ms");

    // Cluster-layer counters from the chips' own engines.
    const std::vector<fpsa::EngineStats> after = chipStats(*cluster);
    std::int64_t submitted = 0, completed = 0, rejected = 0, failed = 0;
    for (int c = 0; c < kChips; ++c) {
        submitted += after[c].submitted - before[c].submitted;
        completed += after[c].completed - before[c].completed;
        rejected += after[c].rejected - before[c].rejected;
        failed += after[c].failed - before[c].failed;
    }

    if (config.trace) {
        // Tracing overhead: eight closed-loop segments more, untraced.
        Tracer off(false);
        std::vector<double> untraced;
        for (std::uint64_t s = 0; s < 8; ++s)
            untraced.push_back(closedLoopRate(
                closedSegment(kSlots + s, off), closedMs));
        report.set("trace.overhead_pct",
                   (share(median(untraced), throughput) - 1.0) * 100.0, "%");
    }
    report.check(cluster->shutdown().ok(), "cluster shutdown");

    report.set("setup_s", median(setupS), "s");
    report.set("compile_s", median(compileS), "s");
    report.set("modeled_lat_ns", median(modeledNs), "ns");

    if (config.trace) {
        reportCompile(report, compileTimes, counts);
        reportArtifact(report, artifact);
        report.set("load.ms", loadMs, "ms");
        {
            // What loadModel runs for the LeNet replica on chip 0.
            fpsa::ModelCalibrator calibrator;
            const Clock::time_point t = Clock::now();
            Span span(tracer, "calibrate", "lenet");
            calibrator.calibrate(models[kLenet]->graph(), profiles[0].model,
                                 kMinAccuracy, 0x5eed);
            report.set("calibrate.ms", millisSince(t), "ms");
        }
        const double runFp32 =
            probePlan(*models[kLenet], 8, inputs[kLenet], tracer, report)
                .first;
        reportEngineClass(report, "lenet", lenet, runFp32);
        report.set("cluster.submit_us.p50", percentile(submitUs, 0.50), "us");
        report.set("cluster.submit_us.p99", percentile(submitUs, 0.99), "us");
        for (int c = 0; c < kChips; ++c)
            report.set("cluster.chip_share.chip" + std::to_string(c),
                       share(static_cast<double>(after[c].completed -
                                                 before[c].completed),
                             static_cast<double>(completed)),
                       "ratio");
        // A replicated request is one chip submission and a sharded one
        // is one per stage; submissions beyond that are failover retries.
        const std::int64_t expected =
            requests - shardRequests + shardSubmissions;
        report.set("cluster.retries",
                   static_cast<double>(
                       std::max<std::int64_t>(0, submitted - expected)),
                   "count");
        report.set("cluster.rejected", static_cast<double>(rejected),
                   "count");
        report.set("cluster.failed", static_cast<double>(failed), "count");
        report.set("shard.hops", static_cast<double>(hops), "count");
        report.set("shard.interconnect_bytes", static_cast<double>(bytes),
                   "bytes");
        report.set("shard.interconnect_ns", interconnectNs, "ns");
    }
}

} // namespace perfbench
