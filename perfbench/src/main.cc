/**
 * @file
 * The benchmark binary.  perfbench/run.py builds and runs it:
 *
 *   perfbench --workload <vgg17-serve|lenet-fleet|zoo-compile>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-dir <dir>] [--source-id <commit or digest>]
 *
 * It prints one JSON line: the machine and toolchain fingerprint,
 * explanatory info, the failed output checks, the request counts and
 * every metric measured, with its unit.  With --trace 1 the run also
 * records spans and writes them as a Chrome trace into --trace-dir.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json.hh"
#include "report.hh"
#include "stack.hh"
#include "stats.hh"
#include "tensor/kernels.hh"
#include "trace.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
        if (!__get_cpuid(0x80000002 + leaf, &regs[leaf * 4],
                         &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                         &regs[leaf * 4 + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
#else
    return "unknown";
#endif
}

bool
cpuHas(const char *feature)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (std::strcmp(feature, "avx2") == 0)
        return __builtin_cpu_supports("avx2");
    if (std::strcmp(feature, "avx512f") == 0)
        return __builtin_cpu_supports("avx512f");
    if (std::strcmp(feature, "avx512vnni") == 0)
        return __builtin_cpu_supports("avx512vnni");
#endif
    (void)feature;
    return false;
}

std::string
fingerprintJson(const RunConfig &config)
{
    fpsa::JsonWriter j;
    j.beginObject();
    j.field("cpu", cpuModel());
    j.field("nproc",
            static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    j.field("avx2", cpuHas("avx2"));
    j.field("avx512f", cpuHas("avx512f"));
    j.field("avx512vnni", cpuHas("avx512vnni"));
    j.field("compiler", PERFBENCH_COMPILER);
    j.field("buildType", PERFBENCH_BUILD_TYPE);
    j.field("kernelIsa",
            fpsa::kernelIsaName(fpsa::resolveKernelIsa(fpsa::KernelIsa::Auto)));
    j.field("source", config.sourceId);
    j.field("workload", config.workload);
    j.field("seed", static_cast<std::int64_t>(config.seed));
    j.field("seconds", config.seconds);
    j.endObject();
    return j.str();
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <vgg17-serve|lenet-fleet|"
                 "zoo-compile> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>] [--source-id <id>]\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig config;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            config.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            config.trace = value == "1";
        else if (flag == "--trace-dir")
            config.traceDir = value;
        else if (flag == "--source-id")
            config.sourceId = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (config.seconds <= 0.0)
        return usage("--seconds must be positive");

    Tracer tracer(config.trace);
    Report report;
    const Clock::time_point start = Clock::now();
    if (config.workload == "vgg17-serve")
        runVgg17Serve(config, tracer, report);
    else if (config.workload == "lenet-fleet")
        runLenetFleet(config, tracer, report);
    else if (config.workload == "zoo-compile")
        runZooCompile(config, tracer, report);
    else
        return usage(("unknown workload " + config.workload).c_str());
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.set("fail_share",
               share(static_cast<double>(report.failed),
                     static_cast<double>(report.attempted)),
               "ratio");
    report.info("wall_s", millisSince(start) / 1000.0);

    const std::string fingerprint = fingerprintJson(config);
    if (config.trace) {
        for (const auto &[layer, ms] : tracer.selfMillisByLayer())
            report.set("self_ms." + layer, ms, "ms");
        const std::string path = config.traceDir + "/" + config.workload +
                                 "-seed" + std::to_string(config.seed) +
                                 ".trace.json";
        const fpsa::Status written =
            tracer.writeChromeTrace(path, fingerprint);
        report.check(written.ok(), written.toString());
        report.info("trace_file", "\"" + fpsa::JsonWriter::escape(path) +
                                      "\"");
    }

    fpsa::JsonWriter j;
    j.beginObject();
    j.key("fingerprint").raw(fingerprint);
    j.key("info").beginObject();
    for (const auto &[key, json] : report.infos())
        j.key(key).raw(json);
    j.endObject();
    j.key("failures").beginArray();
    for (const std::string &failure : report.failures())
        j.value(failure);
    j.endArray();
    j.field("correct", report.correct());
    j.field("attempted", report.attempted);
    j.field("failed", report.failed);
    j.key("metrics").beginObject();
    for (const auto &[name, metric] : report.metrics()) {
        j.key(name).beginObject();
        j.field("value", metric.first);
        j.field("unit", metric.second);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::cout << j.str() << std::endl;
    return 0;
}
