/**
 * @file
 * The repository benchmark driver.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--tiny] [--threads N]
 *
 * --trace 0 measures one workload untraced for S seconds: repeated
 * passes, each a timed setup and a timed fixed-size pass, and reports
 * the end-to-end metrics (medians over passes). --trace 1 is the
 * separate traced run: it runs every workload in turn for S/4 seconds,
 * alternating untraced and traced passes (their wall-time ratio is the
 * tracing overhead), then probes each workload's layers, and reports
 * the per-layer metrics. Every pass's outputs are checked; the last
 * stdout line is one JSON object {correct, attempted, failed, metrics}.
 */
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

const char* const kWorkloads[] = {"serve_replay", "cluster_mixed",
                                  "design_sweep", "nerf_quant"};

[[noreturn]] void
Usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "{serve_replay|cluster_mixed|design_sweep|nerf_quant} "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--threads N]\n",
                 why.c_str());
    std::exit(2);
}

/** Parses a decimal integer in [0, @p max]; anything else is a usage
 *  error. */
std::uint64_t
ParseUnsigned(const char* flag, const char* text, std::uint64_t max)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-' || errno == ERANGE ||
        v > max) {
        Usage(std::string("invalid ") + flag + " value '" + text + "'");
    }
    return v;
}

std::unique_ptr<Workload>
Make(const std::string& name, const RunConfig& config)
{
    if (name == "serve_replay") return MakeServeReplay(config);
    if (name == "cluster_mixed") return MakeClusterMixed(config);
    if (name == "design_sweep") return MakeDesignSweep(config);
    if (name == "nerf_quant") return MakeNerfQuant(config);
    Usage("unknown workload '" + name + "'");
}

double
SecondsSince(std::int64_t start_ns)
{
    return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/** Totals over every checked pass of the run. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Checks one pass and folds it into @p tally. Every pass of a workload
 * replays the same inputs, so its digest must equal the first pass's;
 * a differing digest fails the whole pass.
 */
void
CheckPass(Workload& workload, std::size_t pass, std::uint64_t* first_digest,
          Tally* tally)
{
    const PassCheck check = workload.Check();
    std::uint64_t failed = check.failed;
    if (pass == 0) {
        *first_digest = check.digest;
        std::printf("[digest] workload=%s digest=%016llx %s\n",
                    workload.name(),
                    static_cast<unsigned long long>(check.digest),
                    check.summary.c_str());
    } else if (check.digest != *first_digest) {
        std::printf("[digest] workload=%s pass=%zu digest=%016llx "
                    "DIFFERS from the first pass\n",
                    workload.name(), pass,
                    static_cast<unsigned long long>(check.digest));
        failed = check.attempted;
    }
    tally->attempted += check.attempted;
    tally->failed += failed;
}

/** One timed Setup + Run, in reference-host seconds (HostClock). */
struct PassTimes {
    double setup_s = 0.0;
    double pass_s = 0.0;
    double wall_pass_s = 0.0;
};

PassTimes
TimedPass(Workload& workload, Tracer* tracer)
{
    HostClock clock;
    clock.Start();
    workload.Setup(tracer);
    clock.Lap();
    PassTimes times;
    times.setup_s = clock.seconds();
    workload.Run(tracer, clock);
    clock.Lap();
    times.pass_s = clock.seconds() - times.setup_s;
    times.wall_pass_s = clock.wall_seconds() - times.setup_s;
    return times;
}

void
RunUntraced(const std::string& name, const RunConfig& config,
            double seconds, Tally* tally, std::vector<Metric>* metrics)
{
    const std::unique_ptr<Workload> workload = Make(name, config);
    const std::size_t min_passes = config.tiny ? 1 : 3;
    std::vector<double> setup_s;
    std::vector<double> pass_s;
    std::vector<double> wall_pass_s;
    std::uint64_t first_digest = 0;
    const std::int64_t start = NowNs();
    while (pass_s.size() < min_passes ||
           (!config.tiny && SecondsSince(start) < seconds)) {
        const PassTimes times = TimedPass(*workload, nullptr);
        setup_s.push_back(times.setup_s);
        pass_s.push_back(times.pass_s);
        wall_pass_s.push_back(times.wall_pass_s);
        CheckPass(*workload, pass_s.size() - 1, &first_digest, tally);
    }
    const double pass_median = Median(pass_s);
    std::printf("[passes] workload=%s passes=%zu pass_s.p25=%.6f "
                "pass_s.p50=%.6f pass_s.p75=%.6f setup_s.p50=%.6f "
                "wall_pass_s.p50=%.6f\n",
                name.c_str(), pass_s.size(), Quantile(pass_s, 0.25),
                pass_median, Quantile(pass_s, 0.75), Median(setup_s),
                Median(wall_pass_s));

    // pass_s under its per-workload names.
    if (name == "serve_replay" || name == "cluster_mixed") {
        std::printf("[e2e] req_per_s=%.1f 1/s (requests per pass / pass_s)\n",
                    static_cast<double>(tally->attempted) /
                        static_cast<double>(pass_s.size()) / pass_median);
    } else if (name == "design_sweep") {
        std::printf("[e2e] sweep_s=%.6f s\n", pass_median);
    } else {
        std::printf("[e2e] nerf_s=%.6f s\n", pass_median);
    }
    const double failed_share = static_cast<double>(tally->failed) /
                                static_cast<double>(tally->attempted);
    std::printf("[e2e] failed_share=%.6f (%llu of %llu operations)\n",
                failed_share, static_cast<unsigned long long>(tally->failed),
                static_cast<unsigned long long>(tally->attempted));

    metrics->push_back({"setup_s", "s", Median(setup_s)});
    metrics->push_back({"pass_s", "s", pass_median});
    metrics->push_back(
        {"peak_rss_mb", "MB", static_cast<double>(PeakRssBytes()) / 1e6});

    const std::vector<FidelityRow> rows = PaperFidelityRows();
    for (const FidelityRow& row : rows) {
        std::printf("[fidelity] metric=%s model=%.6f paper=%.6g "
                    "abs_log2_err=%.6f source=\"%s\"\n",
                    row.metric.c_str(), row.model, row.paper,
                    std::fabs(std::log2(row.model / row.paper)),
                    row.source.c_str());
    }
    metrics->push_back({"paper_err", "log2", PaperErr(rows)});
}

void
RunTraced(const RunConfig& config, double seconds, Tally* tally,
          std::vector<Metric>* metrics)
{
    Tracer tracer;
    const double slice = seconds / 4.0;
    for (const char* name : kWorkloads) {
        const std::unique_ptr<Workload> workload = Make(name, config);
        std::vector<double> plain_s;
        std::vector<double> traced_s;
        std::uint64_t first_digest = 0;
        std::size_t pass = 0;
        const std::int64_t start = NowNs();
        // Pairs alternate which side runs first (ABBA), so warm-up and
        // drift fall on both sides of the overhead ratio.
        do {
            const bool traced_first = (pass / 2) % 2 == 1;
            for (int side = 0; side < 2; ++side) {
                const bool traced = (side == 0) == traced_first;
                (traced ? traced_s : plain_s)
                    .push_back(
                        TimedPass(*workload, traced ? &tracer : nullptr)
                            .pass_s);
                CheckPass(*workload, pass++, &first_digest, tally);
            }
        } while (!config.tiny && SecondsSince(start) < slice);
        workload->Layers(tracer, metrics);
        metrics->push_back({std::string("obs.trace_overhead.") + name,
                            "ratio", Median(traced_s) / Median(plain_s)});
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    RunConfig config;
    bool have_seed = false;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) Usage(arg + " requires a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--seed") {
            config.seed = ParseUnsigned("--seed", value(), UINT64_MAX);
            have_seed = true;
        } else if (arg == "--seconds") {
            seconds = static_cast<double>(
                ParseUnsigned("--seconds", value(), 3600));
        } else if (arg == "--trace") {
            trace = static_cast<int>(ParseUnsigned("--trace", value(), 1));
        } else if (arg == "--threads") {
            config.threads =
                static_cast<int>(ParseUnsigned("--threads", value(), 64));
        } else if (arg == "--tiny") {
            config.tiny = true;
        } else {
            Usage("unknown argument '" + arg + "'");
        }
    }
    if (workload.empty() || !have_seed || seconds < 1.0 ||
        (trace != 0 && trace != 1)) {
        Usage("--workload, --seed, --seconds >= 1 and --trace 0|1 are "
              "required");
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  std::string_view(workload)) == std::end(kWorkloads)) {
        Usage("unknown workload '" + workload + "'");
    }

    std::printf("[env] workload=%s seed=%llu seconds=%g trace=%d tiny=%d "
                "nproc=%u compiler=\"%s\" build_type=%s\n",
                workload.c_str(), static_cast<unsigned long long>(config.seed),
                seconds, trace, config.tiny ? 1 : 0,
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE);

    Tally tally;
    std::vector<Metric> metrics;
    if (trace == 0) {
        RunUntraced(workload, config, seconds, &tally, &metrics);
    } else {
        RunTraced(config, seconds, &tally, &metrics);
    }

    std::string json = "{\"correct\": ";
    bool finite = true;
    std::string body;
    for (const Metric& m : metrics) {
        std::printf("[metric] %s=%.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        double value = m.value;
        if (!std::isfinite(value)) {
            finite = false;
            value = 0.0;
        }
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", value);
        if (!body.empty()) body += ", ";
        body += "\"" + m.name + "\": {\"value\": " + number +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = tally.failed == 0 && tally.attempted > 0 && finite;
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {" + body + "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
