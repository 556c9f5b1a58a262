#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>
#include <unistd.h>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "accel/ppa.h"
#include "models/workload.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace flexnerfer;

std::uint32_t
Tracer::Id(const std::string& name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

Tracer::Scope::Scope(Tracer* tracer, std::uint32_t name) : tracer_(tracer)
{
    if (tracer_ == nullptr) return;
    Span span;
    span.name = name;
    span.parent = tracer_->open_;
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back(span);
    tracer_->open_ = static_cast<std::uint32_t>(index_ + 1);
    tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr) return;
    Span& span = tracer_->spans_[index_];
    span.end_ns = NowNs();
    tracer_->open_ = span.parent;
}

std::vector<double>
Tracer::Durations(const std::string& name, double per_span) const
{
    std::vector<double> out;
    const auto it = ids_.find(name);
    if (it == ids_.end()) return out;
    for (const Span& span : spans_) {
        if (span.name == it->second && span.end_ns != 0) {
            out.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                          per_span);
        }
    }
    return out;
}

double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

void
Digest::Add(const FrameCost& c)
{
    for (double v : {c.latency_ms, c.energy_mj, c.gemm_ms, c.encoding_ms,
                     c.other_ms, c.codec_ms, c.dram_ms, c.gemm_utilization,
                     c.gemm_macs, c.critical_path_ms}) {
        Add(v);
    }
}

std::uint64_t
CurrentRssBytes()
{
    long pages = 0;
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f != nullptr) {
        long size = 0;
        if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
        std::fclose(f);
    }
    return static_cast<std::uint64_t>(pages) *
           static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t
PeakRssBytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

double
HostSlowdown()
{
    // Nominal calibration time, about its median on the reference host
    // (README.md): reported seconds are in that host's units.
    constexpr double kNominalSeconds = 0.0100;
    constexpr std::size_t kValues = 1u << 16;
    constexpr std::size_t kTable = 1u << 19;  // 4 MB of doubles
    static const std::vector<std::uint32_t> values = [] {
        std::vector<std::uint32_t> v(kValues);
        std::uint64_t x = 88172645463325252ull;
        for (std::uint32_t& e : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = static_cast<std::uint32_t>(x);
        }
        return v;
    }();
    static const std::vector<double> table(kTable, 1.0);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t t0 = NowNs();
        std::vector<std::uint32_t> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        std::unordered_map<std::uint32_t, std::uint32_t> map;
        for (std::uint32_t v : values) map[v % 50000] += v;
        std::int64_t acc = sorted[sorted.size() / 2];
        double sum = 0.0;
        for (std::uint32_t v : values) {
            const auto it = map.find(v % 60000);
            if (it != map.end()) acc += it->second;
            sum += table[v % kTable] * 1.0001 + table[(v >> 7) % kTable];
        }
        Consume(acc + static_cast<std::int64_t>(sum));
        const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
        if (rep == 0 || seconds < best) best = seconds;
    }
    return best / kNominalSeconds;
}

void
HostClock::Start()
{
    slowdown_ = HostSlowdown();
    seconds_ = 0.0;
    wall_seconds_ = 0.0;
    lap_start_ns_ = NowNs();
}

void
HostClock::Lap()
{
    const double wall = static_cast<double>(NowNs() - lap_start_ns_) * 1e-9;
    const double slowdown = HostSlowdown();
    wall_seconds_ += wall;
    seconds_ += wall / std::sqrt(slowdown_ * slowdown);
    slowdown_ = slowdown;
    lap_start_ns_ = NowNs();
}

std::vector<FidelityRow>
PaperFidelityRows()
{
    std::vector<FidelityRow> rows;
    const char* tags[] = {"int16", "int8", "int4"};
    const Precision precisions[] = {Precision::kInt16, Precision::kInt8,
                                    Precision::kInt4};

    // Fig. 18: Instant-NGP latency and compute density vs NeuRex.
    const NerfWorkload ngp = BuildWorkload("Instant-NGP");
    const FrameCost neurex = NeuRexModel().RunWorkload(ngp);
    const double neurex_density =
        1.0 / (neurex.latency_ms * NeuRexSpec().area_mm2);
    const double paper_latency[] = {0.35, 0.16, 0.09};
    const double paper_density[] = {1.87, 4.13, 7.46};
    for (int i = 0; i < 3; ++i) {
        FlexNeRFerModel::Config config;
        config.precision = precisions[i];
        const FrameCost c = FlexNeRFerModel(config).RunWorkload(ngp);
        rows.push_back({std::string("fig18.norm_latency.") + tags[i],
                        c.latency_ms / neurex.latency_ms, paper_latency[i],
                        "Fig. 18 text"});
        rows.push_back({std::string("fig18.compute_density.") + tags[i],
                        1.0 / (c.latency_ms * FlexNeRFerSpec().area_mm2) /
                            neurex_density,
                        paper_density[i], "Fig. 18 text"});
    }

    // Fig. 19: geomean speedup over the RTX 2080 Ti (unpruned GPU
    // geometry) at the two ends of the structured-pruning axis.
    const std::vector<FrameCost> gpu = RunAllModels(GpuModel());
    const double paper_speedup[3][2] = {
        {8.2, 65.9}, {18.2, 138.3}, {32.9, 243.3}};
    const double prunes[] = {0.0, 0.9};
    for (int i = 0; i < 3; ++i) {
        FlexNeRFerModel::Config config;
        config.precision = precisions[i];
        const FlexNeRFerModel model(config);
        for (int j = 0; j < 2; ++j) {
            WorkloadParams params;
            params.weight_prune_ratio = prunes[j];
            rows.push_back(
                {std::string("fig19.speedup.") + tags[i] +
                     (j == 0 ? ".prune0" : ".prune90"),
                 GeoMeanSpeedup(gpu, RunAllModels(model, params)),
                 paper_speedup[i][j],
                 j == 0 ? "Fig. 19 range low end" : "Fig. 19 range high end"});
        }
    }
    return rows;
}

double
PaperErr(const std::vector<FidelityRow>& rows)
{
    double total = 0.0;
    for (const FidelityRow& row : rows) {
        total += std::fabs(std::log2(row.model / row.paper));
    }
    return total / static_cast<double>(rows.size());
}

namespace {
volatile std::int64_t g_sink = 0;
}  // namespace

void
Consume(std::int64_t value)
{
    g_sink = g_sink + value;
}

}  // namespace perfbench
