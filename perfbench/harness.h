/**
 * @file
 * Shared machinery of the repository benchmark driver: the span tracer
 * the traced run records with, order statistics, the digest of
 * simulated outputs, host-memory probes, and the Workload interface the
 * four workloads implement.
 *
 * Spans are recorded only here, around calls the benchmark makes into
 * the modules' public functions; nothing inside src/ is instrumented.
 */
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/accelerator.h"

namespace perfbench {

/** Monotonic host time in ns (steady_clock). */
inline std::int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span recorder for the traced run. Single-threaded: every
 * span is opened on the driver's thread. A span records its name, its
 * start and end, and the span that was open when it began (its cause).
 * Spans stay in memory and are aggregated when the run ends.
 */
class Tracer
{
  public:
    struct Span {
        std::uint32_t name = 0;
        std::uint32_t parent = 0;  //!< index + 1 of the enclosing span
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    /** Interns @p name; ids stay valid for the tracer's lifetime. */
    std::uint32_t Id(const std::string& name);

    /** RAII span; a null tracer makes it a no-op (the untraced run). */
    class Scope
    {
      public:
        Scope(Tracer* tracer, std::uint32_t name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_;
        std::size_t index_ = 0;
    };

    /** Durations in ns of every closed span named @p name, divided by
     *  @p per_span (spans that time a batch of identical calls). */
    std::vector<double> Durations(const std::string& name,
                                  double per_span = 1.0) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> ids_;
    std::uint32_t open_ = 0;  //!< index + 1 of the innermost open span
};

/** Linear-interpolated quantile (q in [0, 1]) of @p values; 0 if empty. */
double Quantile(std::vector<double> values, double q);
inline double
Median(const std::vector<double>& values)
{
    return Quantile(values, 0.5);
}

/** FNV-1a over simulated outputs: bit-exact, so a host-only change
 *  must leave it unchanged. */
class Digest
{
  public:
    void
    Add(const void* data, std::size_t bytes)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            hash_ = (hash_ ^ p[i]) * 1099511628211ull;
        }
    }
    void Add(double v) { Add(&v, sizeof v); }
    void Add(std::uint64_t v) { Add(&v, sizeof v); }
    /** Every FrameCost field, in declaration order. */
    void Add(const flexnerfer::FrameCost& c);
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

/** Current resident set size of this process, in bytes. */
std::uint64_t CurrentRssBytes();
/** Peak resident set size of this process so far, in bytes. */
std::uint64_t PeakRssBytes();

/**
 * How much slower than nominal the host runs right now: the best of
 * three timings of a fixed calibration workload (sorting, hashing and
 * scattered table reads, the kind of work the program does) over its
 * nominal time. It runs none of the program's code, so a change to the
 * program cannot move it.
 */
double HostSlowdown();

/**
 * Times a pass in reference-host seconds, lap by lap: each lap's wall
 * time is divided by the geometric mean of the host slowdown measured
 * at its two ends, so a shared host's drifting speed cancels out of the
 * reported seconds. The calibrations themselves are not timed. Long
 * passes end a lap between their steps (Lap), so each calibration
 * brackets a short interval.
 */
class HostClock
{
  public:
    /** Calibrates and starts the first lap. */
    void Start();
    /** Ends the current lap, calibrates, and starts the next one. */
    void Lap();
    /** Reference-host seconds of the laps ended since Start. */
    double seconds() const { return seconds_; }
    /** Wall seconds of the laps ended since Start. */
    double wall_seconds() const { return wall_seconds_; }

  private:
    double slowdown_ = 1.0;
    std::int64_t lap_start_ns_ = 0;
    double seconds_ = 0.0;
    double wall_seconds_ = 0.0;
};

/** One reported metric. */
struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Outcome of checking one pass's outputs. */
struct PassCheck {
    std::uint64_t attempted = 0;  //!< operations whose output was checked
    std::uint64_t failed = 0;     //!< of those, outputs that failed
    std::uint64_t digest = 0;     //!< simulated outputs (Digest)
    /** Human-readable summary of the simulated outputs. */
    std::string summary;
};

/** Sizes and knobs shared by every workload. */
struct RunConfig {
    std::uint64_t seed = 1;
    /** Tiny sizes for the self-check. */
    bool tiny = false;
    /** Overrides every workload's pool thread count (> 0), to show the
     *  digests are thread-count invariant; 0 keeps the defaults. */
    int threads = 0;
};

/**
 * One benchmark workload. A pass is Setup (timed as setup_s) then Run
 * (timed as pass_s, on @p clock; a long Run ends laps between its
 * steps); Check then verifies the pass's outputs untimed and releases
 * its state. Inputs are generated once, in the constructor, from the
 * seed.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual const char* name() const = 0;
    /** Builds the fresh program state one pass needs. */
    virtual void Setup(Tracer* tracer) = 0;
    /** The timed pass. */
    virtual void Run(Tracer* tracer, HostClock& clock) = 0;
    /** Verifies the last pass and releases its state. */
    virtual PassCheck Check() = 0;
    /**
     * Traced run only, after its passes: fixed-size probes of the
     * layers this workload reaches plus the counts of its last pass,
     * appended to @p out.
     */
    virtual void Layers(Tracer& tracer, std::vector<Metric>* out) = 0;
};

std::unique_ptr<Workload> MakeServeReplay(const RunConfig& config);
std::unique_ptr<Workload> MakeClusterMixed(const RunConfig& config);
std::unique_ptr<Workload> MakeDesignSweep(const RunConfig& config);
std::unique_ptr<Workload> MakeNerfQuant(const RunConfig& config);

/** One model-vs-paper row of paper_err. */
struct FidelityRow {
    std::string metric;
    double model = 0.0;
    double paper = 0.0;
    std::string source;
};

/** The 12 Fig. 18 / Fig. 19 rows, computed through the public
 *  accelerator-model API. */
std::vector<FidelityRow> PaperFidelityRows();
/** Mean |log2(model / paper)| over @p rows. */
double PaperErr(const std::vector<FidelityRow>& rows);

/** Keeps @p value observable so a probe loop is not optimized away. */
void Consume(std::int64_t value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
