/**
 * @file
 * design_sweep: a cold design-space grid (7 models x backend x precision
 * x NoC style x prune ratio x batch size), each pass on a fresh
 * PlanCache, fanned across a 2-thread pool by SweepRunner, plus a fixed
 * slice of cycle-level tiled GEMMs (GemmEngine::Run on seeded sparse
 * matrices at INT16/8/4). Here models/, accel/, plan/ compile and
 * execute and gemm/, mac/, sparse/ and noc/ do the work while serve/ is
 * idle.
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "gemm/engine.h"
#include "harness.h"
#include "mac/bit_scalable_mac.h"
#include "models/workload.h"
#include "noc/benes.h"
#include "noc/hmf_noc.h"
#include "plan/frame_plan.h"
#include "plan/frame_planner.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"
#include "sparse/flex_codec.h"

namespace perfbench {
namespace {

using namespace flexnerfer;

constexpr int kPoolThreads = 2;
constexpr int kTileDim = 128;

struct TiledGemm {
    GemmEngineConfig config;
    MatrixI a;
    MatrixI b;
};

class DesignSweep : public Workload
{
  public:
    explicit DesignSweep(const RunConfig& config)
        : threads_(config.threads > 0 ? config.threads : kPoolThreads),
          rng_(config.seed)
    {
        const Precision precisions[] = {Precision::kInt16, Precision::kInt8,
                                        Precision::kInt4};
        const NocStyle nocs[] = {NocStyle::kHmfTree, NocStyle::kHmTree,
                                 NocStyle::kBenes};
        const double prunes[] = {0.0, 0.3, 0.5, 0.7, 0.9};
        const int batches[] = {1024, 4096};
        const double complexities[] = {0.5, 1.0, 2.0};
        WorkloadParams params;
        const auto add = [this, &params](Backend backend, Precision precision,
                                         NocStyle noc) {
            SweepPoint point;
            point.backend = backend;
            point.precision = precision;
            point.noc_style = noc;
            point.params = params;
            point.params.activation_density = rng_.Uniform(0.4, 0.7);
            points_.push_back(point);
        };
        for (double prune : prunes) {
            for (int batch : batches) {
                for (double complexity : complexities) {
                    params.weight_prune_ratio = prune;
                    params.batch_size = batch;
                    params.scene_complexity = complexity;
                    for (Precision precision : precisions) {
                        for (NocStyle noc : nocs) {
                            add(Backend::kFlexNeRFer, precision, noc);
                        }
                    }
                    add(Backend::kNeuRex, Precision::kInt16,
                        NocStyle::kHmfTree);
                    add(Backend::kGpu, Precision::kInt16, NocStyle::kHmfTree);
                }
            }
        }
        for (Precision precision : precisions) {
            for (double sparsity : {0.3, 0.6, 0.9}) {
                TiledGemm gemm;
                gemm.config.precision = precision;
                gemm.config.array_dim = 16;
                gemm.config.compute_output = false;
                gemm.a = MakeSparseMatrix(kTileDim, kTileDim, sparsity,
                                          precision, rng_);
                gemm.b = MakeSparseMatrix(kTileDim, kTileDim, sparsity,
                                          precision, rng_);
                gemms_.push_back(std::move(gemm));
            }
        }
        if (config.tiny) {
            points_.resize(6);
            gemms_.resize(1);
        }
    }

    const char* name() const override { return "design_sweep"; }

    void
    Setup(Tracer*) override
    {
        pool_ = std::make_unique<ThreadPool>(threads_);
        cache_ = std::make_unique<PlanCache>();
    }

    void
    Run(Tracer* tracer, HostClock&) override
    {
        const std::uint32_t sweep =
            tracer ? tracer->Id("runtime.sweep_map") : 0;
        const std::uint32_t tiled = tracer ? tracer->Id("gemm.tiled") : 0;
        const SweepRunner runner(*pool_, cache_.get());
        {
            Tracer::Scope span(tracer, sweep);
            outcomes_ = runner.Run(points_);
        }
        gemm_results_.clear();
        for (const TiledGemm& gemm : gemms_) {
            const GemmEngine engine(gemm.config);
            Tracer::Scope span(tracer, tiled);
            gemm_results_.push_back(engine.Run(gemm.a, gemm.b));
        }
    }

    PassCheck
    Check() override
    {
        PassCheck check;
        Digest digest;
        // A cached re-run of the pass replays the compiled plans and
        // memoized engine runs; it must be bit-identical to the cold pass.
        const std::vector<SweepOutcome> cached =
            SweepRunner(*pool_, cache_.get()).Run(points_);
        double total_latency_ms = 0.0;
        for (std::size_t i = 0; i < outcomes_.size(); ++i) {
            for (std::size_t m = 0; m < outcomes_[i].per_model.size(); ++m) {
                const FrameCost& cost = outcomes_[i].per_model[m];
                ++check.attempted;
                digest.Add(cost);
                total_latency_ms += cost.latency_ms;
                if (cached.size() != outcomes_.size() ||
                    cached[i].per_model.size() !=
                        outcomes_[i].per_model.size() ||
                    cached[i].per_model[m] != cost ||
                    !(cost.latency_ms > 0.0)) {
                    ++check.failed;
                }
            }
        }
        for (const GemmResult& r : gemm_results_) {
            ++check.attempted;
            for (double v : {r.cycles, r.latency_ms, r.useful_macs,
                             r.issued_macs, r.utilization, r.EnergyMj()}) {
                digest.Add(v);
            }
            if (!(r.cycles > 0.0)) ++check.failed;
        }
        check.digest = digest.value();
        check.summary = "points=" + std::to_string(points_.size()) +
                        " frames=" + std::to_string(check.attempted -
                                                    gemm_results_.size()) +
                        " tiled_gemms=" + std::to_string(gemm_results_.size()) +
                        " sum_latency_ms=" + std::to_string(total_latency_ms);
        memo_hits_ = cache_->memo().hits();
        memo_misses_ = cache_->memo().misses();
        outcomes_.clear();
        cache_.reset();
        pool_.reset();
        return check;
    }

    void
    Layers(Tracer& tracer, std::vector<Metric>* out) override
    {
        // Per-layer probes, on a fixed sample of the grid: every 6th
        // point, all 7 models, compiled and executed cold.
        const std::uint32_t build = tracer.Id("models.build_workload");
        const std::uint32_t compile = tracer.Id("plan.compile");
        const std::uint32_t execute = tracer.Id("plan.execute");
        const std::uint32_t run_workload = tracer.Id("accel.run_workload");
        const std::uint32_t shape = tracer.Id("gemm.shape");
        for (std::size_t i = 0; i < points_.size(); i += 6) {
            const SweepPoint& point = points_[i];
            const auto accel = MakeAccelerator(point);
            for (const std::string& model : AllModelNames()) {
                NerfWorkload workload;
                {
                    Tracer::Scope span(&tracer, build);
                    workload = BuildWorkload(model, point.params);
                }
                std::unique_ptr<FramePlan> plan;
                {
                    Tracer::Scope span(&tracer, compile);
                    plan = std::make_unique<FramePlan>(
                        FramePlanner::Compile(*accel, workload));
                }
                {
                    Tracer::Scope span(&tracer, execute);
                    Consume(static_cast<std::int64_t>(
                        plan->Execute().latency_ms));
                }
                {
                    Tracer::Scope span(&tracer, run_workload);
                    Consume(static_cast<std::int64_t>(
                        accel->RunWorkload(workload).latency_ms));
                }
                for (const PlannedOp& op : plan->ops()) {
                    if (!op.uses_engine) continue;
                    const GemmEngine engine(op.engine_config);
                    Tracer::Scope span(&tracer, shape);
                    Consume(static_cast<std::int64_t>(
                        engine.RunFromShape(op.shape).cycles));
                }
            }
        }

        constexpr int kBatch = 1024;
        // mac: one INT16, one INT8 (4 lanes) and one INT4 (16 lanes)
        // multiply per iteration.
        const std::uint32_t mul = tracer.Id("mac.mul");
        std::array<std::int32_t, 4> a8{};
        std::array<std::int32_t, 4> b8{};
        std::array<std::int32_t, 16> a4{};
        std::array<std::int32_t, 16> b4{};
        const auto draw = [this](std::int64_t lo, std::int64_t hi) {
            return static_cast<std::int32_t>(rng_.UniformInt(lo, hi));
        };
        for (auto& v : a8) v = draw(-128, 127);
        for (auto& v : b8) v = draw(-128, 127);
        for (auto& v : a4) v = draw(-8, 7);
        for (auto& v : b4) v = draw(-8, 7);
        const std::int32_t a16 = draw(-32768, 32767);
        for (int rep = 0; rep < 200; ++rep) {
            Tracer::Scope span(&tracer, mul);
            std::int64_t sink = 0;
            for (int i = 0; i < kBatch; ++i) {
                sink += BitScalableMacUnit::MultiplyInt16((a16 + i) % 32768,
                                                         (a16 - i) % 32768);
                sink += BitScalableMacUnit::MultiplyInt8(a8, b8)[i & 3];
                sink += BitScalableMacUnit::MultiplyInt4(a4, b4)[i & 15];
                a8[i & 3] = static_cast<std::int32_t>((a8[i & 3] + 1) % 127);
            }
            Consume(sink);
        }

        // sparse: encode and decode one 64x64 INT8 tile at 70% sparsity.
        const FlexFormatCodec codec;
        const MatrixI tile =
            MakeSparseMatrix(64, 64, 0.7, Precision::kInt8, rng_);
        const std::uint32_t encode = tracer.Id("sparse.encode");
        const std::uint32_t decode = tracer.Id("sparse.decode");
        for (int rep = 0; rep < 300; ++rep) {
            EncodedTile encoded;
            {
                Tracer::Scope span(&tracer, encode);
                encoded = codec.Encode(tile, Precision::kInt8);
            }
            Tracer::Scope span(&tracer, decode);
            Consume(codec.Decode(encoded).at(0, 0));
        }

        // noc: HMF-NoC broadcast deliveries and Benes permutation routes.
        HmfNoc noc({64, true, 0.18, 0.12, 8.0});
        std::vector<int> leaves(64);
        for (int i = 0; i < 64; ++i) leaves[static_cast<std::size_t>(i)] = i;
        const std::uint32_t deliver = tracer.Id("noc.deliver");
        std::int64_t elem = 0;
        for (int rep = 0; rep < 200; ++rep) {
            Tracer::Scope span(&tracer, deliver);
            for (int i = 0; i < kBatch; ++i) {
                Consume(noc.Deliver(elem++ % 128, leaves).switch_hops);
            }
        }
        const BenesNetwork benes(64);
        std::vector<int> perm(64);
        for (int i = 0; i < 64; ++i) perm[static_cast<std::size_t>(i)] = i;
        const std::uint32_t route = tracer.Id("noc.benes_route");
        for (int rep = 0; rep < 300; ++rep) {
            std::shuffle(perm.begin(), perm.end(), rng_.engine());
            Tracer::Scope span(&tracer, route);
            Consume(benes.Route(perm).switch_visits);
        }

        // runtime: 1024 trivial tasks at this workload's thread count.
        ThreadPool pool(threads_);
        std::atomic<std::int64_t> counter{0};
        const std::uint32_t parallel_for = tracer.Id("runtime.parallel_for");
        for (int rep = 0; rep < 200; ++rep) {
            Tracer::Scope span(&tracer, parallel_for);
            pool.ParallelFor(1024, [&counter](std::int64_t i) {
                counter.fetch_add(i, std::memory_order_relaxed);
            });
        }
        Consume(counter.load());

        const auto us = [&tracer](const char* name, double per_span = 1.0) {
            return Median(tracer.Durations(name, per_span)) * 1e-3;
        };
        out->push_back({"plan.compile_us", "us", us("plan.compile")});
        out->push_back({"plan.execute_us", "us", us("plan.execute")});
        out->push_back({"plan.memo_hit_ratio", "ratio",
                        static_cast<double>(memo_hits_) /
                            static_cast<double>(memo_hits_ + memo_misses_)});
        out->push_back(
            {"models.build_workload_us", "us", us("models.build_workload")});
        out->push_back(
            {"accel.run_workload_us", "us", us("accel.run_workload")});
        out->push_back({"gemm.shape_ns", "ns", us("gemm.shape") * 1e3});
        out->push_back({"gemm.tiled_ms", "ms", us("gemm.tiled") * 1e-3});
        out->push_back({"mac.mul_ns", "ns", us("mac.mul", 3.0 * kBatch) * 1e3});
        out->push_back({"sparse.encode_us", "us", us("sparse.encode")});
        out->push_back({"sparse.decode_us", "us", us("sparse.decode")});
        out->push_back(
            {"noc.deliver_ns", "ns", us("noc.deliver", kBatch) * 1e3});
        out->push_back({"noc.benes_route_us", "us", us("noc.benes_route")});
        out->push_back(
            {"runtime.parallel_for_us", "us", us("runtime.parallel_for")});
        out->push_back({"runtime.sweep_map_us", "us", us("runtime.sweep_map")});
    }

  private:
    const int threads_;
    Rng rng_;
    std::vector<SweepPoint> points_;
    std::vector<TiledGemm> gemms_;

    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<PlanCache> cache_;
    std::vector<SweepOutcome> outcomes_;
    std::vector<GemmResult> gemm_results_;
    std::uint64_t memo_hits_ = 0;
    std::uint64_t memo_misses_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
MakeDesignSweep(const RunConfig& config)
{
    return std::make_unique<DesignSweep>(config);
}

}  // namespace perfbench
