/**
 * @file
 * nerf_quant: the Fig. 20(a) pipeline. Fit a hash-grid field to the
 * procedural Lego scene, render it at FP32, quantize the tables to
 * INT16, INT8 and INT4 (the low-precision ones with and without INT16
 * outliers), re-render each and compute its PSNR against FP32. The only
 * workload that reaches nerf/.
 */
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "nerf/field_fit.h"
#include "nerf/image.h"
#include "nerf/ray.h"
#include "nerf/renderer.h"
#include "nerf/scene.h"

namespace perfbench {
namespace {

using namespace flexnerfer;

/** INT16 tables must render within this PSNR of FP32 or better (the
 *  paper: INT16 is within 0.3 dB of FP32 quality). */
constexpr double kInt16PsnrFloorDb = 60.0;

struct QuantMode {
    const char* tag;
    Precision precision;
    OutlierPolicy policy;
};

const QuantMode kModes[] = {
    {"int16", Precision::kInt16, {}},
    {"int8", Precision::kInt8, {}},
    {"int8_outliers", Precision::kInt8, {true, 0.01}},
    {"int4", Precision::kInt4, {}},
    {"int4_outliers", Precision::kInt4, {true, 0.02}},
};
constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

class NerfQuant : public Workload
{
  public:
    explicit NerfQuant(const RunConfig& config)
        : seed_(config.seed),
          fit_points_(config.tiny ? 500 : 8000),
          fit_epochs_(config.tiny ? 2 : 10),
          scene_(ProceduralScene::Lego()),
          renderer_({32, 1.5, 4.8, 1.0, {1.0, 1.0, 1.0}}),
          camera_({config.tiny ? 12 : 48, config.tiny ? 12 : 48, 50.0,
                   {0.0, 0.3, 3.0}, {0.0, 0.0, 0.0}, {0.0, 1.0, 0.0}})
    {
        field_config_.grid = {7, 13, 4, 4, 1.6, -1.5, 1.5, 1e-2};
    }

    const char* name() const override { return "nerf_quant"; }

    void
    Setup(Tracer*) override
    {
        rng_ = std::make_unique<Rng>(seed_);
        field_ = std::make_unique<GridField>(field_config_, *rng_);
    }

    void
    Run(Tracer* tracer, HostClock& clock) override
    {
        const std::uint32_t fit = tracer ? tracer->Id("nerf.fit") : 0;
        const std::uint32_t render = tracer ? tracer->Id("nerf.render") : 0;
        const std::uint32_t quantize = tracer ? tracer->Id("nerf.quantize") : 0;
        {
            Tracer::Scope span(tracer, fit);
            fit_ = field_->Fit(scene_, fit_points_, fit_epochs_, 0.08, *rng_);
        }
        clock.Lap();
        {
            Tracer::Scope span(tracer, render);
            fp32_ = renderer_.Render(*field_, camera_);
        }
        clock.Lap();
        for (std::size_t i = 0; i < kModeCount; ++i) {
            GridField quantized = *field_;
            {
                Tracer::Scope span(tracer, quantize);
                outliers_[i] = quantized.QuantizeTables(kModes[i].precision,
                                                        kModes[i].policy);
            }
            Image image;
            {
                Tracer::Scope span(tracer, render);
                image = renderer_.Render(quantized, camera_);
            }
            psnr_db_[i] = Psnr(fp32_, image);
            clock.Lap();
        }
    }

    PassCheck
    Check() override
    {
        PassCheck check;
        check.attempted = 2 + kModeCount;  // fit, FP32 render, modes
        Digest digest;
        digest.Add(fit_.initial_rmse);
        digest.Add(fit_.final_rmse);
        if (!(fit_.final_rmse < fit_.initial_rmse)) ++check.failed;
        bool fp32_finite = fp32_.width() > 0;
        for (int y = 0; y < fp32_.height(); ++y) {
            for (int x = 0; x < fp32_.width(); ++x) {
                const Vec3 p = fp32_.at(x, y);
                digest.Add(p.x);
                digest.Add(p.y);
                digest.Add(p.z);
                fp32_finite = fp32_finite && std::isfinite(p.x) &&
                              std::isfinite(p.y) && std::isfinite(p.z);
            }
        }
        if (!fp32_finite) ++check.failed;
        check.summary = "rmse=" + std::to_string(fit_.initial_rmse) + "->" +
                        std::to_string(fit_.final_rmse);
        for (std::size_t i = 0; i < kModeCount; ++i) {
            digest.Add(psnr_db_[i]);
            digest.Add(outliers_[i]);
            check.summary += std::string(" psnr_db.") + kModes[i].tag + "=" +
                             std::to_string(psnr_db_[i]);
            // Identical images give +inf PSNR; NaN is a failure, as is
            // INT16 below its floor.
            if (std::isnan(psnr_db_[i]) ||
                (i == 0 && !(psnr_db_[i] >= kInt16PsnrFloorDb))) {
                ++check.failed;
            }
        }
        check.digest = digest.value();
        return check;
    }

    void
    Layers(Tracer& tracer, std::vector<Metric>* out) override
    {
        // HashGrid::Query on the fitted field's grid at seeded positions.
        constexpr int kBatch = 64;
        const std::uint32_t query = tracer.Id("nerf.grid_query");
        Rng rng(seed_ ^ 0x9e3779b97f4a7c15ull);
        std::vector<Vec3> positions;
        for (int i = 0; i < 64 * kBatch; ++i) {
            positions.push_back({rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5),
                                 rng.Uniform(-1.5, 1.5)});
        }
        for (std::size_t i = 0; i < positions.size(); i += kBatch) {
            Tracer::Scope span(&tracer, query);
            for (int j = 0; j < kBatch; ++j) {
                Consume(static_cast<std::int64_t>(
                    field_->grid().Query(positions[i + j])[0] * 1e6));
            }
        }
        const auto ms = [&tracer](const char* name) {
            return Median(tracer.Durations(name)) * 1e-6;
        };
        out->push_back({"nerf.fit_ms", "ms", ms("nerf.fit")});
        out->push_back({"nerf.render_ms", "ms", ms("nerf.render")});
        out->push_back({"nerf.quantize_ms", "ms", ms("nerf.quantize")});
        out->push_back({"nerf.grid_query_ns", "ns",
                        Median(tracer.Durations("nerf.grid_query", kBatch))});
        for (std::size_t i = 0; i < kModeCount; ++i) {
            // +inf (bit-identical render) is reported as the 200 dB cap.
            out->push_back({std::string("nerf.psnr_db.") + kModes[i].tag,
                            "dB", std::min(psnr_db_[i], 200.0)});
        }
    }

  private:
    const std::uint64_t seed_;
    const int fit_points_;
    const int fit_epochs_;
    const ProceduralScene scene_;
    const Renderer renderer_;
    const Camera camera_;
    GridField::Config field_config_;

    std::unique_ptr<Rng> rng_;
    std::unique_ptr<GridField> field_;
    GridField::FitReport fit_;
    Image fp32_;
    double psnr_db_[kModeCount] = {};
    double outliers_[kModeCount] = {};
};

}  // namespace

std::unique_ptr<Workload>
MakeNerfQuant(const RunConfig& config)
{
    return std::make_unique<NerfQuant>(config);
}

}  // namespace perfbench
