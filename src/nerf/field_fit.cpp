#include "nerf/field_fit.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"

namespace flexnerfer {
namespace {

double
Softplus(double x)
{
    if (x > 20.0) return x;
    return std::log1p(std::exp(x));
}

double
SoftplusInverse(double y)
{
    FLEX_CHECK(y > 0.0);
    if (y > 20.0) return y;
    return std::log(std::expm1(y));
}

double
Sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

double
Logit(double y)
{
    const double clamped = std::clamp(y, 0.01, 0.99);
    return std::log(clamped / (1.0 - clamped));
}

}  // namespace

GridField::GridField(const Config& config, Rng& rng)
    : config_(config), grid_(config.grid, rng)
{
    FLEX_CHECK_MSG(config_.grid.features == 4,
                   "GridField needs 4 features per level (sigma + RGB)");
    FLEX_CHECK_MSG(config_.grid.levels <= kMaxLevels,
                   "GridField supports at most " << kMaxLevels << " levels");
}

void
GridField::Query(const Vec3& pos, const Vec3& dir, double* sigma,
                 Vec3* rgb) const
{
    (void)dir;  // the grid field is view-independent, like NGP's density
    FLEX_CHECK(sigma != nullptr && rgb != nullptr);
    double feats[kMaxLevels * 4];
    grid_.QueryInto(pos, feats, nullptr);
    double raw[4] = {0.0, 0.0, 0.0, 0.0};
    for (int level = 0; level < grid_.levels(); ++level) {
        for (int c = 0; c < 4; ++c) {
            raw[c] += feats[level * 4 + c];
        }
    }
    *sigma = config_.sigma_scale * Softplus(raw[0]);
    *rgb = Vec3{Sigmoid(raw[1]), Sigmoid(raw[2]), Sigmoid(raw[3])};
}

std::vector<double>
GridField::PreactivationTarget(double sigma, const Vec3& rgb) const
{
    const double s = std::max(sigma / config_.sigma_scale, 1e-4);
    return {SoftplusInverse(s), Logit(rgb.x), Logit(rgb.y), Logit(rgb.z)};
}

GridField::FitReport
GridField::Fit(const RadianceField& target, int n_points, int epochs,
               double learning_rate, Rng& rng)
{
    FLEX_CHECK_MSG(n_points >= 1 && epochs >= 1, "fit needs work to do");
    FLEX_CHECK_MSG(std::isfinite(learning_rate) && learning_rate > 0.0,
                   "learning rate must be finite and positive");
    FitReport report;
    report.points = n_points;
    report.epochs = epochs;

    // Sample training positions and pre-activation targets once.
    std::vector<Vec3> positions(n_points);
    std::vector<std::array<double, 4>> targets(n_points);
    const double lo = config_.grid.bbox_min;
    const double hi = config_.grid.bbox_max;
    for (int i = 0; i < n_points; ++i) {
        positions[i] = Vec3{rng.Uniform(lo, hi), rng.Uniform(lo, hi),
                            rng.Uniform(lo, hi)};
        double sigma;
        Vec3 rgb;
        target.Query(positions[i], Vec3{0.0, 0.0, 1.0}, &sigma, &rgb);
        const std::vector<double> t = PreactivationTarget(sigma, rgb);
        targets[i] = {t[0], t[1], t[2], t[3]};
    }

    std::vector<double>& params = grid_.parameters();
    const int levels = grid_.levels();
    std::vector<double> feats(grid_.OutputDim());
    std::vector<HashGrid::LevelTaps> taps(levels);
    std::vector<int> order(n_points);
    for (int i = 0; i < n_points; ++i) order[i] = i;

    auto epoch_rmse = [&](bool update) {
        double sq_err = 0.0;
        for (int idx : order) {
            grid_.QueryInto(positions[idx], feats.data(),
                            update ? taps.data() : nullptr);
            // Aggregate per channel across levels; the taps let us push
            // the residual gradient straight into the table entries.
            double raw[4] = {0.0, 0.0, 0.0, 0.0};
            for (int level = 0; level < levels; ++level) {
                for (int c = 0; c < 4; ++c) raw[c] += feats[level * 4 + c];
            }
            for (int c = 0; c < 4; ++c) {
                const double err = raw[c] - targets[idx][c];
                sq_err += err * err;
                if (!update) continue;
                const double step = learning_rate * err;
                for (int level = 0; level < levels; ++level) {
                    const HashGrid::LevelTaps& t = taps[level];
                    for (int k = 0; k < t.count; ++k) {
                        params[t.base[k] + c] -= step * t.weight[k];
                    }
                }
            }
        }
        return std::sqrt(sq_err / (4.0 * n_points));
    };

    report.initial_rmse = epoch_rmse(/*update=*/false);
    for (int epoch = 0; epoch < epochs; ++epoch) {
        std::shuffle(order.begin(), order.end(), rng.engine());
        epoch_rmse(/*update=*/true);
    }
    report.final_rmse = epoch_rmse(/*update=*/false);
    return report;
}

double
GridField::QuantizeTables(Precision precision, const OutlierPolicy& policy)
{
    return QuantizeParametersInPlace(&grid_.parameters(), precision, policy);
}

}  // namespace flexnerfer
