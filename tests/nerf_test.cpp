/**
 * @file
 * Tests for the NeRF pipeline substrates: rays, positional encoding (exact
 * vs. the Eq. 5/6 PEE approximation), hash encoding, MLP (FP64 vs quantized
 * incl. outlier-aware), volume rendering, scenes, images, and grid fitting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nerf/field_fit.h"
#include "nerf/hash_encoding.h"
#include "nerf/image.h"
#include "nerf/mlp.h"
#include "nerf/positional_encoding.h"
#include "nerf/quantization.h"
#include "nerf/ray.h"
#include "nerf/renderer.h"
#include "nerf/scene.h"
#include "nerf/volume_rendering.h"

namespace flexnerfer {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Vec3, Basics)
{
    const Vec3 a{1.0, 2.0, 3.0};
    const Vec3 b{4.0, -5.0, 6.0};
    EXPECT_DOUBLE_EQ(a.Dot(b), 1.0 * 4 - 2 * 5 + 3 * 6);
    EXPECT_NEAR((a - a).Length(), 0.0, 1e-12);
    EXPECT_NEAR(a.Normalized().Length(), 1.0, 1e-12);
}

TEST(Camera, RaysAreUnitAndPointForward)
{
    Camera cam({64, 64, 50.0, {0.0, 0.0, 3.0}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    for (int y = 0; y < 64; y += 13) {
        for (int x = 0; x < 64; x += 13) {
            const Ray r = cam.GenerateRay(x, y);
            EXPECT_NEAR(r.direction.Length(), 1.0, 1e-12);
            EXPECT_LT(r.direction.z, 0.0);  // toward the origin
        }
    }
    // Centre ray passes (almost) through the look-at point.
    const Ray centre = cam.GenerateRay(31, 31);
    const Vec3 at3 = centre.At(3.0);
    EXPECT_NEAR(at3.x, 0.0, 0.1);
    EXPECT_NEAR(at3.y, 0.0, 0.1);
}

TEST(Sampling, StratifiedCoversInterval)
{
    const auto ts = StratifiedSamples(1.0, 5.0, 8, nullptr);
    ASSERT_EQ(ts.size(), 8u);
    for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_GT(ts[i], 1.0);
        EXPECT_LT(ts[i], 5.0);
        if (i > 0) {
            EXPECT_GT(ts[i], ts[i - 1]);
        }
    }
    EXPECT_NEAR(ts[0], 1.25, 1e-12);  // bin midpoints when rng is null
}

TEST(PositionalEncoding, ExactValues)
{
    const auto enc = PositionalEncode(0.5, 3);
    ASSERT_EQ(enc.size(), 6u);
    EXPECT_NEAR(enc[0], std::sin(kPi * 0.5), 1e-12);
    EXPECT_NEAR(enc[1], std::cos(kPi * 0.5), 1e-12);
    EXPECT_NEAR(enc[2], std::sin(2 * kPi * 0.5), 1e-12);
    EXPECT_NEAR(enc[5], std::cos(4 * kPi * 0.5), 1e-12);
}

TEST(PositionalEncoding, ApproximationErrorIsBounded)
{
    // The Eq. 5/6 piecewise-quadratic approximation has max error ~0.056.
    double max_err = 0.0;
    for (double v = -8.0; v <= 8.0; v += 0.001) {
        max_err = std::max(max_err, std::fabs(ApproxSinHalfPi(v) -
                                              std::sin(kPi * v / 2.0)));
        max_err = std::max(max_err, std::fabs(ApproxCosHalfPi(v) -
                                              std::cos(kPi * v / 2.0)));
    }
    EXPECT_LT(max_err, 0.06);
    EXPECT_GT(max_err, 0.01);  // it is an approximation, not exact
}

TEST(PositionalEncoding, ApproxMatchesPeaksExactly)
{
    EXPECT_DOUBLE_EQ(ApproxSinHalfPi(1.0), 1.0);
    EXPECT_DOUBLE_EQ(ApproxSinHalfPi(3.0), -1.0);
    EXPECT_DOUBLE_EQ(ApproxSinHalfPi(0.0), 0.0);
    EXPECT_DOUBLE_EQ(ApproxCosHalfPi(0.0), 1.0);
    EXPECT_DOUBLE_EQ(ApproxCosHalfPi(2.0), -1.0);
    EXPECT_DOUBLE_EQ(ApproxCosHalfPi(1.0), 0.0);
}

TEST(PositionalEncoding, ApproxEncodingTracksExact)
{
    Rng rng(1);
    for (int trial = 0; trial < 200; ++trial) {
        const double v = rng.Uniform(-1.0, 1.0);
        const auto exact = PositionalEncode(v, 6);
        const auto approx = PositionalEncodeApprox(v, 6);
        ASSERT_EQ(exact.size(), approx.size());
        for (std::size_t i = 0; i < exact.size(); ++i) {
            EXPECT_NEAR(approx[i], exact[i], 0.06);
        }
    }
}

TEST(PositionalEncoding, EngineThroughput)
{
    const PositionalEncodingEngine pee{10};
    EXPECT_DOUBLE_EQ(pee.EncodeCycles(64), 1.0);
    EXPECT_DOUBLE_EQ(pee.EncodeCycles(65), 2.0);
    EXPECT_DOUBLE_EQ(pee.EncodeCycles(4096), 64.0);
    EXPECT_GT(PositionalEncodingEngine::kAreaReductionVsDesignWare, 8.0);
}

TEST(HashGrid, ResolutionGrowsGeometrically)
{
    Rng rng(2);
    const HashGrid grid({8, 14, 2, 4, 1.6, -1.5, 1.5, 1e-2}, rng);
    EXPECT_EQ(grid.Resolution(0), 4);
    for (int level = 1; level < grid.levels(); ++level) {
        EXPECT_GT(grid.Resolution(level), grid.Resolution(level - 1));
    }
    EXPECT_TRUE(grid.IsDenseLevel(0));
    EXPECT_FALSE(grid.IsDenseLevel(7));  // 4 * 1.6^7 ~ 107^3 > 2^14
}

TEST(HashGrid, QueryIsContinuousAndDeterministic)
{
    Rng rng(3);
    const HashGrid grid({6, 12, 2, 4, 1.5, -1.0, 1.0, 0.1}, rng);
    const Vec3 p{0.3, -0.2, 0.5};
    const auto f1 = grid.Query(p);
    const auto f2 = grid.Query(p);
    EXPECT_EQ(f1, f2);
    ASSERT_EQ(static_cast<int>(f1.size()), grid.OutputDim());

    // Small moves produce small feature changes (trilinear continuity).
    const auto f3 = grid.Query(p + Vec3{1e-5, 0.0, 0.0});
    for (std::size_t i = 0; i < f1.size(); ++i) {
        EXPECT_NEAR(f1[i], f3[i], 1e-3);
    }
}

TEST(HashGrid, TapsReconstructQuery)
{
    Rng rng(4);
    HashGrid grid({4, 10, 3, 4, 1.7, -1.0, 1.0, 0.1}, rng);
    std::vector<std::vector<HashGrid::Tap>> taps;
    const Vec3 p{0.11, 0.42, -0.73};
    const auto feats = grid.QueryWithTaps(p, &taps);
    ASSERT_EQ(taps.size(), feats.size());
    for (std::size_t i = 0; i < feats.size(); ++i) {
        double rebuilt = 0.0;
        double weight_sum = 0.0;
        for (const HashGrid::Tap& tap : taps[i]) {
            rebuilt += grid.parameters()[tap.parameter] * tap.weight;
            weight_sum += tap.weight;
        }
        EXPECT_NEAR(rebuilt, feats[i], 1e-12);
        EXPECT_NEAR(weight_sum, 1.0, 1e-9);  // trilinear partition of unity
    }
}

TEST(HashGrid, TapsSkipZeroWeightsAndClamp)
{
    // Growth 2 gives resolutions 4, 8, 16, 32: two dense levels, two
    // hashed ones, and unit coordinates 0.25 / 0.75 land on lattice
    // points at every level.
    Rng rng(7);
    const HashGrid grid({4, 10, 3, 4, 2.0, -1.0, 1.0, 0.1}, rng);
    ASSERT_TRUE(grid.IsDenseLevel(1));
    ASSERT_FALSE(grid.IsDenseLevel(2));
    const int features = grid.features();

    // A lattice-aligned position, and both clamp faces of the box, keep
    // exactly one corner per level, of weight 1.
    const Vec3 aligned{-0.5, 0.5, -0.5};
    for (const Vec3& p : {aligned, Vec3{-1.0, -1.0, -1.0},
                          Vec3{1.0, 1.0, 1.0}}) {
        std::vector<double> feats(grid.OutputDim());
        std::vector<HashGrid::LevelTaps> taps(grid.levels());
        grid.QueryInto(p, feats.data(), taps.data());
        EXPECT_EQ(feats, grid.Query(p));
        for (int level = 0; level < grid.levels(); ++level) {
            ASSERT_EQ(taps[level].count, 1) << "level " << level;
            EXPECT_EQ(taps[level].weight[0], 1.0);
            for (int f = 0; f < features; ++f) {
                EXPECT_EQ(feats[level * features + f],
                          grid.parameters()[taps[level].base[0] + f]);
            }
        }
    }

    // Outside the box clamps to the boundary point's features, bit for
    // bit, per axis.
    EXPECT_EQ(grid.Query({-5.0, -1.5, -1.0}), grid.Query({-1.0, -1.0, -1.0}));
    EXPECT_EQ(grid.Query({3.0, 1.0, 9.0}), grid.Query({1.0, 1.0, 1.0}));
    EXPECT_EQ(grid.Query({-2.0, 0.3, 7.0}), grid.Query({-1.0, 0.3, 1.0}));
}

// The per-corner query kernel HashGrid::QueryInto replaced, kept as its
// reference: floor per axis, and per corner its own weight product,
// clamped indices, entry index and in-place add into the output.
void
ReferenceQueryInto(const HashGrid& grid, const Vec3& pos, double* out,
                   HashGrid::LevelTaps* taps)
{
    const HashGrid::Config& config = grid.config();
    const double extent = config.bbox_max - config.bbox_min;
    const auto to_unit = [&](double v) {
        return std::clamp((v - config.bbox_min) / extent, 0.0, 1.0);
    };
    const Vec3 u{to_unit(pos.x), to_unit(pos.y), to_unit(pos.z)};
    const int features = config.features;
    const std::uint64_t mask = (std::uint64_t{1} << config.log2_table) - 1;
    std::fill(out, out + grid.OutputDim(), 0.0);

    std::size_t offset = 0;
    for (int l = 0; l < config.levels; ++l) {
        const int res = grid.Resolution(l);
        const bool dense = grid.IsDenseLevel(l);
        const std::int64_t n = res + 1;
        const auto entry_index = [&](std::int64_t ix, std::int64_t iy,
                                     std::int64_t iz) -> std::size_t {
            if (dense) return static_cast<std::size_t>((ix * n + iy) * n + iz);
            return ((static_cast<std::uint64_t>(ix) * 1) ^
                    (static_cast<std::uint64_t>(iy) * 2654435761ull) ^
                    (static_cast<std::uint64_t>(iz) * 805459861ull)) &
                   mask;
        };
        const double gx = u.x * res;
        const double gy = u.y * res;
        const double gz = u.z * res;
        const auto x0 = static_cast<std::int64_t>(std::floor(gx));
        const auto y0 = static_cast<std::int64_t>(std::floor(gy));
        const auto z0 = static_cast<std::int64_t>(std::floor(gz));
        const double fx = gx - x0;
        const double fy = gy - y0;
        const double fz = gz - z0;

        double* level_out = out + l * features;
        int count = 0;
        for (int corner = 0; corner < 8; ++corner) {
            const int dx = corner & 1;
            const int dy = (corner >> 1) & 1;
            const int dz = (corner >> 2) & 1;
            const double w = (dx ? fx : 1.0 - fx) * (dy ? fy : 1.0 - fy) *
                             (dz ? fz : 1.0 - fz);
            if (w == 0.0) continue;
            const std::size_t entry =
                entry_index(std::min<std::int64_t>(x0 + dx, res),
                            std::min<std::int64_t>(y0 + dy, res),
                            std::min<std::int64_t>(z0 + dz, res));
            const std::size_t base = offset + entry * features;
            for (int f = 0; f < features; ++f) {
                level_out[f] += w * grid.parameters()[base + f];
            }
            taps[l].base[count] = base;
            taps[l].weight[count] = w;
            ++count;
        }
        taps[l].count = count;
        offset += (dense ? static_cast<std::size_t>(n * n * n) : mask + 1) *
                  features;
    }
}

TEST(HashGrid, QueryIntoMatchesReferenceKernel)
{
    // Growth 2 from 4 puts unit coordinates k/4 exactly on lattice points
    // at every level; the 8-entry table aliases hashed corners often.
    const HashGrid::Config shapes[] = {
        {4, 10, 0, 4, 2.0, -1.0, 1.0, 0.1},
        {7, 13, 0, 4, 1.6, -1.5, 1.5, 1e-2},
        {4, 3, 0, 1, 1.6, -1.5, 1.5, 1e-2},
    };
    for (const HashGrid::Config& shape : shapes) {
        for (int features = 1; features <= 5; ++features) {
            HashGrid::Config config = shape;
            config.features = features;
            Rng rng(31 + features);
            const HashGrid grid(config, rng);
            ASSERT_TRUE(grid.IsDenseLevel(0));
            ASSERT_FALSE(grid.IsDenseLevel(grid.levels() - 1));

            const double lo = config.bbox_min;
            const double hi = config.bbox_max;
            const double mid = 0.5 * (lo + hi);
            std::vector<Vec3> points;
            for (int i = 0; i < 200; ++i) {  // some outside the box
                points.push_back({rng.Uniform(lo - 0.5, hi + 0.5),
                                  rng.Uniform(lo - 0.5, hi + 0.5),
                                  rng.Uniform(lo - 0.5, hi + 0.5)});
            }
            for (double face : {lo, hi}) {
                points.push_back({face, mid, 0.3 * lo});
                points.push_back({0.7 * hi, face, mid});
                points.push_back({face, face, face});
                points.push_back({lo, hi, face});
            }
            const int res0 = grid.Resolution(0);
            for (int k = 0; k <= res0; ++k) {
                const double v = lo + (hi - lo) * k / res0;
                points.push_back({v, v, v});
                points.push_back({v, mid, lo + (hi - lo) * (res0 - k) / res0});
            }

            const int dim = grid.OutputDim();
            int skipped = 0;
            for (const Vec3& p : points) {
                std::vector<double> want(dim);
                std::vector<HashGrid::LevelTaps> want_taps(grid.levels());
                ReferenceQueryInto(grid, p, want.data(), want_taps.data());
                // QueryInto must write every output, whatever was there.
                std::vector<double> got(
                    dim, std::numeric_limits<double>::quiet_NaN());
                std::vector<HashGrid::LevelTaps> got_taps(grid.levels());
                grid.QueryInto(p, got.data(), got_taps.data());
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      dim * sizeof(double)),
                          0)
                    << "features " << features << " at " << p.x << ", "
                    << p.y << ", " << p.z;
                std::vector<double> untapped(
                    dim, std::numeric_limits<double>::quiet_NaN());
                grid.QueryInto(p, untapped.data(), nullptr);
                ASSERT_EQ(std::memcmp(untapped.data(), want.data(),
                                      dim * sizeof(double)),
                          0);
                for (int l = 0; l < grid.levels(); ++l) {
                    const HashGrid::LevelTaps& g = got_taps[l];
                    const HashGrid::LevelTaps& w = want_taps[l];
                    ASSERT_EQ(g.count, w.count) << "level " << l;
                    ASSERT_EQ(std::memcmp(g.base, w.base, sizeof(g.base)), 0);
                    ASSERT_EQ(
                        std::memcmp(g.weight, w.weight, sizeof(g.weight)), 0);
                    skipped += 8 - w.count;
                }
            }
            EXPECT_GT(skipped, 0);  // the zero-weight skip was exercised
        }
    }
}

TEST(HashGridDeath, RejectsNonFinitePosition)
{
    Rng rng(8);
    const HashGrid grid({4, 10, 2, 4, 1.6, -1.0, 1.0, 0.1}, rng);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(grid.Query({nan, 0.0, 0.0}), "non-finite");
    EXPECT_DEATH(grid.Query({0.0, inf, 0.0}), "non-finite");
    EXPECT_DEATH(grid.Query({0.0, 0.0, -inf}), "non-finite");
    HashAccessStats stats;
    EXPECT_DEATH(grid.CountAccesses({nan, 0.0, 0.0}, &stats), "non-finite");
}

TEST(HashGridDeath, RejectsConfigsTheLevelTableCannotHold)
{
    const auto make = [](int log2_table, int base_resolution,
                         double growth) {
        Rng rng(9);
        const HashGrid grid(
            {4, log2_table, 2, base_resolution, growth, -1.0, 1.0, 0.1}, rng);
        return grid.Query({0.1, 0.2, 0.3}).size();
    };
    EXPECT_EQ(make(1, 1, 1.0), 8u);  // smallest legal table and grid
    EXPECT_DEATH(make(0, 4, 1.6), "log2_table");
    EXPECT_DEATH(make(31, 4, 1.6), "log2_table");
    EXPECT_DEATH(make(10, 0, 1.6), "base_resolution");
    EXPECT_DEATH(make(10, 4, 0.9), "growth");
}

TEST(GridFieldDeath, RejectsNonFiniteOrNonPositiveLearningRate)
{
    Rng rng(10);
    GridField::Config config;
    config.grid = {4, 3, 4, 1, 1.6, -1.5, 1.5, 1e-2};
    GridField field(config, rng);
    const ProceduralScene scene = ProceduralScene::Mic();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double rate : {nan, inf, 0.0, -0.08}) {
        EXPECT_DEATH(field.Fit(scene, 10, 1, rate, rng), "learning rate");
    }
}

TEST(HashGrid, AccessStatsCountEightCornersPerLevel)
{
    Rng rng(5);
    const HashGrid grid({5, 12, 2, 4, 1.6, -1.0, 1.0, 0.1}, rng);
    HashAccessStats stats;
    grid.CountAccesses({0.2, 0.3, 0.4}, &stats);
    EXPECT_EQ(stats.queries, 1);
    EXPECT_EQ(stats.corner_lookups, 8 * grid.levels());
    EXPECT_EQ(stats.dense_level_lookups + stats.hashed_level_lookups,
              stats.corner_lookups);
}

TEST(Quantization, RoundTripWithinHalfStep)
{
    Rng rng(6);
    for (Precision p : kAllPrecisions) {
        std::vector<double> values;
        for (int i = 0; i < 500; ++i) values.push_back(rng.Gaussian(0, 1));
        const double scale = ComputeScale(values, p);
        for (double v : values) {
            const double rt =
                DequantizeValue(QuantizeValue(v, scale, p), scale);
            EXPECT_NEAR(rt, v, scale * 0.5 + 1e-12);
        }
    }
}

TEST(Quantization, OutlierSplitReconstructs)
{
    Rng rng(7);
    MatrixD m(16, 16);
    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            m.at(r, c) = rng.Gaussian(0.0, 0.1);
        }
    }
    m.at(3, 5) = 4.0;  // strong outlier
    m.at(9, 2) = -3.5;

    const OutlierSplit split = SplitOutliers(m, Precision::kInt4, 0.02);
    EXPECT_GT(split.outlier_density, 0.0);
    EXPECT_LT(split.outlier_density, 0.1);
    // Outlier matrix is sparse and holds the two spikes.
    EXPECT_NE(split.outliers.values.at(3, 5), 0);
    EXPECT_NE(split.outliers.values.at(9, 2), 0);

    double max_err = 0.0;
    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            const double rebuilt =
                DequantizeValue(split.base.values.at(r, c),
                                split.base.scale) +
                DequantizeValue(split.outliers.values.at(r, c),
                                split.outliers.scale);
            max_err = std::max(max_err, std::fabs(rebuilt - m.at(r, c)));
        }
    }
    // Within the INT4 step of the *inlier* scale — far tighter than naive
    // INT4 with outlier-stretched scale.
    EXPECT_LT(max_err, split.base.scale);
}

TEST(Quantization, OutlierAwareScaleIsTighter)
{
    Rng rng(8);
    std::vector<double> params;
    for (int i = 0; i < 4000; ++i) params.push_back(rng.Gaussian(0, 0.05));
    params[7] = 3.0;  // one huge outlier

    std::vector<double> naive = params;
    QuantizeParametersInPlace(&naive, Precision::kInt4);
    std::vector<double> outlier_aware = params;
    QuantizeParametersInPlace(&outlier_aware, Precision::kInt4,
                              {true, 0.01});

    double naive_err = 0.0, aware_err = 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
        naive_err += std::fabs(naive[i] - params[i]);
        aware_err += std::fabs(outlier_aware[i] - params[i]);
    }
    EXPECT_LT(aware_err, 0.2 * naive_err);
}

TEST(QuantizationDeath, RejectsOutlierFractionOutsideUnitInterval)
{
    std::vector<double> params = {0.1, -0.2, 0.3, 2.0};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double fraction : {-0.01, 1.0, 1.5, nan}) {
        std::vector<double> copy = params;
        EXPECT_DEATH(QuantizeParametersInPlace(&copy, Precision::kInt8,
                                               {true, fraction}),
                     "outlier fraction");
    }
    // Without keep_outliers the fraction is unused.
    EXPECT_EQ(QuantizeParametersInPlace(&params, Precision::kInt8,
                                        {false, 1.5}),
              0.0);
}

TEST(Mlp, ForwardShapesAndDeterminism)
{
    Rng rng(9);
    const Mlp mlp({8, {16, 16}, 4, 0.05, 0.4, 2.5}, rng);
    EXPECT_EQ(mlp.NumLayers(), 3);
    const std::vector<double> x(8, 0.3);
    const auto y1 = mlp.Forward(x);
    const auto y2 = mlp.Forward(x);
    ASSERT_EQ(y1.size(), 4u);
    EXPECT_EQ(y1, y2);
}

TEST(Mlp, QuantizedInt16TracksReference)
{
    Rng rng(10);
    const Mlp mlp({8, {32, 32}, 4, 0.05, 0.4, 2.5}, rng);
    Rng input_rng(11);
    double max_rel = 0.0;
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> x(8);
        for (double& v : x) v = input_rng.Uniform(-1.0, 1.0);
        const auto ref = mlp.Forward(x);
        const auto q = mlp.ForwardQuantized(x, Precision::kInt16);
        for (std::size_t i = 0; i < ref.size(); ++i) {
            max_rel = std::max(max_rel, std::fabs(q[i] - ref[i]));
        }
    }
    EXPECT_LT(max_rel, 0.01);
}

TEST(Mlp, OutlierPolicyRecoversInt4Accuracy)
{
    Rng rng(12);
    const Mlp mlp({8, {32, 32}, 4, 0.08, 0.4, 3.0}, rng);
    Rng input_rng(13);
    double err_naive = 0.0, err_outlier = 0.0;
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<double> x(8);
        for (double& v : x) v = input_rng.Uniform(-1.0, 1.0);
        const auto ref = mlp.Forward(x);
        const auto naive = mlp.ForwardQuantized(x, Precision::kInt4);
        const auto aware = mlp.ForwardQuantized(x, Precision::kInt4,
                                                {true, 0.08});
        for (std::size_t i = 0; i < ref.size(); ++i) {
            err_naive += std::fabs(naive[i] - ref[i]);
            err_outlier += std::fabs(aware[i] - ref[i]);
        }
    }
    EXPECT_LT(err_outlier, err_naive * 0.7);
}

TEST(VolumeRendering, EmptySpaceShowsBackground)
{
    std::vector<RaySample> samples(16);
    for (int i = 0; i < 16; ++i) samples[i] = {1.0 + 0.1 * i, 0.0, {}};
    const auto out = CompositeRay(samples, {1.0, 0.0, 0.5});
    EXPECT_NEAR(out.color.x, 1.0, 1e-9);
    EXPECT_NEAR(out.color.z, 0.5, 1e-9);
    EXPECT_NEAR(out.opacity, 0.0, 1e-9);
}

TEST(VolumeRendering, OpaqueWallReturnsItsColor)
{
    std::vector<RaySample> samples;
    for (int i = 0; i < 16; ++i) {
        samples.push_back({1.0 + 0.1 * i, 500.0, {0.2, 0.6, 0.9}});
    }
    const auto out = CompositeRay(samples, {1.0, 1.0, 1.0});
    EXPECT_NEAR(out.color.x, 0.2, 1e-3);
    EXPECT_NEAR(out.color.y, 0.6, 1e-3);
    EXPECT_NEAR(out.opacity, 1.0, 1e-6);
    EXPECT_NEAR(out.expected_depth, 1.0, 0.05);  // first surface wins
}

TEST(VolumeRendering, OccluderHidesBackObject)
{
    std::vector<RaySample> samples;
    samples.push_back({1.0, 400.0, {1.0, 0.0, 0.0}});  // red wall in front
    samples.push_back({1.1, 400.0, {1.0, 0.0, 0.0}});
    samples.push_back({2.0, 400.0, {0.0, 1.0, 0.0}});  // green wall behind
    const auto out = CompositeRay(samples, {0.0, 0.0, 0.0});
    EXPECT_GT(out.color.x, 0.95);
    EXPECT_LT(out.color.y, 0.05);
}

TEST(VolumeRendering, TransmittanceMatchesEq3)
{
    std::vector<RaySample> samples = {
        {1.0, 2.0, {}}, {1.5, 1.0, {}}, {2.0, 0.5, {}}};
    // T_2 = exp(-(2.0 * 0.5 + 1.0 * 0.5)).
    EXPECT_NEAR(TransmittanceBefore(samples, 2), std::exp(-1.5), 1e-12);
    EXPECT_DOUBLE_EQ(TransmittanceBefore(samples, 0), 1.0);
}

TEST(Scenes, ComplexityOrdering)
{
    const double mic = ProceduralScene::Mic().Occupancy();
    const double lego = ProceduralScene::Lego().Occupancy();
    const double palace = ProceduralScene::Palace().Occupancy();
    EXPECT_LT(mic, lego);
    EXPECT_LT(lego, palace);
    EXPECT_GT(mic, 0.0);
}

TEST(Scenes, FactoryByName)
{
    EXPECT_EQ(ProceduralScene::ByName("mic").name(), "mic");
    EXPECT_EQ(ProceduralScene::ByName("palace").NumPrimitives(),
              ProceduralScene::Palace().NumPrimitives());
}

TEST(Scenes, QueryReturnsBoundedColor)
{
    const ProceduralScene lego = ProceduralScene::Lego();
    Rng rng(14);
    for (int i = 0; i < 500; ++i) {
        const Vec3 p{rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5),
                     rng.Uniform(-1.5, 1.5)};
        double sigma;
        Vec3 rgb;
        lego.Query(p, Vec3{0, 0, 1}, &sigma, &rgb);
        EXPECT_GE(sigma, 0.0);
        EXPECT_GE(rgb.x, 0.0);
        EXPECT_LE(rgb.x, 1.0);
        EXPECT_GE(rgb.y, 0.0);
        EXPECT_LE(rgb.y, 1.0);
    }
}

TEST(Image, PsnrProperties)
{
    Image a(8, 8), b(8, 8);
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            a.at(x, y) = {0.5, 0.5, 0.5};
            b.at(x, y) = {0.5, 0.5, 0.5};
        }
    }
    EXPECT_TRUE(std::isinf(Psnr(a, b)));
    b.at(0, 0) = {1.0, 0.5, 0.5};
    const double p1 = Psnr(a, b);
    b.at(1, 1) = {1.0, 1.0, 1.0};
    const double p2 = Psnr(a, b);
    EXPECT_GT(p1, p2);  // more error, lower PSNR
    EXPECT_GT(p1, 20.0);
}

TEST(Renderer, MicSceneRendersObjectAndBackground)
{
    Renderer renderer({32, 1.5, 4.8, 1.0, {1.0, 1.0, 1.0}});
    Camera cam({32, 32, 50.0, {0.0, 0.0, 3.0}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    RenderStats stats;
    const Image img =
        renderer.Render(ProceduralScene::Mic(), cam, &stats);
    EXPECT_EQ(stats.rays, 32 * 32);
    EXPECT_GT(stats.active_samples, 0);
    // A corner pixel shows the white background; the mic head (upper
    // centre) is darker.
    EXPECT_GT(img.at(0, 0).x, 0.95);
    EXPECT_LT(img.at(16, 10).x, 0.9);
}

TEST(Renderer, ComplexSceneHasMoreActiveSamples)
{
    Renderer renderer({32, 1.5, 4.8, 1.0, {1.0, 1.0, 1.0}});
    Camera cam({24, 24, 55.0, {0.0, 0.5, 3.2}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    RenderStats mic_stats, palace_stats;
    renderer.Render(ProceduralScene::Mic(), cam, &mic_stats);
    renderer.Render(ProceduralScene::Palace(), cam, &palace_stats);
    EXPECT_GT(palace_stats.mean_active_per_ray,
              1.2 * mic_stats.mean_active_per_ray);
}

TEST(GridField, FitReducesErrorAndRendersScene)
{
    Rng rng(15);
    GridField::Config config;
    config.grid = {6, 12, 4, 4, 1.6, -1.5, 1.5, 1e-2};
    GridField field(config, rng);

    const ProceduralScene target = ProceduralScene::Mic();
    const auto report = field.Fit(target, 3000, 8, 0.08, rng);
    EXPECT_LT(report.final_rmse, 0.5 * report.initial_rmse);

    // The fitted field must reproduce the scene reasonably in image space.
    Renderer renderer({24, 1.5, 4.8, 1.0, {1.0, 1.0, 1.0}});
    Camera cam({24, 24, 50.0, {0.0, 0.0, 3.0}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    const Image ref = renderer.Render(target, cam);
    const Image fit = renderer.Render(field, cam);
    EXPECT_GT(Psnr(ref, fit), 14.0);
}

TEST(GridField, FitAndRenderBitsMatchSeed)
{
    // Pins the exact bits of a tiny fit and render. Each feature sums its
    // corners in corner order, and the SGD update runs channel -> level ->
    // corner; a reordering that is mathematically equivalent still moves
    // these values. Resolutions 1, 1, 2, 4 over an 8-entry table give two
    // dense levels and two hashed ones whose cell corners alias often, so
    // the update order within a level shows too.
    Rng rng(13);
    GridField::Config config;
    config.grid = {4, 3, 4, 1, 1.6, -1.5, 1.5, 1e-2};
    GridField field(config, rng);
    const auto report =
        field.Fit(ProceduralScene::Lego(), 200, 2, 0.08, rng);
    EXPECT_EQ(report.initial_rmse, 0x1.662b1766e4a4fp+2);
    EXPECT_EQ(report.final_rmse, 0x1.70965d54971b3p+0);

    Renderer renderer({16, 1.5, 4.8, 1.0, {1.0, 1.0, 1.0}});
    Camera cam({6, 6, 50.0, {0.0, 0.3, 3.0}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    const Image img = renderer.Render(field, cam);
    EXPECT_EQ(img.at(2, 2).x, 0x1.e28b6a9444dcfp-1);
    EXPECT_EQ(img.at(2, 2).y, 0x1.dfdf6bfc786dp-1);
    EXPECT_EQ(img.at(2, 2).z, 0x1.d7b012f1ad29p-1);
    EXPECT_EQ(img.at(4, 3).x, 0x1.eb5dc8dcf00f7p-1);
    EXPECT_EQ(img.at(4, 3).y, 0x1.eae750f8adecep-1);
    EXPECT_EQ(img.at(4, 3).z, 0x1.e9909e484526p-1);
}

TEST(GridField, Int16QuantizationIsNearlyLossless)
{
    Rng rng(16);
    GridField::Config config;
    config.grid = {6, 12, 4, 4, 1.6, -1.5, 1.5, 1e-2};
    GridField field(config, rng);
    field.Fit(ProceduralScene::Mic(), 2000, 6, 0.08, rng);

    Renderer renderer({24, 1.5, 4.8, 1.0, {1.0, 1.0, 1.0}});
    Camera cam({24, 24, 50.0, {0.0, 0.0, 3.0}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    const Image fp = renderer.Render(field, cam);

    GridField q16 = field;
    q16.QuantizeTables(Precision::kInt16);
    const Image i16 = renderer.Render(q16, cam);
    EXPECT_GT(Psnr(fp, i16), 40.0);

    GridField q4 = field;
    q4.QuantizeTables(Precision::kInt4);
    const Image i4 = renderer.Render(q4, cam);
    EXPECT_LT(Psnr(fp, i4), Psnr(fp, i16));
}

}  // namespace
}  // namespace flexnerfer
