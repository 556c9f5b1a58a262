/**
 * @file
 * Property-based suites sweeping configuration spaces: bitmap
 * intersection against the mapper, engine invariants over (precision x
 * dims x NoC style), exhaustive small-Benes routing, quantization error
 * bounds, and the footprint model's monotonicity.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/matrix.h"
#include "common/rng.h"
#include "gemm/engine.h"
#include "gemm/mapper.h"
#include "gemm/tiling.h"
#include "noc/benes.h"
#include "nerf/quantization.h"
#include "sparse/footprint.h"
#include "sparse/intersection.h"

namespace flexnerfer {
namespace {

/** Bitmap intersection agrees with the mapper's packed work. */
class IntersectionSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{};

TEST_P(IntersectionSweep, WorkCountMatchesMapperProducts)
{
    const auto [dim, sparsity] = GetParam();
    Rng rng(2000 + dim);
    const MatrixI a =
        MakeSparseMatrix(dim, dim, sparsity, Precision::kInt16, rng);
    const MatrixI b =
        MakeSparseMatrix(dim, dim, sparsity, Precision::kInt16, rng);
    const BitmapMatrix ba = BitmapMatrix::FromDense(a);
    const BitmapMatrix bb = BitmapMatrix::FromDense(b);

    const DenseMapper mapper(dim);
    const auto waves = mapper.MapTilePair(a, b, 0, 0, 0, dim, true);
    std::int64_t mapped = 0;
    for (const MappedWave& w : waves) {
        mapped += static_cast<std::int64_t>(w.slots.size());
    }
    EXPECT_EQ(CountIntersectionWork(ba, bb), mapped);
}

TEST_P(IntersectionSweep, PerKPairsMatchOperands)
{
    const auto [dim, sparsity] = GetParam();
    Rng rng(3000 + dim);
    const MatrixI a =
        MakeSparseMatrix(dim, dim, sparsity, Precision::kInt16, rng);
    const MatrixI b =
        MakeSparseMatrix(dim, dim, sparsity, Precision::kInt16, rng);
    const BitmapMatrix ba = BitmapMatrix::FromDense(a);
    const BitmapMatrix bb = BitmapMatrix::FromDense(b);
    for (int k = 0; k < dim; ++k) {
        for (const auto& [i, j] : IntersectColumnRow(ba, bb, k)) {
            EXPECT_NE(a.at(i, k), 0);
            EXPECT_NE(b.at(k, j), 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSparsities, IntersectionSweep,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(0.2, 0.5, 0.8, 0.95)));

TEST(Intersection, CycleModelScalesWithLanes)
{
    Rng rng(4);
    const MatrixI m =
        MakeSparseMatrix(64, 64, 0.5, Precision::kInt16, rng);
    const BitmapMatrix bm = BitmapMatrix::FromDense(m);
    EXPECT_GT(IntersectionCycles(bm, bm, 1),
              IntersectionCycles(bm, bm, 64));
}

/** Engine invariants over the architecture space. */
class EngineInvariants
    : public ::testing::TestWithParam<
          std::tuple<Precision, int, NocStyle>>
{};

TEST_P(EngineInvariants, CostModelStaysConsistent)
{
    const auto [precision, array_dim, noc_style] = GetParam();
    GemmEngineConfig config;
    config.precision = precision;
    config.array_dim = array_dim;
    config.noc_style = noc_style;
    config.compute_output = false;
    const GemmEngine engine(config);

    const GemmShape shape{512, 128, 96, 0.6, 0.8, 0.2};
    const GemmResult r = engine.RunFromShape(shape);

    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GE(r.cycles, r.compute_cycles);
    EXPECT_GT(r.useful_macs, 0.0);
    EXPECT_LE(r.useful_macs, r.issued_macs + 1e-6);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
    EXPECT_GT(r.energy.TotalPj(), 0.0);
    EXPECT_GE(r.latency_ms, r.onchip_ms - 1e-12);
    EXPECT_GT(r.a_bytes_encoded, 0.0);
    EXPECT_GT(r.dram_bytes, 0.0);
}

TEST_P(EngineInvariants, MorePruningNeverSlower)
{
    const auto [precision, array_dim, noc_style] = GetParam();
    GemmEngineConfig config;
    config.precision = precision;
    config.array_dim = array_dim;
    config.noc_style = noc_style;
    config.compute_output = false;
    const GemmEngine engine(config);

    double previous = 1e300;
    for (double prune : {0.0, 0.3, 0.6, 0.9}) {
        const GemmResult r = engine.RunFromShape(
            {2048, 256, 256, 0.6, 1.0, prune});
        EXPECT_LE(r.latency_ms, previous * (1.0 + 1e-9)) << prune;
        previous = r.latency_ms;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ArchitectureSpace, EngineInvariants,
    ::testing::Combine(::testing::Values(Precision::kInt4, Precision::kInt8,
                                         Precision::kInt16),
                       ::testing::Values(8, 16, 64),
                       ::testing::Values(NocStyle::kHmfTree,
                                         NocStyle::kHmTree,
                                         NocStyle::kBenes)));

TEST(BenesExhaustive, AllPermutationsOfFourPorts)
{
    BenesNetwork net(4);
    std::vector<int> perm = {0, 1, 2, 3};
    do {
        EXPECT_EQ(net.Route(perm).arrived_at, perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
}

/** Quantization error is bounded by half a step at every precision. */
class QuantizationBound : public ::testing::TestWithParam<Precision>
{};

TEST_P(QuantizationBound, ErrorWithinHalfStep)
{
    const Precision p = GetParam();
    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        MatrixD m(8, 8);
        for (int r = 0; r < 8; ++r) {
            for (int c = 0; c < 8; ++c) {
                m.at(r, c) = rng.Gaussian(0.0, 2.0);
            }
        }
        const QuantizedMatrix q = QuantizeMatrix(m, p);
        for (int r = 0; r < 8; ++r) {
            for (int c = 0; c < 8; ++c) {
                const double rebuilt =
                    DequantizeValue(q.values.at(r, c), q.scale);
                EXPECT_NEAR(rebuilt, m.at(r, c), q.scale * 0.5 + 1e-12);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, QuantizationBound,
                         ::testing::Values(Precision::kInt4,
                                           Precision::kInt8,
                                           Precision::kInt16));

TEST(FootprintProperties, MonotoneInNnz)
{
    for (Precision p : kAllPrecisions) {
        const int dim = TileDim(p, 16);
        const std::int64_t total = static_cast<std::int64_t>(dim) * dim;
        for (SparsityFormat f :
             {SparsityFormat::kCoo, SparsityFormat::kCsr,
              SparsityFormat::kBitmap}) {
            std::int64_t previous = -1;
            for (std::int64_t nnz = 0; nnz <= total; nnz += total / 16) {
                const std::int64_t bits =
                    FootprintBits(f, dim, dim, nnz, p);
                EXPECT_GE(bits, previous) << ToString(f) << " " << nnz;
                previous = bits;
            }
        }
    }
}

TEST(FootprintProperties, DenseIsNnzIndependent)
{
    EXPECT_EQ(FootprintBits(SparsityFormat::kNone, 64, 64, 0,
                            Precision::kInt16),
              FootprintBits(SparsityFormat::kNone, 64, 64, 4096,
                            Precision::kInt16));
}

}  // namespace
}  // namespace flexnerfer
