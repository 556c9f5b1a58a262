/**
 * @file
 * Multiresolution hash-grid encoding (Instant-NGP style), the workload of
 * FlexNeRFer's hash encoding engine (Section 5.2.2).
 *
 * Each of L levels is a 3D grid of resolution N_l = floor(N_min * b^l).
 * Coarse levels whose corner count fits the table are stored densely (no
 * collisions); fine levels hash corner coordinates into a table of
 * 2^log2_table entries with F features each. A query trilinearly
 * interpolates the 8 surrounding corners at every level and concatenates
 * the per-level features.
 *
 * The structure also gathers the statistics the HEE hardware exploits:
 * coalescable lookups (several corners sharing a hash index at coarse
 * levels) and subgrid locality at fine levels.
 *
 * Level table: the constructor computes every per-level fact once —
 * resolution, dense flag, per-axis index multipliers, parameter offset
 * and, for hashed levels, the hash mask. A hashed level holds exactly
 * 2^log2_table entries, so its index is `hash & mask`. Queries only read
 * the table.
 *
 * Per-axis setup: a corner's weight is a product of one factor per axis,
 * and its entry index combines one term per axis. With n = N_l + 1 the
 * dense index (ix * n + iy) * n + iz is ix * n^2 + iy * n + iz, and the
 * hash is ix * p1 ^ iy * p2 ^ iz * p3. So each level computes, once per
 * axis, the two weights (1 - f, f), the two clamped corner indices and
 * their two terms (index times the axis multiplier); the 8 corners only
 * multiply weights and add (dense) or xor-and-mask (hashed) terms, and
 * accumulate in registers. Positions are clamped to the unit cube first,
 * so the scaled coordinate is never negative and integer truncation
 * equals floor.
 *
 * One kernel body: QueryInto is the one query kernel, and Query and
 * QueryWithTaps wrap it. Its body is a template on the feature count,
 * instantiated for 4 (GridField's count, so the accumulators stay in
 * registers) and for a count read at run time (every other count). Both
 * instantiations compute the same bits.
 *
 * Tap order: at each level the kernel visits the 8 corners in order
 * (corner = dx | dy << 1 | dz << 2), skips corners of trilinear weight
 * exactly 0 (clamped or lattice-aligned positions), and adds
 * w * entry[f] into each feature in that order, starting from 0. The
 * per-level taps list the surviving corners in the same order; the SGD
 * fitter (nerf/field_fit.h) applies its updates channel -> level -> corner
 * over them. Results depend on both orders bit for bit:
 * GridField.FitAndRenderBitsMatchSeed in tests/nerf_test.cpp pins them,
 * and HashGrid.QueryIntoMatchesReferenceKernel compares the kernel with
 * a per-corner reference by exact bits.
 */
#ifndef FLEXNERFER_NERF_HASH_ENCODING_H_
#define FLEXNERFER_NERF_HASH_ENCODING_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nerf/vec3.h"

namespace flexnerfer {

/** Per-query access statistics consumed by the HEE cycle model. */
struct HashAccessStats {
    std::int64_t queries = 0;
    std::int64_t corner_lookups = 0;    //!< 8 per level per query
    std::int64_t coalesced_lookups = 0; //!< duplicates within one query/level
    std::int64_t dense_level_lookups = 0;
    std::int64_t hashed_level_lookups = 0;

    void
    Merge(const HashAccessStats& o)
    {
        queries += o.queries;
        corner_lookups += o.corner_lookups;
        coalesced_lookups += o.coalesced_lookups;
        dense_level_lookups += o.dense_level_lookups;
        hashed_level_lookups += o.hashed_level_lookups;
    }
};

/** One multiresolution hash grid with learnable features. */
class HashGrid
{
  public:
    struct Config {
        int levels = 8;
        int log2_table = 14;     //!< 2^14 entries per hashed level
        int features = 4;        //!< features per entry
        int base_resolution = 4;
        double growth = 1.6;     //!< per-level geometric resolution growth
        double bbox_min = -1.5;  //!< scene bounding cube
        double bbox_max = 1.5;
        double init_scale = 1e-2;
    };

    HashGrid(const Config& config, Rng& rng);

    /**
     * The corners one level's features were interpolated from: @c count
     * entries in corner order, zero-weight corners skipped. Feature f of
     * tap k lives at parameters()[base[k] + f].
     */
    struct LevelTaps {
        std::size_t base[8] = {};  //!< flat index of the entry's feature 0
        double weight[8] = {};     //!< trilinear interpolation weight
        int count = 0;
    };

    /**
     * The query kernel. Writes the interpolated feature vector at @p pos
     * (OutputDim() values, level-major) to @p out and, if @p taps is
     * non-null, the corner taps of every level to taps[0..levels()).
     * Positions outside the bounding box are clamped; a non-finite
     * position is a checked error. Allocates nothing.
     */
    void QueryInto(const Vec3& pos, double* out, LevelTaps* taps) const;

    /** QueryInto into a fresh vector. */
    std::vector<double> Query(const Vec3& pos) const;

    /**
     * Like Query, but also reports, per output feature, the flat parameter
     * indices and trilinear weights that produced it — the hooks the SGD
     * fitter needs (a hash-grid query is linear in the table entries).
     */
    struct Tap {
        std::size_t parameter;  //!< flat index into parameters()
        double weight;          //!< trilinear interpolation weight
    };
    std::vector<double> QueryWithTaps(
        const Vec3& pos, std::vector<std::vector<Tap>>* taps) const;

    /** Accounts one query's hardware-visible accesses into @p stats. */
    void CountAccesses(const Vec3& pos, HashAccessStats* stats) const;

    /** Grid resolution of a level. */
    int Resolution(int level) const;

    /** True if the level is stored densely (corner count fits the table). */
    bool IsDenseLevel(int level) const;

    int levels() const { return config_.levels; }
    int features() const { return config_.features; }
    int OutputDim() const { return config_.levels * config_.features; }

    /** All learnable parameters, flat (level tables concatenated). */
    const std::vector<double>& parameters() const { return parameters_; }
    std::vector<double>& parameters() { return parameters_; }

    const Config& config() const { return config_; }

  private:
    /** Per-level facts, computed once by the constructor. */
    struct Level {
        int resolution;         //!< N_l
        bool dense;             //!< (N_l + 1)^3 corners fit the table
        //! Per-axis (x, y, z) index multipliers: (N_l + 1)^2, N_l + 1, 1
        //! on dense levels, the three hash primes on hashed ones.
        std::uint64_t axis_multiplier[3];
        std::size_t offset;     //!< into parameters_
        std::uint64_t mask;     //!< entries - 1 (hashed levels)
    };

    /**
     * QueryInto's body: kFeatures is the feature count, or 0 to read it
     * from the config.
     */
    template <int kFeatures>
    void QueryKernel(const Vec3& pos, double* out, LevelTaps* taps) const;

    /** Position mapped into the unit cube, clamped; checks finiteness. */
    Vec3 ToUnit(const Vec3& pos) const;

    /**
     * Table entry of a corner from its per-axis terms (clamped index times
     * axis_multiplier): their sum on a dense level, their xor masked on a
     * hashed one.
     */
    static std::size_t EntryIndex(const Level& level, std::uint64_t tx,
                                  std::uint64_t ty, std::uint64_t tz);

    Config config_;
    std::vector<double> parameters_;
    std::vector<Level> levels_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_NERF_HASH_ENCODING_H_
