#include "nerf/hash_encoding.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace flexnerfer {
namespace {

// Spatial hash primes from the Instant-NGP paper.
constexpr std::uint64_t kPrime1 = 1;
constexpr std::uint64_t kPrime2 = 2654435761ull;
constexpr std::uint64_t kPrime3 = 805459861ull;

/**
 * One axis of one level's cell: the two corner weights (1 - f, f) and the
 * two clamped corner indices times the level's multiplier for the axis.
 */
struct AxisSetup {
    double weight[2];
    std::uint64_t term[2];
};

AxisSetup
SetupAxis(double u, std::int64_t res, std::uint64_t multiplier)
{
    const double g = u * static_cast<double>(res);
    // u is in [0, 1], so g >= 0 and truncation is floor. i0 <= res, so
    // only the upper corner needs the clamp.
    const auto i0 = static_cast<std::int64_t>(g);
    const double f = g - static_cast<double>(i0);
    const std::int64_t i1 = std::min<std::int64_t>(i0 + 1, res);
    return {{1.0 - f, f},
            {static_cast<std::uint64_t>(i0) * multiplier,
             static_cast<std::uint64_t>(i1) * multiplier}};
}

}  // namespace

HashGrid::HashGrid(const Config& config, Rng& rng)
    : config_(config)
{
    FLEX_CHECK_MSG(config.levels >= 1, "need at least one level");
    FLEX_CHECK_MSG(config.features >= 1, "need at least one feature");
    FLEX_CHECK_MSG(config.bbox_max > config.bbox_min, "empty bounding box");
    FLEX_CHECK_MSG(config.log2_table >= 1 && config.log2_table <= 30,
                   "log2_table " << config.log2_table
                                 << " outside [1, 30]");
    FLEX_CHECK_MSG(config.base_resolution >= 1,
                   "base_resolution must be at least 1");
    FLEX_CHECK_MSG(config.growth >= 1.0, "growth must be at least 1.0");

    const std::size_t table_entries = std::size_t{1} << config.log2_table;
    std::size_t offset = 0;
    for (int level = 0; level < config.levels; ++level) {
        const int res = static_cast<int>(std::floor(
            config.base_resolution * std::pow(config.growth, level)));
        const std::size_t corners = static_cast<std::size_t>(res + 1) *
                                    (res + 1) * (res + 1);
        const bool dense = corners <= table_entries;
        const std::size_t entries = dense ? corners : table_entries;
        const std::uint64_t n = static_cast<std::uint64_t>(res) + 1;
        levels_.push_back({res,
                           dense,
                           {dense ? n * n : kPrime1, dense ? n : kPrime2,
                            dense ? 1 : kPrime3},
                           offset,
                           entries - 1});
        offset += entries * config.features;
    }
    parameters_.resize(offset);
    for (double& p : parameters_) {
        p = rng.Gaussian(0.0, config.init_scale);
    }
}

int
HashGrid::Resolution(int level) const
{
    FLEX_CHECK(level >= 0 && level < config_.levels);
    return levels_[level].resolution;
}

bool
HashGrid::IsDenseLevel(int level) const
{
    FLEX_CHECK(level >= 0 && level < config_.levels);
    return levels_[level].dense;
}

Vec3
HashGrid::ToUnit(const Vec3& pos) const
{
    FLEX_CHECK_MSG(std::isfinite(pos.x) && std::isfinite(pos.y) &&
                       std::isfinite(pos.z),
                   "non-finite hash-grid query position");
    const double extent = config_.bbox_max - config_.bbox_min;
    const auto to_unit = [&](double v) {
        return std::clamp((v - config_.bbox_min) / extent, 0.0, 1.0);
    };
    return {to_unit(pos.x), to_unit(pos.y), to_unit(pos.z)};
}

std::size_t
HashGrid::EntryIndex(const Level& level, std::uint64_t tx, std::uint64_t ty,
                     std::uint64_t tz)
{
    return level.dense ? tx + ty + tz : (tx ^ ty ^ tz) & level.mask;
}

template <int kFeatures>
void
HashGrid::QueryKernel(const Vec3& pos, double* out, LevelTaps* taps) const
{
    const Vec3 u = ToUnit(pos);
    const int features = kFeatures > 0 ? kFeatures : config_.features;
    const double* params = parameters_.data();

    for (int l = 0; l < config_.levels; ++l) {
        const Level& level = levels_[l];
        const AxisSetup ax =
            SetupAxis(u.x, level.resolution, level.axis_multiplier[0]);
        const AxisSetup ay =
            SetupAxis(u.y, level.resolution, level.axis_multiplier[1]);
        const AxisSetup az =
            SetupAxis(u.z, level.resolution, level.axis_multiplier[2]);

        // Fixed feature counts accumulate in registers; the runtime count
        // accumulates in place.
        double* level_out = out + l * features;
        double regs[kFeatures > 0 ? kFeatures : 1] = {};
        double* acc = kFeatures > 0 ? regs : level_out;
        for (int f = 0; f < features; ++f) acc[f] = 0.0;

        int count = 0;
        const auto corner = [&](int dx, int dy, int dz) {
            const double w = ax.weight[dx] * ay.weight[dy] * az.weight[dz];
            if (w == 0.0) return;
            const std::size_t entry =
                EntryIndex(level, ax.term[dx], ay.term[dy], az.term[dz]);
            const std::size_t base = level.offset + entry * features;
            for (int f = 0; f < features; ++f) {
                acc[f] += w * params[base + f];
            }
            if (taps) {
                taps[l].base[count] = base;
                taps[l].weight[count] = w;
            }
            ++count;
        };
        // Corner order: corner = dx | dy << 1 | dz << 2.
        corner(0, 0, 0);
        corner(1, 0, 0);
        corner(0, 1, 0);
        corner(1, 1, 0);
        corner(0, 0, 1);
        corner(1, 0, 1);
        corner(0, 1, 1);
        corner(1, 1, 1);

        if (kFeatures > 0) {
            for (int f = 0; f < features; ++f) level_out[f] = acc[f];
        }
        if (taps) taps[l].count = count;
    }
}

void
HashGrid::QueryInto(const Vec3& pos, double* out, LevelTaps* taps) const
{
    if (config_.features == 4) {
        QueryKernel<4>(pos, out, taps);
    } else {
        QueryKernel<0>(pos, out, taps);
    }
}

std::vector<double>
HashGrid::Query(const Vec3& pos) const
{
    std::vector<double> out(OutputDim());
    QueryInto(pos, out.data(), nullptr);
    return out;
}

std::vector<double>
HashGrid::QueryWithTaps(const Vec3& pos,
                        std::vector<std::vector<Tap>>* taps) const
{
    std::vector<double> out(OutputDim());
    std::vector<LevelTaps> level_taps(config_.levels);
    QueryInto(pos, out.data(), level_taps.data());
    if (taps) {
        taps->assign(OutputDim(), {});
        for (int l = 0; l < config_.levels; ++l) {
            const LevelTaps& t = level_taps[l];
            for (int k = 0; k < t.count; ++k) {
                for (int f = 0; f < config_.features; ++f) {
                    (*taps)[l * config_.features + f].push_back(
                        {t.base[k] + f, t.weight[k]});
                }
            }
        }
    }
    return out;
}

void
HashGrid::CountAccesses(const Vec3& pos, HashAccessStats* stats) const
{
    FLEX_CHECK(stats != nullptr);
    ++stats->queries;

    const Vec3 u = ToUnit(pos);
    for (const Level& level : levels_) {
        const AxisSetup ax =
            SetupAxis(u.x, level.resolution, level.axis_multiplier[0]);
        const AxisSetup ay =
            SetupAxis(u.y, level.resolution, level.axis_multiplier[1]);
        const AxisSetup az =
            SetupAxis(u.z, level.resolution, level.axis_multiplier[2]);

        std::size_t entries[8] = {};
        int distinct = 0;
        for (int corner = 0; corner < 8; ++corner) {
            const std::size_t entry =
                EntryIndex(level, ax.term[corner & 1],
                           ay.term[(corner >> 1) & 1],
                           az.term[(corner >> 2) & 1]);
            if (std::find(entries, entries + distinct, entry) ==
                entries + distinct) {
                entries[distinct++] = entry;
            }
        }
        stats->corner_lookups += 8;
        // Corners mapping to the same table entry can be served by one
        // coalesced access (the HEE's coalescing hash units).
        stats->coalesced_lookups += 8 - distinct;
        if (level.dense) {
            stats->dense_level_lookups += 8;
        } else {
            stats->hashed_level_lookups += 8;
        }
    }
}

}  // namespace flexnerfer
