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

std::uint64_t
SpatialHash(std::int64_t ix, std::int64_t iy, std::int64_t iz)
{
    return (static_cast<std::uint64_t>(ix) * kPrime1) ^
           (static_cast<std::uint64_t>(iy) * kPrime2) ^
           (static_cast<std::uint64_t>(iz) * kPrime3);
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
        levels_.push_back({res, dense, res + 1, offset, entries - 1});
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
HashGrid::EntryIndex(const Level& level, std::int64_t ix, std::int64_t iy,
                     std::int64_t iz)
{
    if (level.dense) {
        const std::int64_t n = level.stride;
        return static_cast<std::size_t>((ix * n + iy) * n + iz);
    }
    return SpatialHash(ix, iy, iz) & level.mask;
}

void
HashGrid::QueryInto(const Vec3& pos, double* out, LevelTaps* taps) const
{
    const Vec3 u = ToUnit(pos);
    const int features = config_.features;
    std::fill(out, out + OutputDim(), 0.0);

    for (int l = 0; l < config_.levels; ++l) {
        const Level& level = levels_[l];
        const int res = level.resolution;
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
                EntryIndex(level, std::min<std::int64_t>(x0 + dx, res),
                           std::min<std::int64_t>(y0 + dy, res),
                           std::min<std::int64_t>(z0 + dz, res));
            const std::size_t base = level.offset + entry * features;
            for (int f = 0; f < features; ++f) {
                level_out[f] += w * parameters_[base + f];
            }
            if (taps) {
                taps[l].base[count] = base;
                taps[l].weight[count] = w;
            }
            ++count;
        }
        if (taps) taps[l].count = count;
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
        const int res = level.resolution;
        const auto x0 = static_cast<std::int64_t>(std::floor(u.x * res));
        const auto y0 = static_cast<std::int64_t>(std::floor(u.y * res));
        const auto z0 = static_cast<std::int64_t>(std::floor(u.z * res));

        std::size_t entries[8] = {};
        int distinct = 0;
        for (int corner = 0; corner < 8; ++corner) {
            const std::size_t entry = EntryIndex(
                level,
                std::min<std::int64_t>(x0 + ((corner >> 0) & 1), res),
                std::min<std::int64_t>(y0 + ((corner >> 1) & 1), res),
                std::min<std::int64_t>(z0 + ((corner >> 2) & 1), res));
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
