/**
 * @file
 * Hash-grid radiance field with least-squares fitting.
 *
 * A GridField is the repo's stand-in for a trained Instant-NGP model: a
 * multiresolution hash grid with four features per level (density + RGB,
 * summed across levels through fixed activations). Because the grid query
 * is linear in the table entries, fitting the field to any target
 * RadianceField is a linear regression solvable by plain SGD — giving a
 * genuinely "trained" parameter distribution for the quantization and
 * sparsity experiments (Fig. 13(a), Fig. 20(a)).
 */
#ifndef FLEXNERFER_NERF_FIELD_FIT_H_
#define FLEXNERFER_NERF_FIELD_FIT_H_

#include "common/rng.h"
#include "common/types.h"
#include "nerf/hash_encoding.h"
#include "nerf/quantization.h"
#include "nerf/scene.h"

namespace flexnerfer {

/** Radiance field backed by a multiresolution hash grid. */
class GridField : public RadianceField
{
  public:
    /** Upper bound on grid levels (sizes GridField::Query's buffer). */
    static constexpr int kMaxLevels = 32;

    struct Config {
        HashGrid::Config grid;
        double sigma_scale = 60.0;  //!< max representable density scale
    };

    GridField(const Config& config, Rng& rng);

    void Query(const Vec3& pos, const Vec3& dir, double* sigma,
               Vec3* rgb) const override;

    /** Outcome of one fitting run. */
    struct FitReport {
        double initial_rmse = 0.0;  //!< pre-activation target-space RMSE
        double final_rmse = 0.0;
        int points = 0;
        int epochs = 0;
    };

    /**
     * Fits the grid to @p target by SGD on pre-activation regression
     * targets at uniformly sampled positions inside the bounding box.
     * @p learning_rate must be finite and positive (checked).
     */
    FitReport Fit(const RadianceField& target, int n_points, int epochs,
                  double learning_rate, Rng& rng);

    /**
     * Quantizes all table entries in place (quantize + dequantize), as the
     * accelerator stores them. Returns the outlier fraction retained at
     * INT16 under the given policy.
     */
    double QuantizeTables(Precision precision,
                          const OutlierPolicy& policy = {});

    HashGrid& grid() { return grid_; }
    const HashGrid& grid() const { return grid_; }

  private:
    /** Pre-activation regression target for (sigma, rgb). */
    std::vector<double> PreactivationTarget(double sigma,
                                            const Vec3& rgb) const;

    Config config_;
    HashGrid grid_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_NERF_FIELD_FIT_H_
