#include "nerf/quantization.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace flexnerfer {

double
ComputeScale(const std::vector<double>& values, Precision precision)
{
    double absmax = 0.0;
    for (double v : values) absmax = std::max(absmax, std::fabs(v));
    if (absmax == 0.0) return 1.0;
    return absmax / static_cast<double>(MaxValue(precision));
}

std::int32_t
QuantizeValue(double value, double scale, Precision precision)
{
    FLEX_CHECK_MSG(scale > 0.0, "scale must be positive");
    const auto q = static_cast<std::int32_t>(std::llround(value / scale));
    return std::clamp(q, MinValue(precision), MaxValue(precision));
}

double
DequantizeValue(std::int32_t q, double scale)
{
    return static_cast<double>(q) * scale;
}

QuantizedMatrix
QuantizeMatrix(const MatrixD& m, Precision precision)
{
    QuantizedMatrix out;
    out.scale = ComputeScale(m.data(), precision);
    out.values = MatrixI(m.rows(), m.cols());
    for (int r = 0; r < m.rows(); ++r) {
        for (int c = 0; c < m.cols(); ++c) {
            out.values.at(r, c) =
                QuantizeValue(m.at(r, c), out.scale, precision);
        }
    }
    return out;
}

OutlierSplit
SplitOutliers(const MatrixD& m, Precision base_precision,
              double outlier_fraction)
{
    FLEX_CHECK_MSG(outlier_fraction >= 0.0 && outlier_fraction < 1.0,
                   "outlier fraction outside [0,1)");
    OutlierSplit split;

    // Magnitude threshold at the (1 - fraction) quantile.
    std::vector<double> magnitudes;
    magnitudes.reserve(m.size());
    for (double v : m.data()) magnitudes.push_back(std::fabs(v));
    std::vector<double> sorted = magnitudes;
    std::sort(sorted.begin(), sorted.end());
    const auto cut = static_cast<std::size_t>(
        std::floor((1.0 - outlier_fraction) * (sorted.size() - 1)));
    const double threshold = sorted.empty() ? 0.0 : sorted[cut];

    MatrixD base_real(m.rows(), m.cols());
    MatrixD outlier_real(m.rows(), m.cols());
    std::size_t n_outliers = 0;
    for (int r = 0; r < m.rows(); ++r) {
        for (int c = 0; c < m.cols(); ++c) {
            const double v = m.at(r, c);
            if (outlier_fraction > 0.0 && std::fabs(v) > threshold) {
                outlier_real.at(r, c) = v;
                ++n_outliers;
            } else {
                base_real.at(r, c) = v;
            }
        }
    }
    split.base = QuantizeMatrix(base_real, base_precision);
    split.outliers = QuantizeMatrix(outlier_real, Precision::kInt16);
    split.outlier_density =
        m.size() > 0
            ? static_cast<double>(n_outliers) / static_cast<double>(m.size())
            : 0.0;
    return split;
}

double
QuantizeParametersInPlace(std::vector<double>* parameters,
                          Precision precision, const OutlierPolicy& policy)
{
    FLEX_CHECK(parameters != nullptr);
    FLEX_CHECK_MSG(!policy.keep_outliers || (policy.outlier_fraction >= 0.0 &&
                                             policy.outlier_fraction < 1.0),
                   "outlier fraction outside [0,1)");
    if (parameters->empty()) return 0.0;

    double threshold = std::numeric_limits<double>::infinity();
    if (policy.keep_outliers && policy.outlier_fraction > 0.0) {
        std::vector<double> sorted;
        sorted.reserve(parameters->size());
        for (double v : *parameters) sorted.push_back(std::fabs(v));
        std::sort(sorted.begin(), sorted.end());
        const auto cut = static_cast<std::size_t>(
            std::floor((1.0 - policy.outlier_fraction) *
                       (sorted.size() - 1)));
        threshold = sorted[cut];
    }

    // Scale from the inlier population only: this is the point of outlier
    // splitting — outliers no longer stretch the quantization grid.
    std::vector<double> inliers;
    inliers.reserve(parameters->size());
    for (double v : *parameters) {
        if (std::fabs(v) <= threshold) inliers.push_back(v);
    }
    const double base_scale = ComputeScale(inliers, precision);
    const double outlier_scale = ComputeScale(*parameters, Precision::kInt16);

    std::size_t n_outliers = 0;
    for (double& v : *parameters) {
        if (std::fabs(v) > threshold) {
            v = DequantizeValue(
                QuantizeValue(v, outlier_scale, Precision::kInt16),
                outlier_scale);
            ++n_outliers;
        } else {
            v = DequantizeValue(QuantizeValue(v, base_scale, precision),
                                base_scale);
        }
    }
    return static_cast<double>(n_outliers) /
           static_cast<double>(parameters->size());
}

}  // namespace flexnerfer
