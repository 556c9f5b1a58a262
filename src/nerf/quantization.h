/**
 * @file
 * Quantization utilities: per-tensor absmax scaling, matrix quantization,
 * and outlier-aware splitting (a dense low-precision part plus a sparse
 * INT16 outlier correction), following the scheme FlexNeRFer uses to keep
 * PSNR near FP32 at INT8/INT4 (Section 6.3.2, citing outlier-aware works).
 */
#ifndef FLEXNERFER_NERF_QUANTIZATION_H_
#define FLEXNERFER_NERF_QUANTIZATION_H_

#include <vector>

#include "common/matrix.h"
#include "common/types.h"

namespace flexnerfer {

/** Policy controlling outlier handling during quantized inference. */
struct OutlierPolicy {
    bool keep_outliers = false;
    /** Fraction of largest-magnitude weights kept at INT16. */
    double outlier_fraction = 0.01;
};

/** Symmetric per-tensor scale: absmax mapped to the precision's max. */
double ComputeScale(const std::vector<double>& values, Precision precision);

/** Quantizes one value with a given scale (round-to-nearest, saturating). */
std::int32_t QuantizeValue(double value, double scale, Precision precision);

/** Dequantizes back to real. */
double DequantizeValue(std::int32_t q, double scale);

/** Quantizes a real matrix; returns the integer matrix and its scale. */
struct QuantizedMatrix {
    MatrixI values;
    double scale = 1.0;
};
QuantizedMatrix QuantizeMatrix(const MatrixD& m, Precision precision);

/**
 * Outlier-aware split of a weight matrix: `base` holds all values whose
 * magnitude is below the (1 - fraction) quantile, quantized at
 * @p base_precision; `outliers` holds the rest as a sparse INT16 matrix
 * (zeros elsewhere). Dequantized base + outliers reconstructs the input to
 * within the two quantization steps.
 */
struct OutlierSplit {
    QuantizedMatrix base;       //!< dense, low precision
    QuantizedMatrix outliers;   //!< sparse, INT16
    double outlier_density = 0.0;
};
OutlierSplit SplitOutliers(const MatrixD& m, Precision base_precision,
                           double outlier_fraction);

/**
 * Quantizes the entries of a flat parameter vector in place (quantize then
 * dequantize), optionally keeping the top policy.outlier_fraction
 * magnitudes at INT16. With keep_outliers, a fraction outside [0, 1) is a
 * checked error. Returns the fraction of parameters kept as outliers.
 */
double QuantizeParametersInPlace(std::vector<double>* parameters,
                                 Precision precision,
                                 const OutlierPolicy& policy = {});

}  // namespace flexnerfer

#endif  // FLEXNERFER_NERF_QUANTIZATION_H_
