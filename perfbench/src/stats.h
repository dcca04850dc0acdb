#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// @file
/// Order statistics the benchmark reports: median, quartiles with the same
/// rule as Python's statistics.quantiles (method "exclusive"), and the
/// geometric mean.  Header-only so the self-test can check them on fixed
/// vectors.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of @p v (mean of the two middle values for even sizes).
inline double
median(std::vector<double> v)
{
    if (v.empty()) {
        throw std::invalid_argument("median of an empty sample");
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The @p n - 1 cut points dividing @p v into @p n groups, computed exactly
/// as Python's statistics.quantiles(v, n=n) does (exclusive method, index
/// clamped to 1 .. size-1).  A single value yields n - 1 copies of it.
inline std::vector<double>
quantiles(std::vector<double> v, int n = 4)
{
    if (v.empty() || n < 1) {
        throw std::invalid_argument("quantiles: empty sample or n < 1");
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 1) {
        return std::vector<double>(static_cast<std::size_t>(n - 1), v[0]);
    }
    std::vector<double> cuts;
    const long m = ld + 1;
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        cuts.push_back((v[j - 1] * static_cast<double>(n - delta) +
                        v[j] * static_cast<double>(delta)) /
                       static_cast<double>(n));
    }
    return cuts;
}

/// Linear-interpolation percentile (0 <= @p p <= 100) of @p v, the
/// "inclusive" rule (numpy's default).
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        throw std::invalid_argument("percentile of an empty sample");
    }
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Geometric mean of positive values.
inline double
geomean(const std::vector<double>& v)
{
    if (v.empty()) {
        throw std::invalid_argument("geomean of an empty sample");
    }
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0)) {
            throw std::invalid_argument("geomean needs positive values");
        }
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Interquartile range of @p v as a share of its median (0 for fewer than
/// two values) — the spread figure the benchmark prints per metric.
inline double
relative_iqr(const std::vector<double>& v)
{
    if (v.size() < 2) {
        return 0.0;
    }
    const std::vector<double> q = quantiles(v, 4);
    const double med = median(v);
    return med == 0.0 ? 0.0 : (q[2] - q[0]) / med;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
