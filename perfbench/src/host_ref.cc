#include "host_ref.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

/// xorshift64: the reference draws its own noise, independent of util::Rng.
struct XorShift
{
    std::uint64_t s;

    double
    uniform()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<double>(s >> 11) * 0x1.0p-53;
    }
};

/// Keeps the sampled outcomes observable so the work is not elided.
volatile std::uint64_t g_sink = 0;

}  // namespace

double
reference_seconds()
{
    constexpr int kQubits = 10;
    constexpr std::size_t kDim = std::size_t{1} << kQubits;
    // A fixed 2x2 rotation, real and imaginary parts apart: plain
    // arithmetic, no library complex-multiply calls.
    constexpr double ar = 0.8, ai = 0.1, br = -0.3, bi = 0.5;
    constexpr double cr = 0.3, ci = 0.5, dr = 0.8, di = -0.1;
    std::vector<double> re(kDim);
    std::vector<double> im(kDim);
    XorShift rng{0x12345};
    std::uint64_t outcomes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int shot = 0; shot < 6; ++shot) {
        std::fill(re.begin(), re.end(), 0.0);
        std::fill(im.begin(), im.end(), 0.0);
        re[0] = 1.0;
        for (int g = 0; g < 150; ++g) {
            const int q = g % kQubits;
            const std::size_t st = std::size_t{1} << q;
            if (g % 3 == 2) {
                const std::size_t cs = std::size_t{1} << ((q + 1) % kQubits);
                for (std::size_t i = 0; i < kDim; ++i) {
                    if ((i & cs) != 0 && (i & st) == 0) {
                        std::swap(re[i], re[i | st]);
                        std::swap(im[i], im[i | st]);
                    }
                }
            } else {
                for (std::size_t i = 0; i < kDim; ++i) {
                    if ((i & st) == 0) {
                        const double xr = re[i], xi = im[i];
                        const double yr = re[i | st], yi = im[i | st];
                        re[i] = ar * xr - ai * xi + br * yr - bi * yi;
                        im[i] = ar * xi + ai * xr + br * yi + bi * yr;
                        re[i | st] = cr * xr - ci * xi + dr * yr - di * yi;
                        im[i | st] = cr * xi + ci * xr + dr * yi + di * yr;
                    }
                }
            }
            if (rng.uniform() < 0.01) {
                for (std::size_t i = 0; i < kDim; ++i) {
                    if ((i & st) == 0) {
                        std::swap(re[i], re[i | st]);
                        std::swap(im[i], im[i | st]);
                    }
                }
            }
        }
        double norm = 0.0;
        for (std::size_t i = 0; i < kDim; ++i) {
            norm += re[i] * re[i] + im[i] * im[i];
        }
        const double r = rng.uniform() * norm;
        double cumulative = 0.0;
        std::size_t k = 0;
        for (; k + 1 < kDim; ++k) {
            cumulative += re[k] * re[k] + im[k] * im[k];
            if (cumulative > r) {
                break;
            }
        }
        outcomes += k;
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + outcomes;
    return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace perfbench
