#ifndef PERFBENCH_HOST_REF_H_
#define PERFBENCH_HOST_REF_H_

/// @file
/// Host-speed reference for the timed sections.
///
/// The benchmark host switches between a fast state and states up to ~2x
/// slower, for seconds to minutes at a time.  A small trajectory simulator
/// written here — never the library's code, so it is identical on every
/// commit — slows down in step with the library: over 3,049 alternations
/// with a 1024-shot mul_n11_2 run, the run/reference time ratio had an IQR
/// of 5.6% of its median (the run's own time: 48%), and medians of
/// 60-alternation windows stayed within 2.5% while the run's window
/// medians ranged from 27 to 53 ms.  Each timed operation is therefore
/// preceded by one reference run, and its time is rescaled to what it
/// would have been had the reference taken kReferenceNominalSeconds.

namespace perfbench {

/// Reference time the rescaled figures are expressed at: the reference
/// kernel's median in the fast state of a 4-vCPU Intel Xeon guest, built
/// Release.
inline constexpr double kReferenceNominalSeconds = 1.5e-3;

/// Runs the reference kernel once and returns its wall time in seconds:
/// six trajectories of 150 gates (dense 1q rotations, CNOT swaps, seeded
/// Pauli-X noise) on a 10-qubit state, then one sampled outcome each —
/// about 1.5 ms.
double reference_seconds();

/// @p seconds rescaled by the reference time @p reference_s measured just
/// before it.
inline double
host_scaled(double seconds, double reference_s)
{
    return seconds * kReferenceNominalSeconds / reference_s;
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_REF_H_
