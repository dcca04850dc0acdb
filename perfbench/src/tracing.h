#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

/// @file
/// Per-layer attribution for the traced run, built only from the library's
/// public seams: forwarding decorators around sim::StateBackend,
/// sim::StateArena, dist::Transport and sim::PlanCache time every call into
/// the layer below and count the work it did.  Fine-grained calls are
/// aggregated as (calls, nanoseconds, computed bytes) per probe; coarse
/// spans (item, run, job) carry parent ids, stay in memory and are written
/// out once as Chrome trace-event JSON when the run ends.
///
/// Single-threaded by design: the benchmark pins sim::set_num_threads(1),
/// so every decorated call happens on the thread that runs execute_tree.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/transport.h"
#include "noise/noise_model.h"
#include "sim/plan_cache.h"
#include "sim/segment_plan.h"
#include "sim/state_backend.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Number of sim::SegOpKind values (kIdentity .. kGateFallback).
inline constexpr std::size_t kNumSegOpKinds =
    static_cast<std::size_t>(tqsim::sim::SegOpKind::kGateFallback) + 1;

/// Metric-name spelling of a SegOpKind ("dense1q", "diag_batch", ...).
const char* seg_op_kind_name(tqsim::sim::SegOpKind kind);

/// Share of the state's amplitudes one op of @p kind reads and writes —
/// the model behind the "computed bytes" figures (a cphase touches the
/// |11> quarter, a controlled-U the control-set half, and so on).
double seg_op_touched_fraction(tqsim::sim::SegOpKind kind);

/// Calls, time and computed bytes of one probe.
struct Slot
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t bytes = 0;

    void
    add(std::int64_t elapsed_ns, std::uint64_t computed_bytes = 0)
    {
        ++calls;
        ns += static_cast<std::uint64_t>(elapsed_ns);
        bytes += computed_bytes;
    }
    double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/// A coarse span: [start, end) on the steady clock, caused by @p parent.
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Aggregated probe counters plus the span list of one traced run.
struct Recorder
{
    // sim layer
    std::array<Slot, kNumSegOpKinds> apply_op{};
    Slot apply_gate;
    Slot prepare;
    Slot snapshot;
    Slot make_root;
    Slot sample;
    Slot compile;
    Slot state_io;  ///< export/import of amplitudes (prefix-cache traffic)
    Slot other;     ///< digest, norm, reset
    // noise layer
    Slot kraus_prob;
    Slot kraus_apply;
    Slot renormalize;
    /// Channel applications implied by the noisy ops the backend executed
    /// (the model's attachment rule applied to each observed noisy op).
    std::uint64_t channel_applications = 0;
    // dist layer
    Slot gather;
    Slot scatter;
    std::uint64_t comm_bytes = 0;
    std::uint64_t comm_messages = 0;
    // core layer, timed around the benchmark's own calls
    Slot plan;     ///< core::plan
    Slot execute;  ///< core::execute_tree, whole call

    std::vector<Span> spans;

    /// Opens a span and returns its id.
    std::uint64_t begin_span(std::string name, std::uint64_t parent = 0);
    /// Closes span @p id.
    void end_span(std::uint64_t id);

    /// Summed time of every call the executor made into a decorated seam
    /// (backend, arena, plan cache).  Transport time is nested inside
    /// apply_op and is not added again.
    std::uint64_t child_ns() const;

    /// Adds @p other's counters into this recorder (spans are not moved).
    void merge_counters(const Recorder& other);

    /// Writes the spans as Chrome trace-event JSON to @p path.  Returns
    /// false when the file cannot be written.
    bool write_trace(const std::string& path) const;
};

/// Forwarding dist::Transport: times gather/scatter and counts the payload
/// each pass moves.  The sharded backend accounts passes on *this* object
/// (Transport::account_pass), so ExecStats' comm counters come from here.
class TracingTransport final : public tqsim::dist::Transport
{
  public:
    TracingTransport(tqsim::dist::Transport& inner, Recorder& rec)
        : inner_(&inner), rec_(&rec)
    {
    }

    const char* name() const override { return inner_->name(); }
    void gather_slices(const std::vector<tqsim::sim::StateVector>& slices,
                       const std::vector<int>& members,
                       tqsim::sim::StateVector& staging,
                       tqsim::sim::Index slice_dim) override;
    void scatter_slices(const tqsim::sim::StateVector& staging,
                        const std::vector<int>& members,
                        std::vector<tqsim::sim::StateVector>& slices,
                        tqsim::sim::Index slice_dim) override;

  private:
    tqsim::dist::Transport* inner_;
    Recorder* rec_;
};

/// Forwarding sim::PlanCache that never serves a plan: the executor
/// compiles every level between lookup() and insert(), and the gap is the
/// compile time.
class TracingPlanCache final : public tqsim::sim::PlanCache
{
  public:
    explicit TracingPlanCache(Recorder& rec) : rec_(&rec) {}

    std::shared_ptr<const tqsim::sim::CompiledSegment> lookup(
        std::size_t level) override;
    void insert(std::size_t level,
                std::shared_ptr<const tqsim::sim::CompiledSegment> plan)
        override;

  private:
    Recorder* rec_;
    std::int64_t lookup_ns_ = 0;
};

/// Forwarding sim::StateBackend over @p inner.  Every executor-facing call
/// is timed into the recorder; prepare() wraps the inner plan so apply_op
/// can attribute each call to its op kind via PreparedSegment::source().
class TracingBackend final : public tqsim::sim::StateBackend
{
  public:
    TracingBackend(tqsim::sim::StateBackend& inner,
                   const tqsim::noise::NoiseModel& model, Recorder& rec)
        : inner_(&inner), model_(&model), rec_(&rec)
    {
    }

    const char* name() const override { return inner_->name(); }
    int num_qubits() const override { return inner_->num_qubits(); }
    std::uint64_t state_bytes() const override
    {
        return inner_->state_bytes();
    }
    std::unique_ptr<tqsim::sim::StateArena> make_arena(
        bool use_pool) override;
    std::unique_ptr<tqsim::sim::PreparedSegment> prepare(
        const tqsim::sim::CompiledSegment& segment) override;
    void apply_op(tqsim::sim::BackendState& state,
                  const tqsim::sim::PreparedSegment& segment,
                  std::size_t op_index) override;
    void apply_gate(tqsim::sim::BackendState& state,
                    const tqsim::sim::Gate& gate) override;
    double kraus_probability(const tqsim::sim::BackendState& state,
                             const int* qubits, int arity,
                             const tqsim::sim::Matrix& k) const override;
    void apply_matrix(tqsim::sim::BackendState& state, const int* qubits,
                      int arity, const tqsim::sim::Matrix& m) override;
    void scale(tqsim::sim::BackendState& state,
               tqsim::sim::Complex factor) override;
    tqsim::sim::Index sample_once(const tqsim::sim::BackendState& state,
                                  tqsim::util::Rng& rng) const override;
    void export_amplitudes(
        const tqsim::sim::BackendState& state,
        std::vector<tqsim::sim::Complex>* out) const override;
    void import_amplitudes(
        tqsim::sim::BackendState& state,
        const std::vector<tqsim::sim::Complex>& amps) override;
    void reset_state(tqsim::sim::BackendState& state) override;
    std::uint64_t state_digest(
        const tqsim::sim::BackendState& state) const override;
    double norm_squared(
        const tqsim::sim::BackendState& state) const override;
    void set_integrity(const tqsim::util::IntegrityOptions& options) override
    {
        inner_->set_integrity(options);
    }
    void reset_comm_stats() override { inner_->reset_comm_stats(); }
    tqsim::sim::CommCounters comm_stats() const override
    {
        return inner_->comm_stats();
    }

  private:
    tqsim::sim::StateBackend* inner_;
    const tqsim::noise::NoiseModel* model_;
    Recorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
