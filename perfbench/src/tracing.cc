#include "tracing.h"

#include <cstdio>
#include <utility>

namespace perfbench {

namespace sim = tqsim::sim;

const char*
seg_op_kind_name(sim::SegOpKind kind)
{
    switch (kind) {
      case sim::SegOpKind::kIdentity: return "identity";
      case sim::SegOpKind::kDiagBatch: return "diag_batch";
      case sim::SegOpKind::kCPhase: return "cphase";
      case sim::SegOpKind::kDense1q: return "dense1q";
      case sim::SegOpKind::kControlled1q: return "controlled1q";
      case sim::SegOpKind::kDense2q: return "dense2q";
      case sim::SegOpKind::kDense3q: return "dense3q";
      case sim::SegOpKind::kDenseKq: return "dense_kq";
      case sim::SegOpKind::kX: return "x";
      case sim::SegOpKind::kCX: return "cx";
      case sim::SegOpKind::kSwap: return "swap";
      case sim::SegOpKind::kCCX: return "ccx";
      case sim::SegOpKind::kGateFallback: return "gate_fallback";
    }
    return "unknown";
}

double
seg_op_touched_fraction(sim::SegOpKind kind)
{
    switch (kind) {
      case sim::SegOpKind::kIdentity: return 0.0;
      case sim::SegOpKind::kCPhase:
      case sim::SegOpKind::kCCX: return 0.25;
      case sim::SegOpKind::kControlled1q:
      case sim::SegOpKind::kCX:
      case sim::SegOpKind::kSwap: return 0.5;
      default: return 1.0;
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

std::uint64_t
Recorder::begin_span(std::string name, std::uint64_t parent)
{
    Span s;
    s.id = spans.size() + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.start_ns = now_ns();
    spans.push_back(std::move(s));
    return spans.back().id;
}

void
Recorder::end_span(std::uint64_t id)
{
    spans.at(id - 1).end_ns = now_ns();
}

std::uint64_t
Recorder::child_ns() const
{
    std::uint64_t total = apply_gate.ns + prepare.ns + snapshot.ns +
                          make_root.ns + sample.ns + compile.ns +
                          state_io.ns + other.ns + kraus_prob.ns +
                          kraus_apply.ns + renormalize.ns;
    for (const Slot& s : apply_op) {
        total += s.ns;
    }
    return total;
}

namespace {

void
merge_slot(Slot& into, const Slot& from)
{
    into.calls += from.calls;
    into.ns += from.ns;
    into.bytes += from.bytes;
}

}  // namespace

void
Recorder::merge_counters(const Recorder& o)
{
    for (std::size_t k = 0; k < kNumSegOpKinds; ++k) {
        merge_slot(apply_op[k], o.apply_op[k]);
    }
    for (auto [into, from] :
         {std::pair{&apply_gate, &o.apply_gate}, {&prepare, &o.prepare},
          {&snapshot, &o.snapshot}, {&make_root, &o.make_root},
          {&sample, &o.sample}, {&compile, &o.compile},
          {&state_io, &o.state_io}, {&other, &o.other},
          {&kraus_prob, &o.kraus_prob}, {&kraus_apply, &o.kraus_apply},
          {&renormalize, &o.renormalize}, {&gather, &o.gather},
          {&scatter, &o.scatter}, {&plan, &o.plan},
          {&execute, &o.execute}}) {
        merge_slot(*into, *from);
    }
    channel_applications += o.channel_applications;
    comm_bytes += o.comm_bytes;
    comm_messages += o.comm_messages;
}

bool
Recorder::write_trace(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu}}%s\n",
                     s.name.c_str(),
                     static_cast<double>(s.start_ns - origin) * 1e-3,
                     static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void
TracingTransport::gather_slices(const std::vector<sim::StateVector>& slices,
                                const std::vector<int>& members,
                                sim::StateVector& staging,
                                sim::Index slice_dim)
{
    inner_->set_verify(verify_enabled());
    const std::int64_t t0 = now_ns();
    inner_->gather_slices(slices, members, staging, slice_dim);
    const std::uint64_t bytes = members.size() *
                                static_cast<std::uint64_t>(slice_dim) *
                                sizeof(sim::Complex);
    rec_->gather.add(now_ns() - t0, bytes);
    rec_->comm_bytes += bytes;
    rec_->comm_messages += members.size();
}

void
TracingTransport::scatter_slices(const sim::StateVector& staging,
                                 const std::vector<int>& members,
                                 std::vector<sim::StateVector>& slices,
                                 sim::Index slice_dim)
{
    const std::int64_t t0 = now_ns();
    inner_->scatter_slices(staging, members, slices, slice_dim);
    rec_->scatter.add(now_ns() - t0,
                      members.size() * static_cast<std::uint64_t>(slice_dim) *
                          sizeof(sim::Complex));
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

std::shared_ptr<const sim::CompiledSegment>
TracingPlanCache::lookup(std::size_t /*level*/)
{
    lookup_ns_ = now_ns();
    return nullptr;
}

void
TracingPlanCache::insert(std::size_t /*level*/,
                         std::shared_ptr<const sim::CompiledSegment> /*plan*/)
{
    rec_->compile.add(now_ns() - lookup_ns_);
}

// ---------------------------------------------------------------------------
// Backend + arena
// ---------------------------------------------------------------------------

namespace {

/// The inner backend's plan, carried under the same source segment.
class TracedSegment final : public sim::PreparedSegment
{
  public:
    TracedSegment(const sim::CompiledSegment& source,
                  std::unique_ptr<sim::PreparedSegment> inner)
        : sim::PreparedSegment(source), inner_(std::move(inner))
    {
    }

    const sim::PreparedSegment& inner() const { return *inner_; }

  private:
    std::unique_ptr<sim::PreparedSegment> inner_;
};

class TracingArena final : public sim::StateArena
{
  public:
    TracingArena(std::unique_ptr<sim::StateArena> inner, Recorder& rec,
                 std::uint64_t state_bytes)
        : inner_(std::move(inner)), rec_(&rec), state_bytes_(state_bytes)
    {
    }

    std::unique_ptr<sim::BackendState>
    make_root() override
    {
        const std::int64_t t0 = now_ns();
        std::unique_ptr<sim::BackendState> s = inner_->make_root();
        rec_->make_root.add(now_ns() - t0, state_bytes_);
        return s;
    }

    std::unique_ptr<sim::BackendState>
    snapshot(const sim::BackendState& src, bool* from_pool) override
    {
        const std::int64_t t0 = now_ns();
        std::unique_ptr<sim::BackendState> s =
            inner_->snapshot(src, from_pool);
        // A copy reads the source and writes the destination.
        rec_->snapshot.add(now_ns() - t0, 2 * state_bytes_);
        return s;
    }

    void
    recycle(std::unique_ptr<sim::BackendState> state) override
    {
        inner_->recycle(std::move(state));
    }

  private:
    std::unique_ptr<sim::StateArena> inner_;
    Recorder* rec_;
    std::uint64_t state_bytes_;
};

/// Channel applications the noise layer performs after a noisy op of
/// operand count @p arity under @p model (noise/trajectory.cc's attachment
/// rule: 1q gates fire every on_1q channel; multi-qubit gates fire each
/// 2q channel once and each 1q channel once per operand).
std::uint64_t
attached_channels(const tqsim::noise::NoiseModel& model, int arity)
{
    if (arity == 1) {
        return model.on_1q_gates().size();
    }
    std::uint64_t n = 0;
    for (const tqsim::noise::Channel& c : model.on_2q_gates()) {
        n += c.arity() == 2 ? 1U : static_cast<std::uint64_t>(arity);
    }
    return n;
}

}  // namespace

std::unique_ptr<sim::StateArena>
TracingBackend::make_arena(bool use_pool)
{
    return std::make_unique<TracingArena>(inner_->make_arena(use_pool),
                                          *rec_, inner_->state_bytes());
}

std::unique_ptr<sim::PreparedSegment>
TracingBackend::prepare(const sim::CompiledSegment& segment)
{
    const std::int64_t t0 = now_ns();
    std::unique_ptr<sim::PreparedSegment> inner = inner_->prepare(segment);
    rec_->prepare.add(now_ns() - t0);
    return std::make_unique<TracedSegment>(segment, std::move(inner));
}

void
TracingBackend::apply_op(sim::BackendState& state,
                         const sim::PreparedSegment& segment,
                         std::size_t op_index)
{
    const auto& traced = static_cast<const TracedSegment&>(segment);
    const sim::SegOp& op = segment.source().ops()[op_index];
    const std::int64_t t0 = now_ns();
    inner_->apply_op(state, traced.inner(), op_index);
    const std::int64_t dt = now_ns() - t0;
    const double touched = seg_op_touched_fraction(op.kind);
    rec_->apply_op[static_cast<std::size_t>(op.kind)].add(
        dt, static_cast<std::uint64_t>(
                2.0 * touched * static_cast<double>(inner_->state_bytes())));
    if (op.noisy) {
        rec_->channel_applications += attached_channels(*model_, op.arity);
    }
}

void
TracingBackend::apply_gate(sim::BackendState& state, const sim::Gate& gate)
{
    const std::int64_t t0 = now_ns();
    inner_->apply_gate(state, gate);
    rec_->apply_gate.add(now_ns() - t0);
}

double
TracingBackend::kraus_probability(const sim::BackendState& state,
                                  const int* qubits, int arity,
                                  const sim::Matrix& k) const
{
    const std::int64_t t0 = now_ns();
    const double p = inner_->kraus_probability(state, qubits, arity, k);
    rec_->kraus_prob.add(now_ns() - t0, inner_->state_bytes());
    return p;
}

void
TracingBackend::apply_matrix(sim::BackendState& state, const int* qubits,
                             int arity, const sim::Matrix& m)
{
    const std::int64_t t0 = now_ns();
    inner_->apply_matrix(state, qubits, arity, m);
    rec_->kraus_apply.add(now_ns() - t0, 2 * inner_->state_bytes());
}

void
TracingBackend::scale(sim::BackendState& state, sim::Complex factor)
{
    const std::int64_t t0 = now_ns();
    inner_->scale(state, factor);
    rec_->renormalize.add(now_ns() - t0, 2 * inner_->state_bytes());
}

sim::Index
TracingBackend::sample_once(const sim::BackendState& state,
                            tqsim::util::Rng& rng) const
{
    const std::int64_t t0 = now_ns();
    const sim::Index outcome = inner_->sample_once(state, rng);
    rec_->sample.add(now_ns() - t0);
    return outcome;
}

void
TracingBackend::export_amplitudes(const sim::BackendState& state,
                                  std::vector<sim::Complex>* out) const
{
    const std::int64_t t0 = now_ns();
    inner_->export_amplitudes(state, out);
    rec_->state_io.add(now_ns() - t0, 2 * inner_->state_bytes());
}

void
TracingBackend::import_amplitudes(sim::BackendState& state,
                                  const std::vector<sim::Complex>& amps)
{
    const std::int64_t t0 = now_ns();
    inner_->import_amplitudes(state, amps);
    rec_->state_io.add(now_ns() - t0, 2 * inner_->state_bytes());
}

void
TracingBackend::reset_state(sim::BackendState& state)
{
    const std::int64_t t0 = now_ns();
    inner_->reset_state(state);
    rec_->other.add(now_ns() - t0);
}

std::uint64_t
TracingBackend::state_digest(const sim::BackendState& state) const
{
    const std::int64_t t0 = now_ns();
    const std::uint64_t d = inner_->state_digest(state);
    rec_->other.add(now_ns() - t0);
    return d;
}

double
TracingBackend::norm_squared(const sim::BackendState& state) const
{
    const std::int64_t t0 = now_ns();
    const double n = inner_->norm_squared(state);
    rec_->other.add(now_ns() - t0);
    return n;
}

}  // namespace perfbench
