#include "workloads/phase_model.h"

#include <cassert>

namespace asman::workloads {

using guest::Op;

struct PhaseWorkload::Shared {
  PhaseParams p;
  sim::Simulator* sim{nullptr};
  Workload* log{nullptr};  // the owner, whose round log this fills
  std::uint32_t global_barrier{0};
  std::vector<std::uint32_t> neighbor;  // parties-2 pipeline barriers
  std::uint32_t round_arrivals{0};  // threads that finished the current round
};

namespace {

/// Per-thread op stream for the phase model. The state machine walks:
/// [compute, sync...] x steps, then the round boundary (global barrier +
/// bookkeeping), for `rounds` rounds, then Done.
class PhaseProgram final : public guest::ThreadProgram {
 public:
  PhaseProgram(PhaseWorkload::Shared& sh, std::uint32_t tid,
               std::uint64_t seed)
      : sh_(sh), tid_(tid), rng_(seed) {}

  const char* name() const override { return "phase"; }

  Op next() override {
    const PhaseParams& p = sh_.p;
    for (;;) {
      switch (stage_) {
        case Stage::kCompute: {
          stage_ = Stage::kSyncLeft;
          const double len = rng_.positive_jitter(
              static_cast<double>(p.compute_mean.v), p.compute_cv);
          return Op::compute(Cycles{static_cast<std::uint64_t>(len)});
        }
        case Stage::kSyncLeft:
          stage_ = Stage::kSyncRight;
          if (p.sync == PhaseParams::Sync::kNeighborChain && tid_ > 0)
            return Op::barrier(sh_.neighbor[tid_ - 1]);
          continue;
        case Stage::kSyncRight:
          stage_ = Stage::kSyncGlobal;
          if (p.sync == PhaseParams::Sync::kNeighborChain &&
              tid_ + 1 < p.threads)
            return Op::barrier(sh_.neighbor[tid_]);
          continue;
        case Stage::kSyncGlobal: {
          stage_ = Stage::kAdvance;
          const bool global =
              p.sync == PhaseParams::Sync::kBarrierAll ||
              (p.sync == PhaseParams::Sync::kNeighborChain &&
               p.global_barrier_every != 0 &&
               (step_ + 1) % p.global_barrier_every == 0);
          if (global) return Op::barrier(sh_.global_barrier);
          continue;
        }
        case Stage::kAdvance:
          ++step_;
          if (step_ < p.steps) {
            stage_ = Stage::kCompute;
            continue;
          }
          step_ = 0;
          stage_ = Stage::kRoundBarrier;
          continue;
        case Stage::kRoundBarrier:
          stage_ = Stage::kRoundEnd;
          return Op::barrier(sh_.global_barrier);
        case Stage::kRoundEnd:
          // All threads passed the round barrier; the last one through
          // timestamps the round.
          if (++sh_.round_arrivals == sh_.p.threads) {
            sh_.round_arrivals = 0;
            sh_.log->record_round(*sh_.sim);
          }
          ++round_;
          if (round_ < p.rounds) {
            stage_ = Stage::kCompute;
            continue;
          }
          return Op::done();
      }
    }
  }

 private:
  enum class Stage : std::uint8_t {
    kCompute,
    kSyncLeft,
    kSyncRight,
    kSyncGlobal,
    kAdvance,
    kRoundBarrier,
    kRoundEnd,
  };

  PhaseWorkload::Shared& sh_;
  std::uint32_t tid_;
  sim::Rng rng_;
  Stage stage_{Stage::kCompute};
  std::uint64_t step_{0};
  std::uint64_t round_{0};
};

}  // namespace

PhaseWorkload::PhaseWorkload(sim::Simulator& simulation,
                             std::string workload_name, PhaseParams params,
                             std::uint64_t seed)
    : sim_(simulation),
      name_(std::move(workload_name)),
      params_(params),
      seed_(seed),
      shared_(std::make_unique<Shared>()) {
  shared_->p = params_;
  shared_->sim = &sim_;
  shared_->log = this;
}

PhaseWorkload::~PhaseWorkload() = default;

void PhaseWorkload::deploy(guest::GuestKernel& g) {
  assert(params_.threads >= 1);
  shared_->global_barrier =
      g.create_barrier(params_.threads, params_.global_pure_spin);
  if (params_.sync == PhaseParams::Sync::kNeighborChain) {
    shared_->neighbor.clear();
    for (std::uint32_t i = 0; i + 1 < params_.threads; ++i)
      shared_->neighbor.push_back(
          g.create_barrier(2, params_.neighbor_pure_spin));
  }
  sim::SplitMix64 seeds(seed_);
  for (std::uint32_t t = 0; t < params_.threads; ++t) {
    g.spawn(std::make_unique<PhaseProgram>(*shared_, t, seeds.next()),
            t % g.num_vcpus());
  }
}

}  // namespace asman::workloads
