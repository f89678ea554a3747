#include "workloads/kernbench.h"

namespace asman::workloads {

using guest::Op;

struct KernbenchWorkload::Shared {
  KernbenchParams p;
  sim::Simulator* sim{nullptr};
  Workload* log{nullptr};  // the owner: one round per pass
  std::uint32_t join_barrier{0};
  std::uint32_t release_barrier{0};
  std::uint32_t jobs_left{0};
  std::uint64_t compiled{0};
  std::uint32_t release_arrivals{0};
};

namespace {

class MakeWorker final : public guest::ThreadProgram {
 public:
  MakeWorker(KernbenchWorkload::Shared& sh, std::uint32_t worker,
             std::uint64_t seed)
      : sh_(sh), worker_(worker), rng_(seed) {}

  const char* name() const override { return "make-worker"; }

  Op next() override {
    const KernbenchParams& p = sh_.p;
    switch (stage_) {
      case Stage::kPull:
        if (sh_.jobs_left > 0) {
          --sh_.jobs_left;
          ++sh_.compiled;
          const double len = rng_.positive_jitter(
              static_cast<double>(p.job_mean.v), p.job_cv);
          return Op::compute(Cycles{static_cast<std::uint64_t>(len)});
        }
        stage_ = worker_ == 0 ? Stage::kLink : Stage::kWaitRelease;
        return Op::barrier(sh_.join_barrier);
      case Stage::kLink:
        // Worker 0 runs the serial link stage and refills the job queue
        // for the next pass before releasing everyone.
        stage_ = Stage::kWaitRelease;
        sh_.jobs_left = p.jobs_per_pass;
        return Op::compute(p.link_cost);
      case Stage::kWaitRelease:
        stage_ = Stage::kPassEnd;
        return Op::barrier(sh_.release_barrier);
      case Stage::kPassEnd:
        if (++sh_.release_arrivals == p.workers) {
          sh_.release_arrivals = 0;
          sh_.log->record_round(*sh_.sim);
        }
        ++pass_;
        stage_ = Stage::kPull;
        if (pass_ >= sh_.p.passes) return Op::done();
        return next();
    }
    return Op::done();
  }

 private:
  enum class Stage : std::uint8_t { kPull, kLink, kWaitRelease, kPassEnd };
  KernbenchWorkload::Shared& sh_;
  std::uint32_t worker_;
  sim::Rng rng_;
  Stage stage_{Stage::kPull};
  std::uint64_t pass_{0};
};

}  // namespace

KernbenchWorkload::KernbenchWorkload(sim::Simulator& simulation,
                                     KernbenchParams params,
                                     std::uint64_t seed)
    : sim_(simulation),
      params_(params),
      seed_(seed),
      shared_(std::make_unique<Shared>()) {
  shared_->p = params_;
  shared_->sim = &sim_;
  shared_->log = this;
  shared_->jobs_left = params_.jobs_per_pass;
}

KernbenchWorkload::~KernbenchWorkload() = default;

void KernbenchWorkload::deploy(guest::GuestKernel& g) {
  // make's joins are blocking (wait()/pipes): spin-then-sleep barriers.
  shared_->join_barrier = g.create_barrier(params_.workers);
  shared_->release_barrier = g.create_barrier(params_.workers);
  sim::SplitMix64 seeds(seed_);
  for (std::uint32_t w = 0; w < params_.workers; ++w)
    g.spawn(std::make_unique<MakeWorker>(*shared_, w, seeds.next()),
            w % g.num_vcpus());
}

std::uint64_t KernbenchWorkload::work_units() const {
  return shared_->compiled;
}

}  // namespace asman::workloads
