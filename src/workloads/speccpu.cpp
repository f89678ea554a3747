#include "workloads/speccpu.h"

#include <algorithm>
#include <vector>

#include "simcore/rng.h"

namespace asman::workloads {

using guest::Op;

SpecCpuParams spec_gcc_params(std::uint64_t rounds) {
  SpecCpuParams p;
  p.work_per_copy = sim::kDefaultClock.from_seconds_f(2.2);
  p.rounds = rounds;
  // 176.gcc chases pointers over IR trees: ~1.5 MB hot set per copy with
  // decent reuse once resident.
  p.footprint = hw::memsys::make_footprint(
      static_cast<std::uint64_t>(p.copies) * 1536 * 1024, 2'000'000'000ULL,
      650);
  return p;
}

SpecCpuParams spec_bzip2_params(std::uint64_t rounds) {
  SpecCpuParams p;
  p.work_per_copy = sim::kDefaultClock.from_seconds_f(2.8);
  p.rounds = rounds;
  // 256.bzip2 streams ~900 KB blocks per copy through sort buffers: large
  // effective set, weak reuse across blocks.
  p.footprint = hw::memsys::make_footprint(
      static_cast<std::uint64_t>(p.copies) * 2048 * 1024, 3'000'000'000ULL,
      400);
  return p;
}

struct SpecCpuRateWorkload::Shared {
  SpecCpuParams p;
  sim::Simulator* sim{nullptr};
  Workload* log{nullptr};  // the owner; a round ends with its slowest copy
  std::vector<std::uint64_t> copy_round;  // rounds finished per copy
};

namespace {

class CopyProgram final : public guest::ThreadProgram {
 public:
  CopyProgram(SpecCpuRateWorkload::Shared& sh, std::uint32_t copy,
              std::uint64_t seed)
      : sh_(sh), copy_(copy), rng_(seed) {}

  const char* name() const override { return "spec-copy"; }

  Op next() override {
    const SpecCpuParams& p = sh_.p;
    if (remaining_.v == 0) {
      if (started_) {
        // Round boundary for this copy.
        sh_.copy_round[copy_] += 1;
        const std::uint64_t r = sh_.copy_round[copy_];
        const bool round_complete = std::all_of(
            sh_.copy_round.begin(), sh_.copy_round.end(),
            [r](std::uint64_t c) { return c >= r; });
        if (round_complete && sh_.log->rounds_completed() + 1 == r)
          sh_.log->record_round(*sh_.sim);
        if (r >= p.rounds) return Op::done();
      }
      started_ = true;
      remaining_ = p.work_per_copy;
    }
    const double len = rng_.positive_jitter(
        static_cast<double>(p.chunk.v), p.chunk_cv);
    Cycles c{static_cast<std::uint64_t>(len)};
    if (c > remaining_) c = remaining_;
    remaining_ -= c;
    return Op::compute(c);
  }

 private:
  SpecCpuRateWorkload::Shared& sh_;
  std::uint32_t copy_;
  sim::Rng rng_;
  Cycles remaining_{0};
  bool started_{false};
};

}  // namespace

SpecCpuRateWorkload::SpecCpuRateWorkload(sim::Simulator& simulation,
                                         std::string workload_name,
                                         SpecCpuParams params,
                                         std::uint64_t seed)
    : sim_(simulation),
      name_(std::move(workload_name)),
      params_(params),
      seed_(seed),
      shared_(std::make_unique<Shared>()) {
  shared_->p = params_;
  shared_->sim = &sim_;
  shared_->log = this;
  shared_->copy_round.assign(params_.copies, 0);
}

SpecCpuRateWorkload::~SpecCpuRateWorkload() = default;

void SpecCpuRateWorkload::deploy(guest::GuestKernel& g) {
  sim::SplitMix64 seeds(seed_);
  for (std::uint32_t c = 0; c < params_.copies; ++c)
    g.spawn(std::make_unique<CopyProgram>(*shared_, c, seeds.next()),
            c % g.num_vcpus());
}

}  // namespace asman::workloads
