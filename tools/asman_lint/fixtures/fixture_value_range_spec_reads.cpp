// Spec reads that are not a bare field name: a value held by
// clamp_to_bounds and a Vm::num_vcpus() count. Each narrowing store below
// escapes only once the analyzer bounds both operands from the bounds spec,
// so each of the two findings proves the read; the uint64_t ledger twin is
// silent. tests/lint_test.cpp pins both.
#include <cstdint>

namespace fixture {

namespace field {
inline constexpr char weight[] = "weight";
}  // namespace field

template <typename T>
T clamp_to_bounds(const char* name, T v);

struct Vm {
  std::uint32_t weight{256};
  std::uint32_t num_vcpus() const;
};

// (a) clamp_to_bounds yields weight's interval, so the VCPU-weight product
// reaches 4096 x 65536 = 2^28 and the uint16_t store truncates.
std::uint16_t clamped_weight_load(std::uint32_t raw, std::uint32_t n_vcpus) {
  const std::uint32_t weight = clamp_to_bounds(field::weight, raw);
  return static_cast<std::uint16_t>(static_cast<std::uint64_t>(n_vcpus) *
                                    weight);
}

// (b) num_vcpus() reads as n_vcpus: the same 2^28 corner.
std::uint16_t vm_weight_load(const Vm& v) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint64_t>(v.num_vcpus()) * v.weight);
}

// The ledger shape itself fits its uint64_t.
std::uint64_t vm_weighted_vcpus(const Vm& v) {
  const std::uint64_t weighted_vcpus =
      static_cast<std::uint64_t>(v.num_vcpus()) * v.weight;
  return weighted_vcpus;
}

}  // namespace fixture
