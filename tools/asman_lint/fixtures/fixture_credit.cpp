// Seeded-violation fixture for the `integer-credit` check: credit math that
// drifts off the __int128-widened integer discipline. Never compiled into
// any target. Expected findings:
//   - 1x unwidened kCreditPerSlot multiply (total_mint)
//   - 2x in decay(): a float expression stored to a credit field, plus the
//     static_cast<double> narrowing-out of a credit quantity
//   - 3x narrowing cast of a credit quantity to int/short (percent*)
// decay() additionally trips `audit-seam` (a credit write outside the
// audited accounting paths), which lint_test pins down too.
#include <cstdint>

namespace fixture {

using Credit = std::int64_t;
inline constexpr Credit kCreditPerSlot = 100'000;

struct Vcpu {
  Credit credit{0};
};

struct Machine {
  std::uint32_t num_pcpus;
  std::uint32_t slots_per_accounting;
};

// planted: int64 product of num_pcpus * kCreditPerSlot * slots overflows
// (UB) inside the valid config space; must be widened through __int128.
Credit total_mint(const Machine& m) {
  return static_cast<Credit>(m.num_pcpus) * kCreditPerSlot *
         m.slots_per_accounting;
}

// planted: floating-point decay reaching a credit store.
void decay(Vcpu& v) {
  v.credit = static_cast<Credit>(0.9 * static_cast<double>(v.credit));
}

// planted: narrowing a credit quantity to int.
int percent(const Vcpu& v) {
  return static_cast<int>(v.credit);
}

// planted: the same narrowing, spelled as a C-style and a functional cast.
int percent_c_style(const Vcpu& v) { return (int)v.credit; }
short percent_functional(const Vcpu& v) { return short(v.credit); }

}  // namespace fixture
