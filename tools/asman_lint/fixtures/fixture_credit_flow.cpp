// Seeded violations for the credit-flow check: every credit mutation here
// breaks one of the three conservation shapes on at least one path.
// tests/lint_test.cpp asserts 100% detection — all five sites flagged.
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace fixture {

using Credit = std::int64_t;
enum class VcpuState : std::uint8_t { kRunning, kRunnable, kBlocked,
                                      kDestroyed };
enum class AuditPoint { kAccountingBegin };

struct Vcpu {
  VcpuState state{VcpuState::kRunnable};
  Credit credit{0};
  std::uint32_t weight{256};
};

void audit_event(AuditPoint);
void audit_minted(int vm, Credit inc);

struct Hypervisor {
  Credit credit_cap_{300'000};

  // (a) unsaturated self-debit: no std::max/std::min against the cap, so
  // a hot VCPU can sink arbitrarily far below -cap between accountings.
  void charge(Vcpu& v, Credit debit) {
    v.credit = v.credit - debit;  // line flagged: unsaturated delta
  }

  // (b) zero-drain without destruction evidence: nothing on the path
  // proves the VCPU is a tombstone, so this silently burns live credit.
  void drain_vcpu(Vcpu& v) {
    v.credit = 0;  // line flagged: no kDestroyed on the entry path
  }

  // (c1) redistribution escaping through an early return before the mint
  // is reported: the conservation ledger never sees this VM's delta.
  void do_accounting(std::vector<Vcpu>& vcpus, Credit per, bool overloaded) {
    audit_event(AuditPoint::kAccountingBegin);
    for (Vcpu& v : vcpus) {
      v.credit = per;  // line flagged: return path skips audit_minted
      if (overloaded) return;
      audit_minted(0, per);
    }
  }

  // (c2) redistribution escaping through a throw path.
  void do_accounting_throwing(std::vector<Vcpu>& vcpus, Credit per) {
    audit_event(AuditPoint::kAccountingBegin);
    for (Vcpu& v : vcpus) {
      v.credit = per;  // line flagged: throw path skips audit_minted
      if (v.weight == 0) throw std::runtime_error("zero-weight VM");
      audit_minted(0, per);
    }
  }
};

}  // namespace fixture

namespace fixture {

// (c3) redistribution escaping through a do-while `continue`: the skip
// jumps to the loop condition, which exits on the last VCPU before the
// mint is reported.
void redistribute_skipping(Vcpu* v, int n, Credit per) {
  audit_event(AuditPoint::kAccountingBegin);
  do {
    v[n].credit = per;  // line flagged: continue path skips audit_minted
    if (v[n].weight == 0) continue;
    audit_minted(0, per);
  } while (--n > 0);
}

}  // namespace fixture
