// Admission control and overload protection for runtime VM lifecycle.
//
// The admission controller bounds the total weighted VCPU load the host
// accepts: a VM contributes num_vcpus x (weight / kReferenceWeight), and
// create_vm / resize_vm requests that would push the per-online-PCPU load
// above `max_vcpus_per_pcpu` are rejected (counted + traced, existing VMs
// untouched). Below the hard cap sits the overload governor: when load
// crosses kShedLevel (0.85) x cap the host sheds coscheduling eligibility
// — every gang falls back to stock credit treatment via the same
// cosched_eligible gate graceful degradation uses — and restores it once
// load falls back to kRestoreLevel (0.60) x cap or below, but no earlier
// than kRestoreBackoffSlots (12) slots after the shed. The three
// constants live in lifecycle.cpp, pinned inside their core/bounds_spec.h
// rows. Fairness (credit shares) is never governed; only the gang
// machinery is shed. See docs/MODEL.md "VM lifecycle & admission".
#pragma once

#include <cstdint>

#include "core/bounds_spec.h"

namespace asman::vmm {

/// Weight that counts as exactly 1.0 VCPU of load per VCPU (Xen's default
/// VM weight). A weight-128 VM's VCPUs each contribute 0.5.
inline constexpr std::uint32_t kReferenceWeight = 256;
// Pinned as an (exact) bounds-spec entry; see src/core/bounds_spec.h.
static_assert(core::bounds_of(core::field::kReferenceWeight)->lo ==
                  kReferenceWeight &&
              core::bounds_of(core::field::kReferenceWeight)->hi ==
                  kReferenceWeight);

struct AdmissionConfig {
  /// Hard cap on weighted VCPUs per *online* PCPU (0 = admission control
  /// and the overload governor are both disabled).
  double max_vcpus_per_pcpu{0.0};
};

}  // namespace asman::vmm
