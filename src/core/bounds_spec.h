// The admissible configuration space: one closed interval per numeric
// field that feeds credit, pressure or sizing arithmetic.
//
// This table is the single source of truth for three consumers:
//   - hw::validate_config() rejects a MachineConfig field outside its
//     interval (kOutOfBounds, naming this file);
//   - the VMM's knob paths hold count knobs inside it (clamp_to_bounds),
//     and compile-time constants are pinned inside it (in_bounds) or to
//     exact entries by static_assert over bounds_of();
//   - asman-lint's value-range rule proves credit and pressure arithmetic
//     overflow-free for every configuration inside it.
//
// The analyzer reads this file lexically (tools/asman_lint/absint.cpp,
// load_bounds_spec): keep every kFieldBounds row in the literal shape
// `{field::<name>, <lo>, <hi>}` with plain integer endpoints.
#pragma once

#include <algorithm>
#include <cstdint>

namespace asman::core {

// Field names are arrays, not pointers: a `const char*` named like a
// credit constant would read as credit arithmetic to asman-lint.
namespace field {
inline constexpr char num_pcpus[] = "num_pcpus";
inline constexpr char freq_hz[] = "freq_hz";
inline constexpr char slot_ms[] = "slot_ms";
inline constexpr char slots_per_accounting[] = "slots_per_accounting";
inline constexpr char slots_per_timeslice[] = "slots_per_timeslice";
inline constexpr char ipi_latency_us[] = "ipi_latency_us";
inline constexpr char cross_llc_penalty_us[] = "cross_llc_penalty_us";
inline constexpr char cross_socket_penalty_us[] = "cross_socket_penalty_us";
inline constexpr char warm_cache_slots[] = "warm_cache_slots";
inline constexpr char llc_bytes[] = "llc_bytes";
inline constexpr char socket_mem_bw_bytes_per_s[] =
    "socket_mem_bw_bytes_per_s";
inline constexpr char weight[] = "weight";
inline constexpr char n_vcpus[] = "n_vcpus";
inline constexpr char ipi_max_retries[] = "ipi_max_retries";
inline constexpr char watchdog_demote_after[] = "watchdog_demote_after";
inline constexpr char flap_limit[] = "flap_limit";
inline constexpr char boost_limit[] = "boost_limit";
inline constexpr char vcrd_min_yields[] = "vcrd_min_yields";
inline constexpr char max_vcpus_per_pcpu[] = "max_vcpus_per_pcpu";
inline constexpr char shed_level_ppm[] = "shed_level_ppm";
inline constexpr char restore_level_ppm[] = "restore_level_ppm";
inline constexpr char kCreditPerSlot[] = "kCreditPerSlot";
inline constexpr char kReferenceWeight[] = "kReferenceWeight";
inline constexpr char kSlowdownPpmPerExtraMissPermille[] =
    "kSlowdownPpmPerExtraMissPermille";
inline constexpr char kMaxSlowdownPpm[] = "kMaxSlowdownPpm";
}  // namespace field

struct FieldBounds {
  const char* name;
  std::int64_t lo;
  std::int64_t hi;
};

inline constexpr FieldBounds kFieldBounds[] = {
    {field::num_pcpus, 1, 1024},
    {field::freq_hz, 1000000, 10000000000},
    {field::slot_ms, 1, 1000},
    {field::slots_per_accounting, 1, 64},
    {field::slots_per_timeslice, 1, 64},
    {field::ipi_latency_us, 0, 1000000},
    {field::cross_llc_penalty_us, 0, 1000000},
    {field::cross_socket_penalty_us, 0, 1000000},
    {field::warm_cache_slots, 0, 64},
    {field::llc_bytes, 0, 1099511627776},
    {field::socket_mem_bw_bytes_per_s, 0, 10000000000000},
    {field::weight, 1, 65536},
    {field::n_vcpus, 1, 4096},
    {field::ipi_max_retries, 0, 16},
    {field::watchdog_demote_after, 1, 1024},
    {field::flap_limit, 1, 1024},
    {field::boost_limit, 0, 1024},
    {field::vcrd_min_yields, 0, 1024},
    {field::max_vcpus_per_pcpu, 0, 64},
    {field::shed_level_ppm, 0, 1000000},
    {field::restore_level_ppm, 0, 1000000},
    {field::kCreditPerSlot, 100000, 100000},
    {field::kReferenceWeight, 256, 256},
    {field::kSlowdownPpmPerExtraMissPermille, 400, 400},
    {field::kMaxSlowdownPpm, 800000, 800000},
};

constexpr bool same_name(const char* a, const char* b) {
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return *a == *b;
}

/// The spec entry named `name`, or nullptr for an unbounded name.
constexpr const FieldBounds* bounds_of(const char* name) {
  for (const FieldBounds& b : kFieldBounds)
    if (same_name(b.name, name)) return &b;
  return nullptr;
}

/// True when `v` lies inside the interval of `name`: the static_assert
/// pin of a constant (an unbounded name does not compile there).
template <typename T>
constexpr bool in_bounds(const char* name, T v) {
  return static_cast<T>(bounds_of(name)->lo) <= v &&
         v <= static_cast<T>(bounds_of(name)->hi);
}

/// `v` held to the interval of `name`; unbounded names pass through.
template <typename T>
T clamp_to_bounds(const char* name, T v) {
  const FieldBounds* b = bounds_of(name);
  if (b == nullptr) return v;
  const auto lo = static_cast<T>(b->lo);
  const auto hi = static_cast<T>(b->hi);
  return std::clamp(v, lo, hi);
}

}  // namespace asman::core
