// Seeded-violation fixture for the `determinism` check (never compiled into
// any target; tests/lint_test.cpp runs asman_lint over it and asserts every
// planted violation is reported). Mirrors PR 1's seeded-violation auditor
// tests: each construct below smuggles host state into the simulation.
#include <cstdint>
#include <cstdlib>
#include <ctime>    // planted: nondeterministic header
#include <random>   // planted: nondeterministic header

namespace fixture {

int host_entropy() {
  return rand();  // planted: libc PRNG, unseeded by the simulation
}

void reseed() {
  srand(42);  // planted: global PRNG state
}

unsigned hw_entropy() {
  std::random_device rd;  // planted: hardware entropy source
  return rd();
}

long long wall_seconds() {
  return static_cast<long long>(std::time(nullptr));  // planted: wall clock
}

long long wall_epoch() {
  return std::chrono::system_clock::now().time_since_epoch().count();
  // planted above: system_clock
}

const char* host_config() {
  return std::getenv("FIXTURE_MODE");  // planted: environment read
}

struct Vcpu {
  int id;
};

bool address_order(const Vcpu& a, const Vcpu& b) {
  return &a < &b;  // planted: allocation-layout ordering
}

using PtrOrder = std::less<Vcpu*>;  // planted: ordering by pointer value

std::uint64_t layout_key(const Vcpu* v) {
  return reinterpret_cast<std::uintptr_t>(v);  // planted: pointer-to-int
}

long host_random() {
  return ::random();  // planted: libc PRNG through the global qualifier
}

// planted: a wall-clock call laundered through a macro, flagged at the
// #define (the expansion below carries no banned token of its own).
#define WALL_NOW() ::time(nullptr)

long long wall_via_macro() { return static_cast<long long>(WALL_NOW()); }

bool pointer_order(const Vcpu* a, const Vcpu* b) {
  return a < b;  // planted: ordering by pointer value
}

}  // namespace fixture
