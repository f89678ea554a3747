// asman-lint end-to-end tests (ctest label: lint).
//
// Runs the built asman_lint binary over the seeded-violation fixtures in
// tools/asman_lint/fixtures/ and asserts the contract from docs/MODEL.md
// "Static guarantees":
//   - every planted violation fires (100% fixture detection),
//   - the clean fixture and the real src/ tree produce zero errors,
//   - the allow(...) escape hatch suppresses with a visible ledger and the
//     --max-allows budget trips when exceeded.
//
// ASMAN_LINT_BIN / ASMAN_LINT_ROOT are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace {

namespace fs = std::filesystem;

struct LintRun {
  int exit_code;
  std::string output;  // stdout + stderr, interleaved
};

LintRun run_lint(const std::string& args,
                 const std::string& root = ASMAN_LINT_ROOT) {
  const std::string cmd =
      std::string(ASMAN_LINT_BIN) + " --root " + root + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return {-1, {}};
  std::string out;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    out.append(buf.data(), n);
  const int status = pclose(pipe);
  // popen children terminate normally here; WEXITSTATUS without WIFEXITED
  // guarding would mask a crash as a weird exit code, so keep both visible.
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -status;
  return {code, out};
}

std::string fixture(const char* name) {
  return std::string(ASMAN_LINT_ROOT) + "/tools/asman_lint/fixtures/" + name;
}

int count_of(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++count;
  return count;
}

/// A fresh lint root under the test temp dir, holding an empty src/.
fs::path fresh_root(const char* name) {
  const fs::path root = fs::path(::testing::TempDir()) / name;
  fs::remove_all(root);
  fs::create_directories(root / "src");
  return root;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << text;
}

TEST(LintCli, ListsAllNineChecks) {
  const LintRun r = run_lint("--list-checks");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("determinism"), std::string::npos);
  EXPECT_NE(r.output.find("ordered-iteration"), std::string::npos);
  EXPECT_NE(r.output.find("integer-credit"), std::string::npos);
  EXPECT_NE(r.output.find("audit-seam"), std::string::npos);
  EXPECT_NE(r.output.find("credit-flow"), std::string::npos);
  EXPECT_NE(r.output.find("state-machine"), std::string::npos);
  EXPECT_NE(r.output.find("thread-safety"), std::string::npos);
  EXPECT_NE(r.output.find("rng-discipline"), std::string::npos);
  EXPECT_NE(r.output.find("value-range"), std::string::npos);
}

TEST(LintCli, RejectsUnknownCheck) {
  const LintRun r = run_lint("--check no-such-check " + fixture("fixture_clean.cpp"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown check"), std::string::npos);
}

TEST(LintCli, RejectsMalformedBudgetAndRetiredFlags) {
  const std::string clean = " " + fixture("fixture_clean.cpp");
  // The budget is a whole non-negative number or nothing.
  for (const char* bad : {"abc", "5x", "-1"}) {
    const LintRun r =
        run_lint(std::string("--max-allows ") + bad + clean);
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
  const LintRun ok = run_lint("--max-allows 0" + clean);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("(budget 0)"), std::string::npos) << ok.output;
  // Flags of the retired clang engine and compile-database mode are
  // unknown now.
  for (const char* gone : {"--engine ast", "-p build", "--prefix src/", "-q"}) {
    const LintRun r = run_lint(std::string(gone) + clean);
    EXPECT_EQ(r.exit_code, 2) << gone << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

TEST(LintDeterminism, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r = run_lint(fixture("fixture_determinism.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[determinism]"), 14) << r.output;
  // One assertion per planted construct, so a regression names its victim.
  EXPECT_NE(r.output.find("#include <random>"), std::string::npos);
  EXPECT_NE(r.output.find("#include <ctime>"), std::string::npos);
  EXPECT_NE(r.output.find("'rand'"), std::string::npos);
  EXPECT_NE(r.output.find("'srand'"), std::string::npos);
  EXPECT_NE(r.output.find("'random_device'"), std::string::npos);
  EXPECT_NE(r.output.find("wall-clock call 'time()'"), std::string::npos);
  EXPECT_NE(r.output.find("'system_clock'"), std::string::npos);
  EXPECT_NE(r.output.find("'getenv'"), std::string::npos);
  EXPECT_NE(r.output.find("comparing object addresses"), std::string::npos);
  EXPECT_NE(r.output.find("std::less over a pointer type"), std::string::npos);
  EXPECT_NE(r.output.find("'uintptr_t'"), std::string::npos);
  // libc random() through the global qualifier, a wall clock laundered
  // through a #define (flagged at the define), and two pointer-typed
  // parameters compared with '<'.
  EXPECT_NE(r.output.find("fixture_determinism.cpp:53: [determinism] "
                          "'random'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_determinism.cpp:58: [determinism] "
                          "wall-clock call 'time()'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_determinism.cpp:63: [determinism] "
                          "relational comparison of pointers"),
            std::string::npos)
      << r.output;
}

TEST(LintOrderedIteration, FixtureFiresOnEveryPlantedLoop) {
  const LintRun r = run_lint(fixture("fixture_ordered_iter.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[ordered-iteration]"), 3) << r.output;
  EXPECT_NE(r.output.find("'residency'"), std::string::npos);  // range-for
  EXPECT_NE(r.output.find("'hot'"), std::string::npos);      // via alias
  EXPECT_NE(r.output.find("'pending'"), std::string::npos);  // iterator loop
}

TEST(LintIntegerCredit, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r = run_lint(fixture("fixture_credit.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[integer-credit]"), 6) << r.output;
  EXPECT_NE(r.output.find("credit-scale multiply without __int128"),
            std::string::npos);
  EXPECT_NE(r.output.find("floating point reaching credit store"),
            std::string::npos);
  EXPECT_EQ(count_of(r.output, "narrowing cast of credit quantity"), 4)
      << r.output;
  // (int)v.credit and short(v.credit): the C-style and functional casts.
  EXPECT_NE(r.output.find("fixture_credit.cpp:44: [integer-credit] "
                          "narrowing cast"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_credit.cpp:45: [integer-credit] "
                          "narrowing cast"),
            std::string::npos)
      << r.output;
  // The rogue credit write in decay() is also an audit-seam breach, and the
  // flow-sensitive credit-flow check sees the same store as unsaturated.
  EXPECT_EQ(count_of(r.output, "[audit-seam]"), 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[credit-flow]"), 1) << r.output;
}

TEST(LintAuditSeam, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r = run_lint(fixture("fixture_audit_seam.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[audit-seam]"), 4) << r.output;
  EXPECT_NE(r.output.find("direct VcpuState write in "
                          "'fixture::Hypervisor::rogue_block'"),
            std::string::npos);
  EXPECT_NE(r.output.find("direct run-queue remove"), std::string::npos);
  EXPECT_NE(r.output.find("direct run-queue push"), std::string::npos);
  EXPECT_NE(r.output.find("direct credit write in "
                          "'fixture::Hypervisor::rogue_grant'"),
            std::string::npos);
  // rogue_grant's unsaturated self-delta is also a credit-flow breach.
  EXPECT_EQ(count_of(r.output, "[credit-flow]"), 1) << r.output;
}

TEST(LintCreditFlow, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r =
      run_lint("--check credit-flow " + fixture("fixture_credit_flow.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[credit-flow]"), 5) << r.output;
  EXPECT_NE(r.output.find("fixture_credit_flow.cpp:30"), std::string::npos);
  EXPECT_NE(r.output.find("unsaturated credit delta"), std::string::npos);
  EXPECT_NE(r.output.find("fixture_credit_flow.cpp:36"), std::string::npos);
  EXPECT_NE(r.output.find("credit zero-drain reachable without kDestroyed"),
            std::string::npos);
  EXPECT_NE(r.output.find("fixture_credit_flow.cpp:44"), std::string::npos);
  EXPECT_NE(r.output.find("fixture_credit_flow.cpp:54"), std::string::npos);
  EXPECT_NE(r.output.find("fixture_credit_flow.cpp:71"), std::string::npos);
  EXPECT_EQ(count_of(r.output,
                     "credit redistribution can escape without audit_minted"),
            3)
      << r.output;
  // Each message names its witness's way out.
  EXPECT_NE(r.output.find("leaves the function through an early `return`"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("leaves the function through a `throw`"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("leaves the function through a `continue` that "
                          "falls out of the loop"),
            std::string::npos)
      << r.output;
  // Findings carry witness paths: the early return, the throw and the
  // do-while continue each show the escaping edge, ending at the function
  // exit on that function's closing-brace line (48, 58, 75).
  EXPECT_NE(r.output.find("path: line 45: return ;\n"
                          "    path: line 48: function exit"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("throw std :: runtime_error"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("path: line 58: function exit"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("path: line 72: continue ;\n"
                          "    path: line 74: while ( -- n > 0 )\n"
                          "    path: line 75: function exit"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(count_of(r.output, "function exit"), 3) << r.output;
}

TEST(LintContention, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r = run_lint(fixture("fixture_contention.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Three un-audited pressure-ledger writes (the float charge is one of
  // them), one float reaching the slowdown math, one hash-order loop whose
  // order escapes into the grant vector.
  EXPECT_EQ(count_of(r.output, "[audit-seam]"), 3) << r.output;
  EXPECT_EQ(count_of(r.output, "[integer-credit]"), 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[ordered-iteration]"), 1) << r.output;
  EXPECT_NE(r.output.find("direct pressure-ledger write in "
                          "'fixture::Hypervisor::rogue_degrade'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'fixture::Hypervisor::rogue_forgive'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("floating point reaching credit store "
                          "'pressure_degraded'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'llc_demand_'"), std::string::npos) << r.output;
}

TEST(LintCreditFlow, TrickyLegalShapesStaySilent) {
  const LintRun r = run_lint(fixture("fixture_credit_flow_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 0 suppression(s)"), std::string::npos)
      << r.output;
}

TEST(LintStateMachine, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r =
      run_lint("--check state-machine " + fixture("fixture_state_machine.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[state-machine]"), 3) << r.output;
  // Each violation names the (from, to) pair against the shared spec.
  EXPECT_NE(r.output.find("illegal VcpuState transition kRunning -> "
                          "kDestroyed"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("illegal VcpuState transition kRunning -> "
                          "kBlocked"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("illegal VcpuState transition kDestroyed -> "
                          "kRunnable"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_state_machine.cpp:23"), std::string::npos);
  EXPECT_NE(r.output.find("fixture_state_machine.cpp:31"), std::string::npos);
  EXPECT_NE(r.output.find("fixture_state_machine.cpp:39"), std::string::npos);
  // Evidence traces explain HOW the from-state became known.
  EXPECT_NE(r.output.find("assert established v.state == kRunning"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("set_state left v.state == kRunning"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("case label established v.state == kDestroyed"),
            std::string::npos)
      << r.output;
}

// The same check also verifies the cluster live-migration FSM against its
// own shared spec (src/cluster/migration_spec.h) — one analysis, two
// machines. All three planted illegal set_phase sites must fire.
TEST(LintStateMachine, ClusterFixtureFiresOnEveryPlantedViolation) {
  const LintRun r =
      run_lint("--check state-machine " + fixture("fixture_cluster.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[state-machine]"), 3) << r.output;
  EXPECT_NE(r.output.find("illegal MigrationPhase transition kIdle -> "
                          "kCommit"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("illegal MigrationPhase transition kCommit -> "
                          "kPreCopy"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("illegal MigrationPhase transition kAbort -> "
                          "kStopAndCopy"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("kLegalMigrationTransitions, "
                          "src/cluster/migration_spec.h"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_cluster.cpp:24"), std::string::npos);
  EXPECT_NE(r.output.find("fixture_cluster.cpp:33"), std::string::npos);
  EXPECT_NE(r.output.find("fixture_cluster.cpp:41"), std::string::npos);
  // Evidence traces explain HOW the from-phase became known.
  EXPECT_NE(r.output.find("assert established m.phase == kIdle"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("set_phase left m.phase == kCommit"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("case label established m.phase == kAbort"),
            std::string::npos)
      << r.output;
}

TEST(LintStateMachine, LegalChainsAndInvalidationStaySilent) {
  const LintRun r = run_lint(fixture("fixture_state_machine_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 0 suppression(s)"), std::string::npos)
      << r.output;
}

// The rule is a must-analysis over the CFG: a merge keeps the facts every
// incoming path proves (both branches leave kBlocked), and a guard's else
// edge knows what its `!=` excluded.
TEST(LintStateMachine, MergesKeepWhatEveryPathProves) {
  const LintRun r = run_lint("--check state-machine " +
                             fixture("fixture_state_machine_flow.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[state-machine]"), 2) << r.output;
  EXPECT_EQ(count_of(r.output,
                     "illegal VcpuState transition kBlocked -> kRunning"),
            2)
      << r.output;
  EXPECT_NE(r.output.find("fixture_state_machine_flow.cpp:27:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_state_machine_flow.cpp:35:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("set_state left v.state == kBlocked"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("guard established v.state == kBlocked"),
            std::string::npos)
      << r.output;
}

// The shipped seams stay proved: in a copy of src/, flip the target state
// of one real set_state/set_phase call at a time; the rule must name the
// illegal transition at that line.
TEST(LintStateMachine, ShippedSeamsStayProved) {
  struct Site {
    const char* name;
    const char* file;
    const char* shipped;  // ends on the setter call's line
    const char* flipped;
    const char* transition;
  };
  const Site sites[] = {
      {"drain_vcpu", "src/vmm/lifecycle.cpp",
       "if (w.state == VcpuState::kBlocked) set_state(w, "
       "VcpuState::kDestroyed);",
       "if (w.state == VcpuState::kBlocked) set_state(w, "
       "VcpuState::kRunning);",
       "VcpuState transition kBlocked -> kRunning"},
      {"park_vcpu", "src/vmm/migrate.cpp",
       "if (w.state == VcpuState::kRunnable) set_state(w, "
       "VcpuState::kBlocked);",
       "if (w.state == VcpuState::kRunnable) set_state(w, "
       "VcpuState::kRunnable);",
       "VcpuState transition kRunnable -> kRunnable"},
      {"vcpu_kick", "src/vmm/hypervisor.cpp",
       "if (v.state != VcpuState::kBlocked) return;\n"
       "  set_state(v, VcpuState::kRunnable);",
       "if (v.state != VcpuState::kBlocked) return;\n"
       "  set_state(v, VcpuState::kRunning);",
       "VcpuState transition kBlocked -> kRunning"},
      {"vcpu_block", "src/vmm/hypervisor.cpp",
       "(void)removed;\n      set_state(v, VcpuState::kBlocked);",
       "(void)removed;\n      set_state(v, VcpuState::kRunnable);",
       "VcpuState transition kRunnable -> kRunnable"},
      {"go_online", "src/vmm/hypervisor.cpp",
       "set_state(*v, VcpuState::kRunning);",
       "set_state(*v, VcpuState::kRunnable);",
       "VcpuState transition kRunnable -> kRunnable"},
      {"Cluster::commit", "src/cluster/cluster.cpp",
       "set_phase(m, MigrationPhase::kCommit);",
       "set_phase(m, MigrationPhase::kIdle);",
       "MigrationPhase transition kStopAndCopy -> kIdle"},
  };
  const fs::path root = fresh_root("lint_shipped_seams");
  fs::copy(fs::path(ASMAN_LINT_ROOT) / "src", root / "src",
           fs::copy_options::recursive);
  for (const Site& s : sites) {
    const fs::path file = root / s.file;
    const std::string text = read_file(file);
    const std::size_t at = text.find(s.shipped);
    if (at == std::string::npos) {
      ADD_FAILURE() << s.name << ": shipped text not found in " << s.file
                    << ": " << s.shipped;
      continue;
    }
    std::string mutant = text;
    mutant.replace(at, std::strlen(s.shipped), s.flipped);
    write_file(file, mutant);
    const LintRun r = run_lint("--check state-machine", root.string());
    write_file(file, text);
    const auto line =
        1 + std::count(text.begin(),
                       text.begin() + static_cast<std::ptrdiff_t>(
                                          at + std::strlen(s.shipped)),
                       '\n');
    const std::string want = std::string(s.file) + ":" +
                             std::to_string(line) + ": [state-machine] " +
                             "illegal " + s.transition;
    EXPECT_EQ(r.exit_code, 1) << s.name << "\n" << r.output;
    EXPECT_NE(r.output.find(want), std::string::npos)
        << s.name << ": expected " << want << "\n" << r.output;
  }
  fs::remove_all(root);
}

// Without its spec table a rule must fail the run, not verify vacuously:
// one finding per missing table at the header's line 1, filtered by
// --check like every other finding.
TEST(LintSpecs, MissingSpecTablesFailLoudly) {
  const fs::path root = fresh_root("lint_missing_specs");
  fs::copy_file(fixture("fixture_clean.cpp"), root / "src" / "fixture_clean.cpp");
  const LintRun all = run_lint("", root.string());
  EXPECT_EQ(all.exit_code, 1) << all.output;
  EXPECT_EQ(count_of(all.output, "src/vmm/state_spec.h:1: [state-machine] "),
            1)
      << all.output;
  EXPECT_EQ(count_of(all.output,
                     "src/cluster/migration_spec.h:1: [state-machine] "),
            1)
      << all.output;
  EXPECT_EQ(count_of(all.output, "src/core/bounds_spec.h:1: [value-range] "),
            1)
      << all.output;
  EXPECT_EQ(count_of(all.output, "[state-machine]"), 2) << all.output;
  EXPECT_EQ(count_of(all.output, "[value-range]"), 1) << all.output;

  const LintRun vr = run_lint("--check value-range", root.string());
  EXPECT_EQ(vr.exit_code, 1) << vr.output;
  EXPECT_EQ(count_of(vr.output, "src/core/bounds_spec.h:1: [value-range] "), 1)
      << vr.output;
  EXPECT_NE(vr.output.find("asman-lint: 1 error(s)"), std::string::npos)
      << vr.output;
  fs::remove_all(root);
}

TEST(LintThreadSafety, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r = run_lint("--check thread-safety --check rng-discipline " +
                             fixture("fixture_thread_safety.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[thread-safety]"), 3) << r.output;
  EXPECT_EQ(count_of(r.output, "[rng-discipline]"), 1) << r.output;
  // In-lambda sites: unlocked accumulation and a fixed-index write.
  EXPECT_NE(r.output.find("fixture_thread_safety.cpp:28"), std::string::npos);
  EXPECT_NE(r.output.find("assigns captured `total` without a lock"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_thread_safety.cpp:29"), std::string::npos);
  EXPECT_NE(r.output.find("index not derived from the task parameter"),
            std::string::npos)
      << r.output;
  // RNG discipline: shared stream drawn inside the worker.
  EXPECT_NE(r.output.find("fixture_thread_safety.cpp:30"), std::string::npos);
  EXPECT_NE(r.output.find("draws from captured RNG `shared_rng`"),
            std::string::npos)
      << r.output;
  // Cross-TU: the hidden static write two calls deep, with the call chain.
  EXPECT_NE(r.output.find("write to file-scope static `g_total_events`"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("calls fixture::note_event"), std::string::npos)
      << r.output;
}

TEST(LintThreadSafety, SanctionedWorkerPatternsStaySilent) {
  const LintRun r = run_lint(fixture("fixture_thread_safety_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 0 suppression(s)"), std::string::npos)
      << r.output;
}

// The adversary-hardening disciplines: theft/exact-accounting arithmetic
// must stay on the widened-integer rails, and the randomized-sampling
// jitter stream must never be drawn across pool workers.
TEST(LintAdversary, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r = run_lint(fixture("fixture_adversary.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[integer-credit]"), 2) << r.output;
  EXPECT_NE(r.output.find("credit-scale multiply without __int128"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("narrowing cast of credit quantity"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(count_of(r.output, "[rng-discipline]"), 1) << r.output;
  EXPECT_NE(r.output.find("draws from captured RNG `offset_rng`"),
            std::string::npos)
      << r.output;
}

TEST(LintValueRange, FixtureFiresOnEveryPlantedViolation) {
  const LintRun r =
      run_lint("--check value-range " + fixture("fixture_value_range.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[value-range]"), 4) << r.output;
  // (a) decl-initializer overflow of int64: the full product of the
  // credit-pool sizing at the admissible corner, witness per leaf.
  EXPECT_NE(r.output.find("fixture_value_range.cpp:20"), std::string::npos);
  EXPECT_NE(r.output.find("proved interval [100000000000, "
                          "64000000000000000000]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("witness config: freq_hz = 10000000000"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("witness config: slots_per_accounting = 64"),
            std::string::npos)
      << r.output;
  // (b) static_cast<int> narrowing: weight * kCreditPerSlot = 6.5536e9.
  EXPECT_NE(r.output.find("fixture_value_range.cpp:27"), std::string::npos);
  EXPECT_NE(r.output.find("witness config: weight = 65536"),
            std::string::npos)
      << r.output;
  // (c) u32 wrap at 2^36.
  EXPECT_NE(r.output.find("fixture_value_range.cpp:34"), std::string::npos);
  EXPECT_NE(r.output.find("[1024, 68719476736]"), std::string::npos)
      << r.output;
  // (d) plain assignment into a declared int32.
  EXPECT_NE(r.output.find("fixture_value_range.cpp:43"), std::string::npos);
  EXPECT_NE(r.output.find("witness config: shed_level_ppm = 1000000"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("witness config: n_vcpus = 4096"),
            std::string::npos)
      << r.output;
}

TEST(LintValueRange, TrickyLegalShapesStaySilent) {
  // Guard-refined products, std::min clamps, the __int128 widen-then-
  // divide ratio (the contention.cpp shape that once false-positived when
  // the saturation rail leaked through division), loop accumulation, and
  // the saturating_sub discipline: all provably fine or unknowable — zero
  // findings. Scoped to value-range: integer-credit's lexical heuristic
  // still flags the clamped mint here, which is exactly the
  // heuristic-vs-proof gap docs/MODEL.md 5.1 describes.
  const LintRun r = run_lint("--check value-range " +
                             fixture("fixture_value_range_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 0 suppression(s)"), std::string::npos)
      << r.output;
}

TEST(LintValueRange, InterproceduralSummaryCarriesTheOverflow) {
  const LintRun r = run_lint("--check value-range " +
                             fixture("fixture_value_range_interproc.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Exactly one: at the call-site cast. The helper itself fits in i64, and
  // the small-grant control through the same summary machinery is clean.
  EXPECT_EQ(count_of(r.output, "[value-range]"), 1) << r.output;
  EXPECT_NE(r.output.find("fixture_value_range_interproc.cpp:22"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("mint_for"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("witness config: weight = 65536"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("witness config: slots_per_accounting = 64"),
            std::string::npos)
      << r.output;
}

TEST(LintValueRange, JoinAtMergeFindsOneBranchOverflow) {
  const LintRun r = run_lint("--check value-range " +
                             fixture("fixture_value_range_flow.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // One finding: the unguarded boost path survives the join. The guarded
  // twin is silent because `weight < 20'000` refines the multiplier input.
  EXPECT_EQ(count_of(r.output, "[value-range]"), 1) << r.output;
  EXPECT_NE(r.output.find("fixture_value_range_flow.cpp:19"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[1, 6553600000]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("witness config: weight = 65536"),
            std::string::npos)
      << r.output;
}

TEST(LintValueRange, ClampedWeightAndVcpuCountReadFromTheSpec) {
  // The VMM's load ledger multiplies a clamp_to_bounds weight or a
  // Vm::num_vcpus() count by a weight. Both reads must bound from the spec:
  // each planted narrowing is proved at the 2^28 corner, the uint64_t
  // ledger shape stays silent.
  const LintRun r = run_lint("--check value-range " +
                             fixture("fixture_value_range_spec_reads.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[value-range]"), 2) << r.output;
  EXPECT_NE(r.output.find("fixture_value_range_spec_reads.cpp:26"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture_value_range_spec_reads.cpp:32"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(count_of(r.output, "proved interval [1, 268435456]"), 2)
      << r.output;
  EXPECT_EQ(count_of(r.output, "witness config: n_vcpus = 4096"), 2)
      << r.output;
}

TEST(LintCleanFixture, TrickyLegalConstructsStaySilent) {
  const LintRun r = run_lint(fixture("fixture_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 0 suppression(s)"), std::string::npos)
      << r.output;
}

TEST(LintAllow, SuppressionsAreLedgeredAndControlStillFires) {
  const LintRun r = run_lint(fixture("fixture_allow.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;  // the unsuppressed control
  EXPECT_EQ(count_of(r.output, "suppressed by allow(determinism)"), 3)
      << r.output;
  EXPECT_NE(r.output.find("pragma on the line above"), std::string::npos);
  EXPECT_NE(r.output.find("same-line pragma"), std::string::npos);
  EXPECT_NE(r.output.find("allow(all) covers every check"), std::string::npos);
  EXPECT_NE(r.output.find("1 error(s), 3 suppression(s)"), std::string::npos)
      << r.output;
}

TEST(LintAllow, BudgetTripsWhenExceeded) {
  const LintRun r = run_lint("--max-allows 2 " + fixture("fixture_allow.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("suppression budget exceeded (3 > 2)"),
            std::string::npos)
      << r.output;
}

TEST(LintCheckFilter, SingleCheckRunsAlone) {
  const LintRun r =
      run_lint("--check integer-credit " + fixture("fixture_credit.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[integer-credit]"), 6) << r.output;
  EXPECT_EQ(count_of(r.output, "[audit-seam]"), 0) << r.output;
}

// The acceptance gate: the shipped tree (src/ + bench/ + examples/)
// carries zero findings and zero suppressions. The auditor's getenv arming
// switch needs no allow — the confinement proof exempts equality-only
// uses — and no bench reads a host clock.
TEST(LintTree, ShippedTreeIsCleanUnderAllChecks) {
  const LintRun r = run_lint("");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(count_of(r.output, "suppressed by allow("), 0) << r.output;
  // The suppression budget is actual + 2: a new escape can't hide in slack.
  EXPECT_NE(r.output.find("0 error(s), 0 suppression(s) (budget 2)"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("audit arming is host config"), std::string::npos)
      << r.output;
}

// --sarif emits a machine-readable report alongside the console one.
TEST(LintSarif, EmitsResultsWithCodeFlows) {
  const std::string out = std::string(::testing::TempDir()) + "lint_test.sarif";
  const LintRun r = run_lint("--check state-machine --sarif " + out + " " +
                             fixture("fixture_state_machine.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr) << "SARIF file not written: " << out;
  std::string sarif;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), f)) > 0)
    sarif.append(buf.data(), n);
  std::fclose(f);
  std::remove(out.c_str());
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"asman-lint\""), std::string::npos);
  // All nine rules are declared; three results with witness codeFlows.
  EXPECT_NE(sarif.find("\"id\": \"credit-flow\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"thread-safety\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"rng-discipline\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"value-range\""), std::string::npos);
  EXPECT_EQ(count_of(sarif, "\"ruleId\": \"state-machine\""), 3) << sarif;
  EXPECT_EQ(count_of(sarif, "\"codeFlows\""), 3) << sarif;
  EXPECT_NE(sarif.find("fixture_state_machine.cpp"), std::string::npos);
}

// value-range findings ride the same SARIF channel, witness configs as
// codeFlow steps — the CI upload needs no special-casing for the new rule.
TEST(LintSarif, ValueRangeFindingsCarryWitnessCodeFlows) {
  const std::string out =
      std::string(::testing::TempDir()) + "lint_vr_test.sarif";
  const LintRun r = run_lint("--check value-range --sarif " + out + " " +
                             fixture("fixture_value_range.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr) << "SARIF file not written: " << out;
  std::string sarif;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), f)) > 0)
    sarif.append(buf.data(), n);
  std::fclose(f);
  std::remove(out.c_str());
  EXPECT_EQ(count_of(sarif, "\"ruleId\": \"value-range\""), 4) << sarif;
  EXPECT_EQ(count_of(sarif, "\"codeFlows\""), 4) << sarif;
  EXPECT_NE(sarif.find("witness config: freq_hz = 10000000000"),
            std::string::npos)
      << sarif;
}

}  // namespace
