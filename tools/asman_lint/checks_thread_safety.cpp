// thread-safety + rng-discipline: what may a pool worker touch?
//
// The sweep infrastructure runs simulations on simcore::ThreadPool workers
// (ThreadPool::submit / ThreadPool::parallel_for). Each simulation must be
// a pure function of its Scenario + seed, so the whole sweep is
// deterministic AND parallelizable. That holds only if worker lambdas obey
// three disciplines, which this check enforces statically:
//
//   thread-safety  - a worker may not write captured shared state except
//                    (a) element-wise into a container indexed by its own
//                    task parameter, or (b) under an annotated lock
//                    (MutexLock / lock_guard / unique_lock / scoped_lock)
//                    visible in the lambda body. No captured Hypervisor or
//                    Simulator may be touched at all: those are confined to
//                    the task that owns them (the clang tsan lane backs
//                    this with -Wthread-safety on the annotated types).
//   rng-discipline - a worker may not draw from a captured RNG stream;
//                    seeds are split per task BEFORE the fan-out and each
//                    task seeds its own stream (bench::BasicSweep: each
//                    Scenario carries its own seed).
//
// The cross-TU half follows calls out of worker lambdas through the call
// graph: any reachable write to a file-scope mutable static is a hidden
// shared-state channel and is reported with the call chain.
#include <cctype>
#include <string>
#include <vector>

#include "analyzer.h"
#include "flow.h"

namespace asman_lint {

namespace {

std::string lower(const std::string& s) {
  std::string r = s;
  for (char& c : r) c = static_cast<char>(std::tolower(
                        static_cast<unsigned char>(c)));
  return r;
}

bool is_lock_type(const std::string& name) {
  return name == "MutexLock" || name == "lock_guard" ||
         name == "unique_lock" || name == "scoped_lock";
}

bool is_mutating_member(const std::string& name) {
  return name == "push_back" || name == "emplace_back" ||
         name == "pop_back" || name == "insert" || name == "emplace" ||
         name == "erase" || name == "clear" || name == "resize" ||
         name == "assign";
}

struct WorkerLambda {
  std::size_t body_begin{0};  // '{' of the lambda body
  std::size_t body_end{0};    // one past the matching '}'
  int line{0};
  std::vector<std::string> params;
};

/// Lambdas passed to ThreadPool::submit / ThreadPool::parallel_for.
std::vector<WorkerLambda> find_worker_lambdas(const FileUnit& unit) {
  const std::vector<Token>& t = unit.toks;
  std::vector<WorkerLambda> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent ||
        (t[i].text != "submit" && t[i].text != "parallel_for"))
      continue;
    if (!is_punct(t[i + 1], "(")) continue;
    const std::size_t close = match_forward(t, i + 1);
    if (close >= t.size()) continue;
    for (std::size_t j = i + 2; j < close; ++j) {
      // A lambda introducer: '[' in expression position.
      if (!is_punct(t[j], "[")) continue;
      if (j > 0 && (t[j - 1].kind == Tok::kIdent ||
                    is_punct(t[j - 1], "]") || is_punct(t[j - 1], ")")))
        continue;  // subscript, not a capture list
      const std::size_t cap_close = match_forward(t, j);
      if (cap_close >= close) continue;
      WorkerLambda wl;
      wl.line = t[j].line;
      std::size_t k = cap_close + 1;
      if (k < close && is_punct(t[k], "(")) {
        const std::size_t pclose = match_forward(t, k);
        if (pclose >= close) continue;
        // One param per top-level comma; the name is the last identifier.
        std::string last;
        int depth = 0;
        for (std::size_t m = k + 1; m < pclose; ++m) {
          if (t[m].kind == Tok::kPunct) {
            const std::string& x = t[m].text;
            if (x == "(" || x == "<" || x == "[") ++depth;
            else if (x == ")" || x == ">" || x == "]") --depth;
            else if (x == "," && depth == 0) {
              if (!last.empty()) wl.params.push_back(last);
              last.clear();
            }
          } else if (t[m].kind == Tok::kIdent) {
            last = t[m].text;
          }
        }
        if (!last.empty()) wl.params.push_back(last);
        k = pclose + 1;
      }
      while (k < close && !is_punct(t[k], "{")) ++k;  // mutable / -> T
      if (k >= close) continue;
      const std::size_t body_close = match_forward(t, k);
      if (body_close >= t.size()) continue;
      wl.body_begin = k;
      wl.body_end = body_close + 1;
      out.push_back(std::move(wl));
      j = cap_close;
    }
  }
  return out;
}

bool in_list(const std::vector<std::string>& v, const std::string& s) {
  for (const std::string& x : v)
    if (x == s) return true;
  return false;
}

}  // namespace

void check_thread_safety(const AnalysisContext& ctx) {
  const std::vector<Token>& t = ctx.unit.toks;
  const bool want_ts = check_enabled(ctx.options, "thread-safety");
  const bool want_rng = check_enabled(ctx.options, "rng-discipline");
  for (const WorkerLambda& wl : find_worker_lambdas(ctx.unit)) {
    std::vector<std::string> locals;
    bool has_lock = false;

    // Declaration pre-pass: `Type name =`, `auto name =`, `Type& name =`…
    for (std::size_t j = wl.body_begin + 1; j + 1 < wl.body_end; ++j) {
      if (t[j].kind != Tok::kIdent) continue;
      if (j == 0) continue;
      const Token& prev = t[j - 1];
      const bool decl_prefix =
          (prev.kind == Tok::kIdent && prev.text != "return") ||
          is_punct(prev, "*") || is_punct(prev, "&") || is_punct(prev, ">");
      if (!decl_prefix) continue;
      const Token& next = t[j + 1];
      const bool decl_suffix = is_punct(next, "=") || is_punct(next, ";") ||
                               is_punct(next, "{") || is_punct(next, "(");
      if (!decl_suffix) continue;
      if (prev.kind == Tok::kIdent && is_lock_type(prev.text))
        has_lock = true;
      locals.push_back(t[j].text);
    }

    auto is_task_local = [&](const std::string& name) {
      return in_list(wl.params, name) || in_list(locals, name);
    };

    for (std::size_t j = wl.body_begin + 1; j + 1 < wl.body_end; ++j) {
      if (t[j].kind != Tok::kIdent) continue;
      const std::string& name = t[j].text;
      if (j > 0 &&
          (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->") ||
           is_punct(t[j - 1], "::")))
        continue;  // member / qualified — the head was handled already
      if (is_task_local(name)) continue;

      // Captured Hypervisor / Simulator: confined, no access at all.
      const std::string lo = lower(name);
      if (want_ts &&
          (lo.find("hypervisor") != std::string::npos ||
           lo.find("simulator") != std::string::npos) &&
          j + 1 < wl.body_end &&
          (is_punct(t[j + 1], ".") || is_punct(t[j + 1], "->"))) {
        ctx.report(t[j].line, "thread-safety",
                   "pool worker touches captured `" + name +
                       "`: Hypervisor/Simulator state is confined to the "
                       "owning task (ASMAN_CAPABILITY) and must not be "
                       "shared across workers");
        continue;
      }

      // Captured RNG stream.
      if (want_rng && lo.find("rng") != std::string::npos && !has_lock) {
        ctx.report(t[j].line, "rng-discipline",
                   "pool worker draws from captured RNG `" + name +
                       "`: split seeds before the fan-out and give each "
                       "task its own seeded stream (as bench::BasicSweep's "
                       "per-Scenario seeds do)");
        continue;
      }

      if (has_lock || !want_ts) continue;  // write findings are thread-safety's

      // Shared write forms.
      const Token& next = t[j + 1];
      bool flagged = false;
      std::string what;
      if (next.kind == Tok::kPunct &&
          (next.text == "=" || next.text == "+=" || next.text == "-=" ||
           next.text == "*=" || next.text == "/=" || next.text == "++" ||
           next.text == "--")) {
        flagged = true;
        what = "assigns captured `" + name + "`";
      } else if (j > 0 && t[j - 1].kind == Tok::kPunct &&
                 (t[j - 1].text == "++" || t[j - 1].text == "--")) {
        flagged = true;
        what = "increments captured `" + name + "`";
      } else if (is_punct(next, "[")) {
        const std::size_t bclose = match_forward(t, j + 1);
        if (bclose + 1 < wl.body_end && t[bclose + 1].kind == Tok::kPunct &&
            (t[bclose + 1].text == "=" || t[bclose + 1].text == "+=" ||
             t[bclose + 1].text == "-=")) {
          bool param_indexed = false;
          for (std::size_t m = j + 2; m < bclose; ++m)
            if (t[m].kind == Tok::kIdent && in_list(wl.params, t[m].text))
              param_indexed = true;
          if (!param_indexed) {
            flagged = true;
            what = "writes captured `" + name +
                   "` at an index not derived from the task parameter";
          }
        }
      } else if ((is_punct(next, ".") || is_punct(next, "->")) &&
                 j + 3 < wl.body_end && t[j + 2].kind == Tok::kIdent &&
                 is_mutating_member(t[j + 2].text) &&
                 is_punct(t[j + 3], "(")) {
        flagged = true;
        what = "mutates captured container `" + name + "` (" +
               t[j + 2].text + ")";
      }
      if (flagged) {
        ctx.report(t[j].line, "thread-safety",
                   "pool worker " + what +
                       " without a lock: workers may only write "
                       "task-indexed slots or take a MutexLock/lock_guard "
                       "around shared mutations");
      }
    }
  }
}

void check_thread_safety_cross_tu(const Options& options,
                                  const std::vector<FileUnit>& units,
                                  std::vector<Finding>& findings) {
  if (!check_enabled(options, "thread-safety")) return;
  CallGraph graph;
  for (const FileUnit& u : units) graph.add_unit(u);

  for (const FileUnit& u : units) {
    const std::vector<Token>& t = u.toks;
    for (const WorkerLambda& wl : find_worker_lambdas(u)) {
      std::unordered_set<std::string> roots;
      for (std::size_t j = wl.body_begin + 1; j + 1 < wl.body_end; ++j) {
        if (t[j].kind == Tok::kIdent && is_punct(t[j + 1], "(") &&
            !in_list(wl.params, t[j].text))
          roots.insert(t[j].text);
      }
      if (roots.empty()) continue;
      auto hit = graph.find_static_write(roots, /*depth=*/6);
      if (!hit) continue;
      Finding f;
      f.file = u.display_path;
      f.line = wl.line;
      f.check = "thread-safety";
      f.message = "pool worker reaches a write to file-scope static `" +
                  hit->static_name + "` (in " + hit->function +
                  ", " + hit->file + ":" + std::to_string(hit->line) +
                  "): hidden shared state breaks sweep determinism";
      f.trace.push_back({wl.line, "worker lambda submitted here"});
      for (const std::string& fn : hit->chain)
        f.trace.push_back({wl.line, "calls " + fn});
      f.trace.push_back(
          {hit->line, "writes `" + hit->static_name + "` in " + hit->file});
      findings.push_back(std::move(f));
    }
  }
}

}  // namespace asman_lint
