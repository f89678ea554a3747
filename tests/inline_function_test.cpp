// InlineFunction: the move-only callable behind event callbacks and guest
// continuations. Closures up to kInlineFunctionCapacity bytes live in
// place; larger ones fall back to the heap and must still run and be
// destroyed exactly once.
#include "simcore/inline_function.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

namespace asman::sim {
namespace {

/// Counts its live copies through a shared counter.
struct Tracked {
  explicit Tracked(int* live) : live_(live) { ++*live_; }
  Tracked(Tracked&& o) noexcept : live_(o.live_) { ++*live_; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() { --*live_; }
  int* live_;
};

TEST(InlineFunction, RunsAMoveOnlyCapture) {
  auto p = std::make_unique<int>(41);
  InlineFunction<int(int)> f = [p = std::move(p)](int d) { return *p + d; };
  EXPECT_FALSE(f.on_heap());
  InlineFunction<int(int)> g = std::move(f);
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(g(1), 42);
}

TEST(InlineFunction, OversizeClosureFallsBackToTheHeap) {
  int live = 0;
  int calls = 0;
  {
    std::array<char, 2 * kInlineFunctionCapacity> pad{};
    pad[0] = 7;
    InlineFunction<void()> f = [t = Tracked(&live), pad, &calls] {
      calls += pad[0];
    };
    EXPECT_TRUE(f.on_heap());
    EXPECT_EQ(live, 1);
    InlineFunction<void()> g = std::move(f);  // moves the pointer only
    EXPECT_EQ(live, 1);
    g();
    EXPECT_EQ(calls, 7);
  }
  EXPECT_EQ(live, 0);  // destroyed exactly once
}

TEST(InlineFunction, InlineTargetIsDestroyedExactlyOnce) {
  int live = 0;
  {
    InlineFunction<void()> f = [t = Tracked(&live)] {};
    EXPECT_FALSE(f.on_heap());
    InlineFunction<void()> g = std::move(f);
    InlineFunction<void()> h;
    h = std::move(g);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineFunction, EmptyStates) {
  InlineFunction<void()> a;
  InlineFunction<void()> b = nullptr;
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(a.on_heap());
  int live = 0;
  InlineFunction<void()> c = [t = Tracked(&live)] {};
  EXPECT_TRUE(c);
  c = nullptr;
  EXPECT_FALSE(c);
  EXPECT_EQ(live, 0);
  InlineFunction<void()> d = std::move(a);  // moving an empty one
  EXPECT_FALSE(d);
}

TEST(InlineFunction, MoveAssignOverALiveCallable) {
  // The new target comes from another InlineFunction, or from a closure
  // that operator=(F&&) builds in place.
  for (const bool in_place : {false, true}) {
    SCOPED_TRACE(in_place ? "closure built in place" : "InlineFunction");
    int live_a = 0;
    int live_b = 0;
    int ran = 0;
    {
      InlineFunction<void()> f = [t = Tracked(&live_a), &ran] { ran = 1; };
      if (in_place) {
        f = [t = Tracked(&live_b), &ran] { ran = 2; };
      } else {
        InlineFunction<void()> g = [t = Tracked(&live_b), &ran] { ran = 2; };
        f = std::move(g);
        // NOLINTNEXTLINE(bugprone-use-after-move): moved-from is empty
        EXPECT_FALSE(g);
      }
      EXPECT_EQ(live_a, 0);  // the old target is gone
      EXPECT_EQ(live_b, 1);
      f();
      EXPECT_EQ(ran, 2);
    }
    EXPECT_EQ(live_a, 0);  // destroyed exactly once
    EXPECT_EQ(live_b, 0);
  }
}

}  // namespace
}  // namespace asman::sim
