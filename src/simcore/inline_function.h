// Move-only type-erased callable with a fixed inline buffer.
//
// The event queue stores one callback per pending event, and the guest
// kernel threads a continuation through every multi-step kernel path; both
// run once per simulated event, so neither may touch the heap. libstdc++'s
// std::function keeps only 16 bytes inline and must be copyable. An
// InlineFunction stores any closure of up to kInlineFunctionCapacity bytes
// in place and is move-only, so a closure may own move-only state. A larger
// or over-aligned closure still works: it falls back to one heap
// allocation, made at construction and freed at destruction.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace asman::sim {

inline constexpr std::size_t kInlineFunctionCapacity = 64;

/// True when an InlineFunction stores a closure of type `Fn` in its own
/// buffer; any other closure costs one heap allocation.
template <typename Fn>
inline constexpr bool fits_inline =
    sizeof(Fn) <= kInlineFunctionCapacity &&
    alignof(Fn) <= alignof(std::max_align_t) &&
    std::is_nothrow_move_constructible_v<Fn>;

template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {
    emplace(std::forward<F>(f));
  }

  /// Destroy the current target, then build `f`'s decayed copy directly in
  /// this object's buffer: no intermediate InlineFunction is made and
  /// moved from. `f` must not live inside the current target. If the
  /// construction throws, *this is left empty.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFunction(InlineFunction&& o) noexcept { take(o); }
  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "call of an empty InlineFunction");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// True when the target did not fit the inline buffer and lives on the
  /// heap.
  bool on_heap() const noexcept { return ops_ != nullptr && ops_->on_heap; }

 private:
  struct Ops {
    R (*invoke)(void* target, Args&&... args);
    /// Move the target from `src` into `dst` and destroy it in `src`; null
    /// when copying the buffer's bytes does both.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Destroy the target; null when that is a no-op.
    void (*destroy)(void* target) noexcept;
    bool on_heap;
  };

  template <typename Fn>
  static R call(Fn& f, Args&&... args) {
    if constexpr (std::is_void_v<R>)
      std::invoke(f, std::forward<Args>(args)...);
    else
      return std::invoke(f, std::forward<Args>(args)...);
  }
  template <typename Fn>
  static R invoke_inline(void* target, Args&&... args) {
    return call(*static_cast<Fn*>(target), std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void relocate_inline(void* dst, void* src) noexcept {
    Fn* from = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(void* target) noexcept {
    static_cast<Fn*>(target)->~Fn();
  }
  template <typename Fn>
  static R invoke_heap(void* target, Args&&... args) {
    return call(**static_cast<Fn**>(target), std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void destroy_heap(void* target) noexcept {
    delete *static_cast<Fn**>(target);
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      &invoke_inline<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_inline<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>,
      false};
  // The buffer holds a plain pointer, so a byte copy relocates it.
  template <typename Fn>
  static constexpr Ops kHeapOps{&invoke_heap<Fn>, nullptr, &destroy_heap<Fn>,
                                true};

  /// Build the target in the empty buffer; ops_ is set only once the
  /// construction has succeeded.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }
  void take(InlineFunction& o) noexcept {
    ops_ = o.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr)
      ops_->relocate(buf_, o.buf_);
    else
      std::memcpy(buf_, o.buf_, sizeof buf_);
    o.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  // Zero-initialized: take() copies all of it, including bytes past a small
  // target, and must not read indeterminate values.
  alignas(std::max_align_t) unsigned char buf_[kInlineFunctionCapacity]{};
  const Ops* ops_{nullptr};
};

}  // namespace asman::sim
