// Guest operating system kernel model (one instance per VM).
//
// Models the parts of an SMP Linux guest that the paper's measurements
// depend on:
//
//   * per-VCPU thread run queues with a round-robin quantum,
//   * kernel spinlocks with faithful lock-holder-preemption behaviour — a
//     holder whose VCPU is offline makes no progress, so waiters on online
//     VCPUs spin for wall-clock spans bounded by the VMM's scheduling
//     pattern (this is the effect of Figs 1-2),
//   * futex hash buckets guarded by spinlocks (the libgomp path: user
//     synchronization -> futex syscalls -> kernel spinlock traffic),
//   * GNU-OpenMP-style barriers (user-level active spin up to a limit,
//     then futex sleep),
//   * futex-backed user mutexes and blocking semaphores,
//   * a periodic timer tick that takes a kernel lock (background spinlock
//     traffic; interrupts are masked inside kernel critical sections),
//   * the idle path: a VCPU with no runnable thread halts via the
//     vcpu_block hypercall, which is why blocking primitives tolerate
//     virtualization (the VMM reassigns the PCPU).
//
// Execution model: the kernel is driven entirely by simulator events and
// the VMM's online/offline callbacks. Each thread has at most one live
// "activity" (a timed burn or a spinlock spin); activities only progress
// while their VCPU is online. Continuations sequence multi-step kernel
// paths such as futex wake chains. A continuation is a move-only
// sim::InlineFunction whose closure carries scalars only. Each thread has
// one continuation slot, filled by park() and emptied by unpark(): a path
// that must run a caller's continuation when it ends parks it there
// instead of capturing it, and a thread that blocks or yields parks what
// it runs once scheduled again. So no closure nests another callable and
// none outgrows the inline buffer.
//
// Each job has one implementation: vacate() takes a thread off its VCPU
// (block, yield, retire, quantum preemption), sleep_on() ends every sleep
// and wake_chain() every wake-up, irqs_masked() says whether a tick or a
// preemption must wait, and balance_target() picks the remote runqueue of
// both load-balance probes (tick and sched_yield).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "guest/observer.h"
#include "guest/program.h"
#include "simcore/inline_function.h"
#include "simcore/simulator.h"
#include "simcore/trace.h"
#include "vmm/ports.h"

namespace asman::guest {

using sim::Cycles;

class GuestKernel final : public vmm::GuestPort {
 public:
  using Cont = sim::InlineFunction<void()>;
  /// Spinlock acquisition continuation; receives the wait.
  using Acquired = sim::InlineFunction<void(Cycles)>;

  struct Config {
    std::uint32_t n_vcpus{4};
    std::uint64_t seed{1};  // set by every scenario; the kernel draws no RNG

    // Timer tick (Linux 2.6.18 HZ=250 -> 4 ms). Pre-tickless kernels wake
    // even idle (halted) VCPUs at every tick to run the handler, which
    // takes the VM-global timer lock (xtime_lock).
    Cycles tick_period{sim::kDefaultClock.from_ms(4)};

    // Periodic load balancing (Linux 2.6 rebalance_tick): every Nth timer
    // tick the handler also takes a *remote* VCPU's runqueue lock — the
    // classic cross-CPU lock path of that kernel generation (0 = never).
    std::uint32_t balance_every_ticks{2};
    // sched_yield with an otherwise-empty runqueue falls into idle_balance,
    // which probes remote runqueue locks too (every Nth yield here; 0 =
    // never). This is why a stranded runqueue lock is discovered within
    // microseconds by every spinning peer — the paper's "long waits occur
    // in neighboring spinlocks" clustering.
    std::uint32_t yield_balance_every{2};

    // Over-threshold limit: 2^delta cycles, delta = 20 in the paper.
    Cycles over_threshold{1ULL << 20};

    bool keep_wait_samples{false};
  };

  // Kernel path costs and timings (cycles), the same for every guest;
  // sized for a 2007-era SMP kernel with cache-cold shared structures.
  //
  // The timer-tick handler's entry overhead, then its hold of the timer
  // lock.
  static constexpr Cycles kTickOverhead{8'000};
  static constexpr Cycles kTickLockHold{3'000};
  // Round-robin quantum for threads sharing a VCPU.
  static constexpr Cycles kRrQuantum = sim::kDefaultClock.from_ms(6);
  // Syscall entry; futex enqueue under the bucket lock; futex wake, a base
  // plus a per-woken-thread part; the runqueue-lock hold of each wake-up;
  // an uncontended spinlock acquisition.
  static constexpr Cycles kSyscallEntry{800};
  static constexpr Cycles kFutexEnqueueHold{7'000};
  static constexpr Cycles kFutexWakeBase{4'000};
  static constexpr Cycles kFutexWakePerThread{2'500};
  static constexpr Cycles kRqWakeHold{3'500};
  static constexpr Cycles kUncontendedAcquire{60};
  // libgomp-style active spin budget before sleeping in the kernel, and
  // the sched_yield cadence inside the spin: every kSpinYieldPeriod cycles
  // of user spinning the waiter enters the kernel and holds its runqueue
  // lock for kYieldHold (this is how user-level waiting turns into kernel
  // spinlock traffic on a loaded 2.6-era system).
  static constexpr Cycles kUserSpinLimit{900'000};
  static constexpr Cycles kSpinYieldPeriod{70'000};
  static constexpr Cycles kYieldHold{4'500};
  // Hold of a remote runqueue lock by a load-balancing probe (tick or
  // yield path).
  static constexpr Cycles kBalanceHold{3'000};
  // Grace period before an idle VCPU issues the halt hypercall.
  static constexpr Cycles kIdleGrace{4'000};

  GuestKernel(sim::Simulator& simulation, vmm::HypervisorPort& hypervisor,
              vmm::VmId vm_id, Config cfg, sim::Trace* trace = nullptr);
  ~GuestKernel() override;

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  // --- setup (before the simulation starts) ---
  std::uint32_t create_mutex();
  /// `spin_only` models flush/flag busy-wait synchronization (NPB-OMP
  /// pipelines): waiters never sleep in the kernel, they spin (and
  /// periodically sched_yield) until released — burning their VCPU's
  /// allocation while an offline peer keeps them waiting.
  std::uint32_t create_barrier(std::uint32_t parties, bool spin_only = false);
  std::uint32_t create_semaphore(std::int32_t initial);
  /// Spawn a thread running `prog`, pinned to VCPU `vcpu`.
  Tid spawn(std::unique_ptr<ThreadProgram> prog, std::uint32_t vcpu);
  /// Set the spinlock observer (the Monitoring Module); may be null.
  void set_observer(SpinlockObserver* obs) { observer_ = obs; }

  // --- vmm::GuestPort ---
  void vcpu_online(std::uint32_t vidx) override;
  void vcpu_offline(std::uint32_t vidx) override;

  // --- introspection ---
  const GuestStats& stats() const { return stats_; }
  vmm::VmId vm_id() const { return vm_id_; }
  std::uint32_t num_vcpus() const { return cfg_.n_vcpus; }
  std::size_t num_threads() const { return user_thread_count_; }
  std::size_t threads_done() const { return done_count_; }
  bool all_threads_done() const { return done_count_ == user_thread_count_; }
  bool thread_done(Tid t) const;
  Cycles thread_finish_time(Tid t) const;
  /// Retirement time of the most recently finished thread (the workload's
  /// completion time once all_threads_done()).
  Cycles last_finish_time() const { return last_finish_; }
  bool vcpu_online_now(std::uint32_t v) const { return vcpus_[v].online; }

 private:
  // --- execution engine -----------------------------------------------------
  enum class ActKind : std::uint8_t { kNone, kBurn, kSpin };
  struct Activity {
    ActKind kind{ActKind::kNone};
    bool kernel{false};  // interrupts masked (no tick) while true
    Cycles remaining{};
    Cycles started_at{};
    std::uint32_t lock{0};  // valid for kSpin
    Cont done;              // burn completion continuation
    sim::EventId ev{};      // live completion event (burn, while executing)
  };

  enum class TState : std::uint8_t { kReady, kCurrent, kBlocked, kDone, kIrq };
  struct Thread {
    Tid id{kNoTid};
    std::uint32_t vcpu{0};
    std::unique_ptr<ThreadProgram> prog;  // null for IRQ pseudo-threads
    TState state{TState::kReady};
    Activity act;
    // Parked continuation: the end of the kernel path in progress, or what
    // a blocked or yielded thread runs once it is scheduled again.
    Cont parked;
    std::vector<Tid> woken;  // this waker's futex_wake batch (wake_chain)
    Cycles finish_time{};
  };

  struct VcpuCtx {
    bool online{false};
    bool halted{false};
    Tid current{kNoTid};
    std::deque<Tid> runq;
    Tid irq_tid{kNoTid};
    bool in_irq{false};
    bool tick_pending{false};
    bool need_resched{false};  // quantum expired inside a kernel section
    Cycles tick_due{0};        // absolute deadline of the next timer tick
    sim::EventId tick_ev{};
    sim::EventId tick_wake_ev{};  // wakes a halted VCPU for its tick
    sim::EventId quantum_ev{};
    sim::EventId idle_ev{};
    std::uint64_t ticks{0};
  };

  // --- kernel objects ---------------------------------------------------------
  struct SpinWaiter {
    Tid tid{kNoTid};
    Cycles since{};
    bool reported{false};       // over-threshold already reported
    bool report_pending{false}; // crossed while offline; report on online
    sim::EventId cross_ev{};
    Acquired acquired;  // waited -> continue
  };
  enum class LockKind : std::uint8_t {
    kTimer,
    kRunqueue,
    kMutexFutex,
    kBarrierFutex,
    kSemaphoreFutex,
  };
  struct SpinLock {
    LockKind kind{LockKind::kTimer};
    std::uint32_t index{0};  // VCPU (run queue) or mutex/barrier/semaphore
    Tid owner{kNoTid};
    std::vector<SpinWaiter> waiters;
  };
  struct FutexQ {
    std::uint32_t bucket_lock{0};  // spinlock index
    /// The futex word: a mutex's lock state (0/1) or a barrier's
    /// generation. futex_wait sleeps only while it holds the expected value.
    std::uint64_t word{0};
    std::vector<Tid> sleepers;
  };
  struct Mutex {
    std::uint32_t fq{0};  // its futex word is the lock state
  };
  struct Barrier {
    std::uint32_t parties{0};
    std::uint32_t arrived{0};
    std::uint32_t fq{0};  // its futex word is the generation
    bool spin_only{false};
    struct Spinner {
      Tid tid{kNoTid};
      std::uint64_t gen{0};
    };
    std::vector<Spinner> spinners;
  };
  struct Semaphore {
    std::int32_t count{0};
    std::uint32_t fq{0};
  };

  // execution primitives
  bool is_executing(Tid t) const;
  Tid executing_on(std::uint32_t v) const;
  /// Interrupts are masked on `v`: a tick handler runs, or the current
  /// thread spins on or holds a kernel lock. Ticks and quantum preemption
  /// wait until the section ends.
  bool irqs_masked(std::uint32_t v) const;
  void activate(Tid t);
  void deactivate(Tid t);
  /// Burn `len` cycles on `t`, then run `done`, which is built directly
  /// in the thread's activity. Defined in guest_kernel.cpp, its only user.
  template <typename F>
  void burn(Tid t, Cycles len, bool kernel, F&& done);
  void burn_complete(Tid t);
  /// Cancel a thread's pending burn (barrier satisfy path); the thread must
  /// be in a kBurn activity. Its `done` is replaced by `instead`.
  void repurpose_burn(Tid t, Cycles extra, Cont instead);

  /// Park `done` in `t`'s continuation slot; take it back when the path
  /// ends or the thread runs again. Closures then capture scalars only.
  void park(Tid t, Cont done);
  Cont unpark(Tid t);

  // spinlocks
  std::uint32_t create_spinlock(LockKind kind, std::uint32_t index);
  /// A futex queue and its bucket lock, named after object `index`.
  std::uint32_t create_futex(LockKind kind, std::uint32_t index);
  /// Position of `t` in `l`'s waiters; waiters.size() when it is absent.
  static std::size_t waiter_index(const SpinLock& l, Tid t);
  /// "timer", "rq:N", "futex:mN", "futex:bN" or "futex:sN".
  std::string lock_name(std::uint32_t lock) const;
  void lock_acquire(Tid t, std::uint32_t lock, Acquired acquired);
  void lock_release(Tid t, std::uint32_t lock);
  void grant_to_waiter(std::uint32_t lock, std::size_t waiter_index);
  void spin_cross_check(std::uint32_t lock, Tid t);
  void record_spin_wait(Cycles waited);

  // futex / sleep-wake
  /// Sleep on futex `fq` while its word equals `val` (re-checked under the
  /// bucket lock); continue with `on_wake` once woken, or at once when the
  /// word already moved on.
  void futex_wait(Tid t, std::uint32_t fq, std::uint64_t val, Cont on_wake);
  /// Tail of every sleep, entered holding `fq`'s bucket lock with the wake
  /// continuation parked: join the sleepers, drop the bucket lock, hold the
  /// own runqueue lock for kRqWakeHold (schedule()), then block.
  void sleep_on(Tid t, std::uint32_t fq);
  void futex_wake(Tid t, std::uint32_t fq, std::uint32_t n, Cont done);
  /// Move the first `k` sleepers of `fq` into `waker`'s woken batch.
  void take_sleepers(Tid waker, std::uint32_t fq, std::size_t k);
  /// Make `waker`'s woken threads ready from index `i` on, each under its
  /// runqueue lock, then continue with `done`.
  void wake_chain(Tid waker, std::size_t i, Cont done);
  /// Block the current thread `t`; once made ready and scheduled it runs
  /// its parked continuation.
  void block_current(Tid t);
  void make_ready(Tid t);

  // scheduling inside the guest
  void schedule_vcpu(std::uint32_t v);
  /// Take the current thread off `v` (its state is already set): drop the
  /// quantum timer and, when `v` is online, run the next ready thread.
  void vacate(std::uint32_t v);
  void preempt_quantum(std::uint32_t v);
  /// Load balancing (rebalance_tick, idle_balance): the VCPU whose
  /// runqueue lock the `count`-th balance occasion on `v` probes, rotating
  /// over the others, when every `every`-th occasion probes (0 = never);
  /// `v` itself when this occasion does not.
  std::uint32_t balance_target(std::uint32_t v, std::uint64_t count,
                               std::uint32_t every) const;
  void arm_quantum(std::uint32_t v);
  void arm_tick(std::uint32_t v);
  void run_tick(std::uint32_t v);
  void enter_tick_irq(std::uint32_t v);
  /// Tick handler epilogue: leave the IRQ and resume whatever it preempted.
  void finish_tick_irq(std::uint32_t v);
  void tick_wake(std::uint32_t v);
  void maybe_deliver_pending(std::uint32_t v);
  void idle_check(std::uint32_t v);

  // ops
  void next_op(Tid t);
  void exec_op(Tid t, const Op& op);
  void op_critical(Tid t, std::uint32_t mtx, Cycles hold);
  /// Take mutex `mtx` (futex loop while contended), hold it for `hold`,
  /// unlock it, and go on with the thread's next op.
  void mutex_lock_hold(Tid t, std::uint32_t mtx, Cycles hold);
  /// Unlock mutex `mtx`, waking one sleeper if any, then the next op.
  void mutex_unlock(Tid t, std::uint32_t mtx);
  void op_barrier(Tid t, std::uint32_t bar);
  void barrier_spin_loop(Tid t, std::uint32_t bar, std::uint64_t gen,
                         Cycles spun);
  /// sched_yield semantics: rotate to the next ready thread on this VCPU
  /// (if any) and run the parked continuation when scheduled again.
  void yield_cpu(Tid t);
  /// Last arrival: release `b`'s spinners and sleepers, then the next op.
  void barrier_release(Tid t, Barrier& b);
  void op_sem_wait(Tid t, std::uint32_t s);
  void op_sem_post(Tid t, std::uint32_t s);
  void op_sleep(Tid t, Cycles len);
  void retire(Tid t);

  sim::Simulator& sim_;
  vmm::HypervisorPort& hv_;
  vmm::VmId vm_id_;
  Config cfg_;
  sim::Trace* trace_;
  SpinlockObserver* observer_{nullptr};

  std::vector<VcpuCtx> vcpus_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<SpinLock> locks_;
  std::vector<FutexQ> futexes_;
  std::vector<Mutex> mutexes_;
  std::vector<Barrier> barriers_;
  std::vector<Semaphore> semaphores_;

  std::uint32_t timer_lock_{0};            // VM-wide tick lock
  std::vector<std::uint32_t> rq_locks_;    // per-VCPU runqueue locks

  std::size_t user_thread_count_{0};
  std::size_t done_count_{0};
  Cycles last_finish_{0};
  GuestStats stats_;
};

/// Trivial guest for administrator/idle VMs (the paper's Domain-0 carries
/// no workload): halts every VCPU immediately and keeps them halted, so it
/// needs no per-VCPU state and ignores the VCPU count.
class IdleGuest final : public vmm::GuestPort {
 public:
  IdleGuest(sim::Simulator& simulation, vmm::HypervisorPort& hypervisor,
            vmm::VmId vm_id, std::uint32_t /*n_vcpus*/)
      : sim_(simulation), hv_(hypervisor), vm_(vm_id) {}

  void vcpu_online(std::uint32_t vidx) override {
    // Block as soon as the scheduler lets go of its internal state.
    sim_.after(sim::Cycles{1'000},
               [this, vidx] { hv_.vcpu_block(vm_, vidx); });
  }
  void vcpu_offline(std::uint32_t vidx) override { (void)vidx; }

 private:
  sim::Simulator& sim_;
  vmm::HypervisorPort& hv_;
  vmm::VmId vm_;
};

}  // namespace asman::guest
