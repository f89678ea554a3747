#include "guest/guest_kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace asman::guest {

GuestKernel::GuestKernel(sim::Simulator& simulation,
                         vmm::HypervisorPort& hypervisor, vmm::VmId vm_id,
                         Config cfg, sim::Trace* trace)
    : sim_(simulation),
      hv_(hypervisor),
      vm_id_(vm_id),
      cfg_(cfg),
      trace_(trace),
      vcpus_(cfg.n_vcpus),
      stats_(cfg.keep_wait_samples) {
  timer_lock_ = create_spinlock(LockKind::kTimer, 0);
  rq_locks_.reserve(cfg_.n_vcpus);
  for (std::uint32_t v = 0; v < cfg_.n_vcpus; ++v) {
    rq_locks_.push_back(create_spinlock(LockKind::kRunqueue, v));
    // IRQ pseudo-thread: the identity under which tick handlers hold locks.
    auto irq = std::make_unique<Thread>();
    irq->id = static_cast<Tid>(threads_.size());
    irq->vcpu = v;
    irq->state = TState::kIrq;
    vcpus_[v].irq_tid = irq->id;
    threads_.push_back(std::move(irq));
  }
}

GuestKernel::~GuestKernel() = default;

// --- setup -------------------------------------------------------------------

std::uint32_t GuestKernel::create_spinlock(LockKind kind,
                                           std::uint32_t index) {
  locks_.push_back(SpinLock{kind, index, kNoTid, {}});
  return static_cast<std::uint32_t>(locks_.size() - 1);
}

std::string GuestKernel::lock_name(std::uint32_t lock) const {
  const SpinLock& l = locks_[lock];
  const std::string index = std::to_string(l.index);
  switch (l.kind) {
    case LockKind::kTimer:
      return "timer";
    case LockKind::kRunqueue:
      return "rq:" + index;
    case LockKind::kMutexFutex:
      return "futex:m" + index;
    case LockKind::kBarrierFutex:
      return "futex:b" + index;
    case LockKind::kSemaphoreFutex:
      return "futex:s" + index;
  }
  return "?";
}

std::uint32_t GuestKernel::create_futex(LockKind kind, std::uint32_t index) {
  futexes_.push_back(FutexQ{create_spinlock(kind, index), 0, {}});
  return static_cast<std::uint32_t>(futexes_.size() - 1);
}

std::uint32_t GuestKernel::create_mutex() {
  const auto m = static_cast<std::uint32_t>(mutexes_.size());
  mutexes_.push_back(Mutex{create_futex(LockKind::kMutexFutex, m)});
  return m;
}

std::uint32_t GuestKernel::create_barrier(std::uint32_t parties,
                                          bool spin_only) {
  assert(parties >= 1);
  const auto b = static_cast<std::uint32_t>(barriers_.size());
  barriers_.push_back(Barrier{
      parties, 0, create_futex(LockKind::kBarrierFutex, b), spin_only, {}});
  return b;
}

std::uint32_t GuestKernel::create_semaphore(std::int32_t initial) {
  const auto sem = static_cast<std::uint32_t>(semaphores_.size());
  semaphores_.push_back(
      Semaphore{initial, create_futex(LockKind::kSemaphoreFutex, sem)});
  return sem;
}

Tid GuestKernel::spawn(std::unique_ptr<ThreadProgram> prog,
                       std::uint32_t vcpu) {
  assert(vcpu < cfg_.n_vcpus);
  auto th = std::make_unique<Thread>();
  th->id = static_cast<Tid>(threads_.size());
  th->vcpu = vcpu;
  th->prog = std::move(prog);
  th->state = TState::kReady;
  vcpus_[vcpu].runq.push_back(th->id);
  threads_.push_back(std::move(th));
  ++user_thread_count_;
  return threads_.back()->id;
}

bool GuestKernel::thread_done(Tid t) const {
  return threads_[t]->state == TState::kDone;
}

Cycles GuestKernel::thread_finish_time(Tid t) const {
  return threads_[t]->finish_time;
}

// --- execution engine ---------------------------------------------------------

Tid GuestKernel::executing_on(std::uint32_t v) const {
  const VcpuCtx& c = vcpus_[v];
  return c.in_irq ? c.irq_tid : c.current;
}

bool GuestKernel::is_executing(Tid t) const {
  const Thread& th = *threads_[t];
  const VcpuCtx& c = vcpus_[th.vcpu];
  if (!c.online) return false;
  return executing_on(th.vcpu) == t;
}

bool GuestKernel::irqs_masked(std::uint32_t v) const {
  const VcpuCtx& c = vcpus_[v];
  if (c.in_irq) return true;
  if (c.current == kNoTid) return false;
  const Activity& a = threads_[c.current]->act;
  return a.kind == ActKind::kSpin || (a.kind == ActKind::kBurn && a.kernel);
}

void GuestKernel::activate(Tid t) {
  Thread& th = *threads_[t];
  Activity& a = th.act;
  switch (a.kind) {
    case ActKind::kNone:
      return;
    case ActKind::kBurn:
      assert(a.held && "the burn's event is already scheduled");
      a.started_at = sim_.now();
      a.ev = sim_.after(a.remaining, std::move(a.held));
      return;
    case ActKind::kSpin: {
      SpinLock& l = locks_[a.lock];
      const std::size_t i = waiter_index(l, t);
      assert(i < l.waiters.size() && "spinning thread missing from waiters");
      if (i == l.waiters.size()) return;
      if (l.owner == kNoTid) {
        // The lock was released while we were offline: take it now
        // (plain pre-ticket spinlock semantics — first online spinner wins).
        grant_to_waiter(a.lock, i);
        return;
      }
      // Still held: if the wall-clock wait crossed the over-threshold limit
      // while this VCPU was offline, report it now (the monitoring code in
      // the real kernel runs inside the spin loop, so it fires as soon as
      // the spinner executes again).
      SpinWaiter& w = l.waiters[i];
      if (!w.reported &&
          (w.report_pending || sim_.now() - w.since >= cfg_.over_threshold)) {
        w.reported = true;
        w.report_pending = false;
        if (observer_) observer_->on_over_threshold();
      }
      return;
    }
  }
}

void GuestKernel::deactivate(Tid t) {
  Thread& th = *threads_[t];
  Activity& a = th.act;
  if (a.kind == ActKind::kBurn && a.ev.valid()) {
    a.held = sim_.withdraw(a.ev);
    a.ev = {};
    a.remaining = sim::saturating_sub(a.remaining, sim_.now() - a.started_at);
  }
  // kSpin: wall-clock waiting continues; nothing to pause.
}

template <typename F>
void GuestKernel::burn(Tid t, Cycles len, bool kernel, F&& done) {
  Activity& a = threads_[t]->act;
  assert(a.kind == ActKind::kNone && "thread already has an activity");
  a.kind = ActKind::kBurn;
  a.kernel = kernel;
  a.remaining = len;
  // The completion epilogue: end the activity, run `done`, then deliver
  // the tick or preemption the burn held off.
  auto complete = [this, t, done = std::forward<F>(done)]() mutable {
    Thread& th = *threads_[t];
    th.act.ev = {};
    th.act.kind = ActKind::kNone;
    done();
    maybe_deliver_pending(th.vcpu);
  };
  static_assert(sim::fits_inline<decltype(complete)>,
                "a burn's event must fit InlineFunction's buffer");
  if (is_executing(t)) {
    a.started_at = sim_.now();
    a.ev = sim_.after(len, std::move(complete));
  } else {
    a.held = std::move(complete);
  }
}

template <typename F>
void GuestKernel::repurpose_burn(Tid t, Cycles extra, F&& instead) {
  Activity& a = threads_[t]->act;
  assert(a.kind == ActKind::kBurn && !a.kernel);
  sim_.cancel_timer(a.ev);
  a.held = nullptr;
  a.kind = ActKind::kNone;
  burn(t, extra, false, std::forward<F>(instead));
}

void GuestKernel::park(Tid t, Cont done) {
  Thread& th = *threads_[t];
  assert(!th.parked && "a continuation is already parked");
  th.parked = std::move(done);
}

GuestKernel::Cont GuestKernel::unpark(Tid t) {
  return std::move(threads_[t]->parked);
}

// --- spinlocks -----------------------------------------------------------------

void GuestKernel::record_spin_wait(Cycles waited) {
  ++stats_.spin_acquisitions;
  stats_.spin_waits.add(waited);
  if (observer_) observer_->on_spin_acquired(waited);
}

void GuestKernel::lock_acquire(Tid t, std::uint32_t lock, Acquired acquired) {
  assert(is_executing(t));
  SpinLock& l = locks_[lock];
  if (l.owner == kNoTid) {
    l.owner = t;
    record_spin_wait(kUncontendedAcquire);
    acquired(kUncontendedAcquire);
    return;
  }
  ++stats_.spin_contended;
  Thread& th = *threads_[t];
  assert(th.act.kind == ActKind::kNone);
  th.act.kind = ActKind::kSpin;
  th.act.kernel = true;
  th.act.lock = lock;
  SpinWaiter w;
  w.tid = t;
  w.since = sim_.now();
  w.acquired = std::move(acquired);
  w.cross_ev = sim_.after(cfg_.over_threshold,
                          [this, lock, t] { spin_cross_check(lock, t); });
  locks_[lock].waiters.push_back(std::move(w));
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kLock, [&] {
    return "t" + std::to_string(t) + " spins on " + lock_name(lock);
  });
}

std::size_t GuestKernel::waiter_index(const SpinLock& l, Tid t) {
  std::size_t i = 0;
  while (i < l.waiters.size() && l.waiters[i].tid != t) ++i;
  return i;
}

void GuestKernel::spin_cross_check(std::uint32_t lock, Tid t) {
  SpinLock& l = locks_[lock];
  const std::size_t i = waiter_index(l, t);
  if (i == l.waiters.size()) return;
  SpinWaiter& w = l.waiters[i];
  w.cross_ev = {};
  if (w.reported) return;
  if (threads_[t]->act.kind != ActKind::kSpin) return;  // defensive
  if (vcpus_[threads_[t]->vcpu].online) {
    w.reported = true;
    if (observer_) observer_->on_over_threshold();
  } else {
    // The spinner itself is descheduled; the report fires as soon as it
    // executes its spin loop again (activate()).
    w.report_pending = true;
  }
}

void GuestKernel::grant_to_waiter(std::uint32_t lock, std::size_t idx) {
  SpinLock& l = locks_[lock];
  SpinWaiter w = std::move(l.waiters[idx]);
  l.waiters.erase(l.waiters.begin() +
                  static_cast<std::ptrdiff_t>(idx));
  l.owner = w.tid;
  sim_.cancel_timer(w.cross_ev);
  Thread& th = *threads_[w.tid];
  assert(th.act.kind == ActKind::kSpin);
  th.act.kind = ActKind::kNone;
  const Cycles waited = sim_.now() - w.since;
  record_spin_wait(waited);
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kLock, [&] {
    return "t" + std::to_string(w.tid) + " acquired " + lock_name(lock) +
           " after " + sim::format_cycles(waited);
  });
  w.acquired(waited);
}

void GuestKernel::lock_release(Tid t, std::uint32_t lock) {
  SpinLock& l = locks_[lock];
  assert(l.owner == t);
  (void)t;
  l.owner = kNoTid;
  // Grant to the longest-waiting spinner that is actually executing its
  // spin loop (i.e. whose VCPU is online). Offline spinners cannot observe
  // the release — they contend again when they come back online.
  std::size_t best = l.waiters.size();
  for (std::size_t i = 0; i < l.waiters.size(); ++i) {
    const SpinWaiter& w = l.waiters[i];
    if (!vcpus_[threads_[w.tid]->vcpu].online) continue;
    if (best == l.waiters.size() || w.since < l.waiters[best].since) best = i;
  }
  if (best < l.waiters.size()) grant_to_waiter(lock, best);
}

// --- futex / sleep-wake -----------------------------------------------------------

void GuestKernel::block_current(Tid t) {
  Thread& th = *threads_[t];
  assert(th.act.kind == ActKind::kNone);
  assert(vcpus_[th.vcpu].current == t && !vcpus_[th.vcpu].in_irq);
  th.state = TState::kBlocked;
  vacate(th.vcpu);
}

void GuestKernel::make_ready(Tid t) {
  Thread& th = *threads_[t];
  assert(th.state == TState::kBlocked);
  th.state = TState::kReady;
  VcpuCtx& c = vcpus_[th.vcpu];
  c.runq.push_back(t);
  sim_.cancel_timer(c.idle_ev);
  if (c.halted) {
    c.halted = false;
    hv_.vcpu_kick(vm_id_, th.vcpu);
    return;
  }
  if (c.online) {
    if (c.current == kNoTid && !c.in_irq) {
      schedule_vcpu(th.vcpu);
    } else if (!c.quantum_ev.valid() && c.current != kNoTid) {
      arm_quantum(th.vcpu);
    }
  }
}

void GuestKernel::futex_wait(Tid t, std::uint32_t fq, std::uint64_t val,
                             Cont on_wake) {
  ++stats_.futex_waits;
  park(t, std::move(on_wake));
  burn(t, kSyscallEntry, false, [this, t, fq, val] {
    lock_acquire(t, futexes_[fq].bucket_lock, [this, t, fq, val](Cycles) {
      burn(t, kFutexEnqueueHold, true, [this, t, fq, val] {
        FutexQ& q = futexes_[fq];
        if (q.word != val) {
          // The word changed while we were entering the kernel (futex
          // value re-check): do not sleep.
          lock_release(t, q.bucket_lock);
          burn(t, Cycles{200}, false, [this, t] { unpark(t)(); });
          return;
        }
        sleep_on(t, fq);
      });
    });
  });
}

void GuestKernel::sleep_on(Tid t, std::uint32_t fq) {
  FutexQ& q = futexes_[fq];
  q.sleepers.push_back(t);
  lock_release(t, q.bucket_lock);
  // Descheduling takes the thread's own runqueue lock (schedule()): this
  // lock is also taken by remote wakers, so a holder preempted here stalls
  // wake-ups for the whole VCPU.
  const std::uint32_t rq = rq_locks_[threads_[t]->vcpu];
  lock_acquire(t, rq, [this, t, rq](Cycles) {
    burn(t, kRqWakeHold, true, [this, t, rq] {
      lock_release(t, rq);
      block_current(t);
    });
  });
}

void GuestKernel::futex_wake(Tid t, std::uint32_t fq, std::uint32_t n,
                             Cont done) {
  ++stats_.futex_wakes;
  park(t, std::move(done));
  burn(t, kSyscallEntry, false, [this, t, fq, n] {
    lock_acquire(t, futexes_[fq].bucket_lock, [this, t, fq, n](Cycles) {
      FutexQ& q = futexes_[fq];
      const std::size_t k =
          std::min<std::size_t>(n, q.sleepers.size());
      const Cycles hold = kFutexWakeBase + Cycles{kFutexWakePerThread.v * k};
      burn(t, hold, true, [this, t, fq, k] {
        take_sleepers(t, fq, k);
        lock_release(t, futexes_[fq].bucket_lock);
        wake_chain(t, 0, unpark(t));
      });
    });
  });
}

void GuestKernel::take_sleepers(Tid waker, std::uint32_t fq, std::size_t k) {
  std::vector<Tid>& sleepers = futexes_[fq].sleepers;
  const auto end = sleepers.begin() + static_cast<std::ptrdiff_t>(k);
  threads_[waker]->woken.assign(sleepers.begin(), end);
  sleepers.erase(sleepers.begin(), end);
}

void GuestKernel::wake_chain(Tid waker, std::size_t i, Cont done) {
  const std::vector<Tid>& woken = threads_[waker]->woken;
  if (i == woken.size()) {
    done();
    return;
  }
  park(waker, std::move(done));
  const Tid w = woken[i];
  const std::uint32_t rq = rq_locks_[threads_[w]->vcpu];
  lock_acquire(waker, rq, [this, waker, i, w, rq](Cycles) {
    burn(waker, kRqWakeHold, true, [this, waker, i, w, rq] {
      lock_release(waker, rq);
      make_ready(w);
      wake_chain(waker, i + 1, unpark(waker));
    });
  });
}

// --- guest scheduling -------------------------------------------------------------

void GuestKernel::schedule_vcpu(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  assert(c.online);
  if (c.current != kNoTid || c.in_irq) return;
  if (c.runq.empty()) {
    idle_check(v);
    return;
  }
  const Tid t = c.runq.front();
  c.runq.pop_front();
  Thread& th = *threads_[t];
  assert(th.state == TState::kReady);
  th.state = TState::kCurrent;
  c.current = t;
  ++stats_.context_switches;
  arm_quantum(v);
  if (th.act.kind != ActKind::kNone) {
    activate(t);
    return;
  }
  if (th.parked) {
    unpark(t)();
    return;
  }
  next_op(t);
}

void GuestKernel::vacate(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  c.current = kNoTid;
  sim_.cancel_timer(c.quantum_ev);
  if (c.online) schedule_vcpu(v);
}

void GuestKernel::idle_check(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (c.idle_ev.valid()) return;
  c.idle_ev = sim_.after(kIdleGrace, [this, v] {
    VcpuCtx& cc = vcpus_[v];
    cc.idle_ev = {};
    if (cc.online && !cc.in_irq && cc.current == kNoTid && cc.runq.empty() &&
        !cc.halted) {
      cc.halted = true;
      sim::note_trace(trace_, sim_.now(), sim::TraceCat::kGuest,
                 [v] { return "vcpu" + std::to_string(v) + " halt"; });
      hv_.vcpu_block(vm_id_, v);
    }
  });
}

void GuestKernel::arm_quantum(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  sim_.cancel_timer(c.quantum_ev);
  if (c.runq.empty()) return;  // sole thread: no need to round-robin
  c.quantum_ev = sim_.after(kRrQuantum, [this, v] {
    vcpus_[v].quantum_ev = {};
    preempt_quantum(v);
  });
}

void GuestKernel::preempt_quantum(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (!c.online || c.current == kNoTid) return;
  if (irqs_masked(v)) {
    c.need_resched = true;
    return;
  }
  const Tid t = c.current;
  deactivate(t);
  threads_[t]->state = TState::kReady;
  c.runq.push_back(t);
  vacate(v);
}

std::uint32_t GuestKernel::balance_target(std::uint32_t v,
                                          std::uint64_t count,
                                          std::uint32_t every) const {
  const std::uint32_t n = cfg_.n_vcpus;
  if (n <= 1 || every == 0 || count % every != 0) return v;
  const auto target = static_cast<std::uint32_t>((v + 1 + count / every) % n);
  return target == v ? (v + 1) % n : target;
}

void GuestKernel::arm_tick(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  sim_.cancel_timer(c.tick_ev);
  if (c.tick_due < sim_.now()) c.tick_due = sim_.now();
  c.tick_ev = sim_.at(c.tick_due, [this, v] {
    vcpus_[v].tick_ev = {};
    run_tick(v);
  });
}

void GuestKernel::run_tick(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (!c.online) return;
  c.tick_due = sim_.now() + cfg_.tick_period;
  arm_tick(v);
  ++c.ticks;
  ++stats_.ticks;
  if (c.in_irq) return;  // coalesce: a tick is already being handled
  if (irqs_masked(v)) {
    // Interrupts are masked inside kernel critical sections; deliver when
    // the section ends.
    c.tick_pending = true;
    return;
  }
  c.tick_pending = false;
  enter_tick_irq(v);
}

void GuestKernel::enter_tick_irq(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (c.current != kNoTid) deactivate(c.current);
  c.in_irq = true;
  const Tid irq = c.irq_tid;
  // Tick handler: bookkeeping, then the timer lock (xtime_lock — a real
  // kernel spinlock shared by every VCPU of the VM, so a preempted tick
  // handler strands all of them), then every Nth tick a load-balance pass
  // that takes a *remote* runqueue lock (Linux 2.6 rebalance_tick).
  burn(irq, kTickOverhead, true, [this, v, irq] {
    lock_acquire(irq, timer_lock_, [this, v, irq](Cycles) {
      burn(irq, kTickLockHold, true, [this, v, irq] {
        lock_release(irq, timer_lock_);
        const std::uint32_t target =
            balance_target(v, vcpus_[v].ticks, cfg_.balance_every_ticks);
        if (target == v) {
          finish_tick_irq(v);
          return;
        }
        const std::uint32_t rq = rq_locks_[target];
        lock_acquire(irq, rq, [this, v, irq, rq](Cycles) {
          burn(irq, kBalanceHold, true, [this, v, irq, rq] {
            lock_release(irq, rq);
            finish_tick_irq(v);
          });
        });
      });
    });
  });
}

void GuestKernel::finish_tick_irq(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  c.in_irq = false;
  if (c.current != kNoTid) {
    activate(c.current);
  } else if (c.online) {
    schedule_vcpu(v);
  }
  maybe_deliver_pending(v);
}

void GuestKernel::tick_wake(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  c.tick_wake_ev = {};
  if (c.online) return;
  // Pre-tickless guests wake even idle VCPUs for the timer interrupt; the
  // kick only has an effect if the VCPU was halted (a capped-out VCPU stays
  // parked — the VMM enforces shares regardless of guest timers).
  hv_.vcpu_kick(vm_id_, v);
}

void GuestKernel::maybe_deliver_pending(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (!c.online || irqs_masked(v)) return;
  if (c.tick_pending) {
    c.tick_pending = false;
    enter_tick_irq(v);
    return;
  }
  if (c.need_resched) {
    c.need_resched = false;
    preempt_quantum(v);
  }
}

// --- VMM callbacks -------------------------------------------------------------------

void GuestKernel::vcpu_online(std::uint32_t v) {
  if (v >= vcpus_.size()) {
    // A VCPU hot-added past our configured width (resize_vm growth): this
    // kernel has no runnable work for it, so park it (deferred — the VMM is
    // mid-dispatch when this callback fires).
    sim_.after(Cycles{1'000}, [this, v] { hv_.vcpu_block(vm_id_, v); });
    return;
  }
  VcpuCtx& c = vcpus_[v];
  assert(!c.online);
  c.online = true;
  c.halted = false;
  sim_.cancel_timer(c.tick_wake_ev);
  if (c.tick_due.v == 0) c.tick_due = sim_.now() + cfg_.tick_period;
  arm_tick(v);
  if (c.in_irq) {
    activate(c.irq_tid);
    return;
  }
  if (c.current != kNoTid) {
    activate(c.current);
    if (!c.quantum_ev.valid()) arm_quantum(v);
    return;
  }
  schedule_vcpu(v);
}

void GuestKernel::vcpu_offline(std::uint32_t v) {
  if (v >= vcpus_.size()) return;  // hot-added VCPU we never tracked
  VcpuCtx& c = vcpus_[v];
  assert(c.online);
  c.online = false;
  sim_.cancel_timer(c.tick_ev);
  // Schedule the timer-interrupt wake-up for the next tick deadline.
  if (!c.tick_wake_ev.valid()) {
    const Cycles due = c.tick_due < sim_.now() ? sim_.now() : c.tick_due;
    c.tick_wake_ev = sim_.at(due, [this, v] { tick_wake(v); });
  }
  sim_.cancel_timer(c.quantum_ev);
  sim_.cancel_timer(c.idle_ev);
  if (c.in_irq) {
    deactivate(c.irq_tid);
  } else if (c.current != kNoTid) {
    deactivate(c.current);
  }
}

// --- operations ------------------------------------------------------------------------

void GuestKernel::next_op(Tid t) {
  Thread& th = *threads_[t];
  if (th.state != TState::kCurrent) return;  // defensive
  exec_op(t, th.prog->next());
}

void GuestKernel::exec_op(Tid t, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kCompute:
      burn(t, op.len, false, [this, t] { next_op(t); });
      return;
    case Op::Kind::kCritical:
      op_critical(t, op.obj, op.len);
      return;
    case Op::Kind::kBarrier:
      op_barrier(t, op.obj);
      return;
    case Op::Kind::kSemWait:
      op_sem_wait(t, op.obj);
      return;
    case Op::Kind::kSemPost:
      op_sem_post(t, op.obj);
      return;
    case Op::Kind::kSleep:
      op_sleep(t, op.len);
      return;
    case Op::Kind::kDone:
      retire(t);
      return;
  }
}

void GuestKernel::op_sleep(Tid t, Cycles len) {
  // nanosleep-style timer wait: enter the kernel, block, and let the timer
  // wake us after `len` of wall time.
  burn(t, kSyscallEntry, false, [this, t, len] {
    sim_.after(len, [this, t] {
      if (threads_[t]->state == TState::kBlocked) make_ready(t);
    });
    park(t, [this, t] { next_op(t); });
    block_current(t);
  });
}

void GuestKernel::op_critical(Tid t, std::uint32_t mtx, Cycles hold) {
  // User-space fast path: one atomic attempt, then the futex slow path.
  burn(t, Cycles{120}, false,
       [this, t, mtx, hold] { mutex_lock_hold(t, mtx, hold); });
}

void GuestKernel::mutex_lock_hold(Tid t, std::uint32_t mtx, Cycles hold) {
  std::uint64_t& locked = futexes_[mutexes_[mtx].fq].word;
  if (locked == 0) {
    locked = 1;
    burn(t, hold, false, [this, t, mtx] { mutex_unlock(t, mtx); });
    return;
  }
  // Contended: sleep in the kernel and retry on wake (futex loop).
  futex_wait(t, mutexes_[mtx].fq, 1,
             [this, t, mtx, hold] { mutex_lock_hold(t, mtx, hold); });
}

void GuestKernel::mutex_unlock(Tid t, std::uint32_t mtx) {
  burn(t, Cycles{100}, false, [this, t, mtx] {
    const std::uint32_t fq = mutexes_[mtx].fq;
    futexes_[fq].word = 0;
    if (!futexes_[fq].sleepers.empty()) {
      futex_wake(t, fq, 1, [this, t] { next_op(t); });
    } else {
      next_op(t);
    }
  });
}

void GuestKernel::op_barrier(Tid t, std::uint32_t bar) {
  ++stats_.barrier_arrivals;
  burn(t, Cycles{150}, false, [this, t, bar] {
    Barrier& b = barriers_[bar];
    std::uint64_t& generation = futexes_[b.fq].word;
    if (++b.arrived == b.parties) {
      b.arrived = 0;
      ++generation;
      barrier_release(t, b);
      return;
    }
    const std::uint64_t g = generation;
    b.spinners.push_back(Barrier::Spinner{t, g});
    barrier_spin_loop(t, bar, g, Cycles{0});
  });
}

// Spin-then-block wait with sched_yield cadence: the waiter spins in user
// space for spin_yield_period, enters the kernel to yield (runqueue lock),
// re-checks the release flag, and repeats until the spin budget is gone --
// then it sleeps on the barrier futex. A waiter whose VCPU is preempted
// inside a yield holds the runqueue lock across the offline span (LHP).
void GuestKernel::barrier_spin_loop(Tid t, std::uint32_t bar,
                                    std::uint64_t gen, Cycles spun) {
  Barrier& b = barriers_[bar];
  const auto drop_record = [this, t, bar] {
    Barrier& bb = barriers_[bar];
    auto it = std::find_if(
        bb.spinners.begin(), bb.spinners.end(),
        [t](const Barrier::Spinner& s) { return s.tid == t; });
    if (it != bb.spinners.end()) bb.spinners.erase(it);
  };
  if (futexes_[b.fq].word != gen) {
    // Released while we were inside the kernel part of the loop; the
    // releaser could not repurpose our spin burn then, so we exit here.
    drop_record();
    burn(t, Cycles{150}, false, [this, t] { next_op(t); });
    return;
  }
  if (!b.spin_only && spun >= kUserSpinLimit) {
    drop_record();
    ++stats_.barrier_kernel_sleeps;
    futex_wait(t, b.fq, gen, [this, t] { next_op(t); });
    return;
  }
  burn(t, kSpinYieldPeriod, false, [this, t, bar, gen, spun] {
    if (futexes_[barriers_[bar].fq].word != gen) {
      barrier_spin_loop(t, bar, gen, spun);  // takes the released path
      return;
    }
    // sched_yield: kernel entry + own runqueue lock, and (with an empty
    // local runqueue) an idle_balance probe of a remote runqueue lock.
    hv_.vcpu_yield_hint(vm_id_, threads_[t]->vcpu);
    burn(t, kSyscallEntry, false, [this, t, bar, gen, spun] {
      // In the kernel now, where barrier_release leaves the thread be: park
      // the next spin round for yield_cpu.
      park(t, [this, t, bar, gen, spun] {
        barrier_spin_loop(t, bar, gen, spun + kSpinYieldPeriod);
      });
      const std::uint32_t self_v = threads_[t]->vcpu;
      const std::uint32_t rq = rq_locks_[self_v];
      const std::uint32_t remote_rq = rq_locks_[balance_target(
          self_v, spun.v / kSpinYieldPeriod.v, cfg_.yield_balance_every)];
      lock_acquire(t, rq, [this, t, rq, remote_rq](Cycles) {
        burn(t, kYieldHold, true, [this, t, rq, remote_rq] {
          lock_release(t, rq);
          if (remote_rq == rq) {
            yield_cpu(t);
            return;
          }
          lock_acquire(t, remote_rq, [this, t, remote_rq](Cycles) {
            burn(t, kBalanceHold, true, [this, t, remote_rq] {
              lock_release(t, remote_rq);
              yield_cpu(t);
            });
          });
        });
      });
    });
  });
}

void GuestKernel::yield_cpu(Tid t) {
  Thread& th = *threads_[t];
  VcpuCtx& c = vcpus_[th.vcpu];
  assert(c.current == t && th.act.kind == ActKind::kNone);
  if (c.runq.empty()) {
    unpark(t)();  // nothing else to run: yield is a no-op
    return;
  }
  th.state = TState::kReady;
  c.runq.push_back(t);
  vacate(th.vcpu);
}

void GuestKernel::barrier_release(Tid t, Barrier& b) {
  // Wake user-level spinners: those inside their user-space spin chunk
  // observe the flag immediately (their burn is repurposed); those inside
  // the kernel part of the yield notice at the next loop check. Threads
  // mid-yield keep their records until their own generation check removes
  // them (they may also time out into futex_wait, whose word re-check
  // fails and lets them through).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < b.spinners.size(); ++i) {
    const Barrier::Spinner s = b.spinners[i];
    const Thread& th = *threads_[s.tid];
    if (th.act.kind == ActKind::kBurn && !th.act.kernel) {
      repurpose_burn(s.tid, Cycles{120}, [this, st = s.tid] { next_op(st); });
    } else {
      b.spinners[kept++] = s;
    }
  }
  b.spinners.resize(kept);
  if (!futexes_[b.fq].sleepers.empty()) {
    futex_wake(t, b.fq, static_cast<std::uint32_t>(-1),
               [this, t] { next_op(t); });
  } else {
    burn(t, Cycles{100}, false, [this, t] { next_op(t); });
  }
}

void GuestKernel::op_sem_wait(Tid t, std::uint32_t s) {
  burn(t, kSyscallEntry, false, [this, t, s] {
    Semaphore& sem = semaphores_[s];
    lock_acquire(t, futexes_[sem.fq].bucket_lock,
                 [this, t, s](Cycles lock_wait) {
      burn(t, Cycles{300}, true, [this, t, s, lock_wait] {
        Semaphore& sem2 = semaphores_[s];
        FutexQ& q = futexes_[sem2.fq];
        // The reported semaphore waiting time is the CPU consumed by the
        // down() path itself: a blocked sleeper releases its VCPU so the
        // sleep span is not CPU waiting, and a contended *spinlock* stall
        // inside the path is attributed to the spinlock histogram, not to
        // the semaphore (this is why the paper finds blocking primitives
        // virtualization-tolerant; see DESIGN.md).
        Cycles path = kSyscallEntry + Cycles{300};
        path += lock_wait < Cycles{2'000} ? lock_wait : Cycles{2'000};
        stats_.sem_waits.add(path);
        if (sem2.count > 0) {
          --sem2.count;
          lock_release(t, q.bucket_lock);
          burn(t, Cycles{150}, false, [this, t] { next_op(t); });
          return;
        }
        park(t, [this, t] { next_op(t); });
        sleep_on(t, sem2.fq);
      });
    });
  });
}

void GuestKernel::op_sem_post(Tid t, std::uint32_t s) {
  burn(t, kSyscallEntry, false, [this, t, s] {
    Semaphore& sem = semaphores_[s];
    lock_acquire(t, futexes_[sem.fq].bucket_lock, [this, t, s](Cycles) {
      burn(t, Cycles{300}, true, [this, t, s] {
        Semaphore& sem2 = semaphores_[s];
        FutexQ& q = futexes_[sem2.fq];
        if (!q.sleepers.empty()) {
          // Direct handoff: the count stays zero and the sleeper proceeds.
          take_sleepers(t, sem2.fq, 1);
          lock_release(t, q.bucket_lock);
          wake_chain(t, 0, [this, t] { next_op(t); });
          return;
        }
        ++sem2.count;
        lock_release(t, q.bucket_lock);
        next_op(t);
      });
    });
  });
}

void GuestKernel::retire(Tid t) {
  Thread& th = *threads_[t];
  assert(th.state == TState::kCurrent);
  th.state = TState::kDone;
  th.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++done_count_;
  sim_.note_progress();
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kGuest,
                  [t] { return "t" + std::to_string(t) + " done"; });
  vacate(th.vcpu);
}

}  // namespace asman::guest
