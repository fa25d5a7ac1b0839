//! Power-aware task scheduling (§4.5).
//!
//! "The *Pogo* framework abstracts away the complexities of setting
//! alarms and managing wake locks through a *scheduler* component that
//! executes submitted tasks in a thread pool, and supports delayed
//! execution. … When there are no tasks to execute, the CPU can safely go
//! to sleep."
//!
//! In the single-threaded simulation the "thread pool" degenerates to
//! ordered execution on the event loop — which also gives the paper's
//! per-script serialization guarantee ("only a single thread will run
//! code from a given script at any time") for free. What remains
//! essential is the power side: every scheduled task is backed by an
//! *alarm* so the CPU may deep-sleep between tasks and is woken to run
//! them.

use std::cell::Cell;
use std::rc::Rc;

use pogo_platform::{AlarmId, Cpu, RepeatingAlarm};
use pogo_sim::SimDuration;

/// The middleware task scheduler. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Scheduler {
    cpu: Cpu,
    tasks_run: Rc<Cell<u64>>,
    obs: pogo_obs::Metrics,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("tasks_run", &self.tasks_run.get())
            .finish()
    }
}

impl Scheduler {
    /// Creates a scheduler driving tasks through `cpu` alarms.
    pub fn new(cpu: &Cpu) -> Self {
        Scheduler {
            cpu: cpu.clone(),
            tasks_run: Rc::new(Cell::new(0)),
            obs: pogo_obs::Metrics::off(),
        }
    }

    /// Like [`Scheduler::new`], also counting executed tasks into the
    /// `scheduler.tasks` metric of `obs`.
    pub fn with_obs(cpu: &Cpu, obs: &pogo_obs::Obs) -> Self {
        Scheduler {
            cpu: cpu.clone(),
            tasks_run: Rc::new(Cell::new(0)),
            obs: obs.metrics().clone(),
        }
    }

    /// The CPU this scheduler wakes.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Runs `task` after `delay`, waking the CPU if necessary.
    pub fn run_later(&self, delay: SimDuration, task: impl FnOnce() + 'static) -> AlarmId {
        let counter = self.tasks_run.clone();
        let obs = self.obs.clone();
        self.cpu.set_alarm_in(delay, move || {
            counter.set(counter.get() + 1);
            obs.inc("scheduler.tasks", 1);
            task();
        })
    }

    /// Wraps `task` for a periodic caller: each
    /// [`RepeatingAlarm::set_in`] on the result runs it once more, counted
    /// and woken for like a [`Scheduler::run_later`] task, and
    /// [`Scheduler::cancel`] takes the id it returns.
    pub fn repeating(&self, task: impl Fn() + 'static) -> RepeatingAlarm {
        let counter = self.tasks_run.clone();
        let obs = self.obs.clone();
        self.cpu.repeating_alarm(move || {
            counter.set(counter.get() + 1);
            obs.inc("scheduler.tasks", 1);
            task();
        })
    }

    /// Runs `task` as soon as possible (still via the event loop, so the
    /// current call stack unwinds first — matching asynchronous delivery
    /// of publish/subscribe events).
    pub fn run_soon(&self, task: impl FnOnce() + 'static) -> AlarmId {
        self.run_later(SimDuration::ZERO, task)
    }

    /// Cancels a pending task.
    pub fn cancel(&self, id: AlarmId) -> bool {
        self.cpu.cancel_alarm(id)
    }

    /// Number of tasks executed.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_platform::{CpuConfig, EnergyMeter};
    use pogo_sim::{Sim, SimTime};

    fn setup() -> (Sim, Cpu, Scheduler) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let cpu = Cpu::new(&sim, &meter, CpuConfig::default());
        let sched = Scheduler::new(&cpu);
        (sim, cpu, sched)
    }

    #[test]
    fn delayed_task_wakes_sleeping_cpu() {
        let (sim, cpu, sched) = setup();
        sim.run_for(SimDuration::from_secs(10));
        assert!(!cpu.is_awake());
        let ran_at = Rc::new(Cell::new(None));
        let r = ran_at.clone();
        let s = sim.clone();
        sched.run_later(SimDuration::from_secs(60), move || {
            r.set(Some(s.now()));
        });
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(ran_at.get(), Some(SimTime::from_millis(70_000)));
        assert_eq!(cpu.wakeups(), 1);
        assert_eq!(sched.tasks_run(), 1);
    }

    #[test]
    fn run_soon_defers_to_event_loop() {
        let (sim, _cpu, sched) = setup();
        let ran = Rc::new(Cell::new(false));
        let r = ran.clone();
        sched.run_soon(move || r.set(true));
        assert!(!ran.get(), "not synchronous");
        sim.run_until_idle();
        assert!(ran.get());
    }

    #[test]
    fn cancelled_task_never_runs() {
        let (sim, _cpu, sched) = setup();
        let ran = Rc::new(Cell::new(false));
        let r = ran.clone();
        let id = sched.run_later(SimDuration::from_secs(1), move || r.set(true));
        assert!(sched.cancel(id));
        sim.run_for(SimDuration::from_secs(5));
        assert!(!ran.get());
        assert_eq!(sched.tasks_run(), 0);
    }

    #[test]
    fn cpu_sleeps_between_tasks() {
        let (sim, cpu, sched) = setup();
        for i in 1..=3u64 {
            sched.run_later(SimDuration::from_mins(i * 10), || {});
        }
        sim.run_for(SimDuration::from_mins(35));
        // Awake only boot linger + 3 × (alarm linger) ≈ 4 × 1.2 s.
        let awake = cpu.awake_time().as_secs_f64();
        assert!(awake < 6.0, "awake {awake}s");
        assert_eq!(cpu.wakeups(), 3);
    }
}
