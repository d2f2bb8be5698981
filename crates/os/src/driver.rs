//! Multiprogramming driver: round-robin execution of [`Workload`]s.
//!
//! The simulation cannot preempt Rust code, so multiprogramming is modelled
//! at operation granularity: each workload exposes small steps, and the
//! [`Driver`] rotates between workloads every `quantum_steps` steps. When
//! the next workload belongs to a different process, its first operation
//! triggers a real context switch — including the I1 Inval store — so
//! interleavings that split a two-instruction initiation sequence occur
//! naturally (and deterministically).

use shrimp_devices::Device;

use crate::{Node, Trap};

/// What a workload step reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// More steps to run.
    Ready,
    /// Finished; do not schedule again.
    Done,
}

/// One schedulable activity (usually: one process's program).
pub trait Workload<D: Device> {
    /// Runs one step against the node.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] the step's operations raise; the driver aborts on the
    /// first trap.
    fn step(&mut self, node: &mut Node<D>) -> Result<Progress, Trap>;
}

impl<D: Device, F> Workload<D> for F
where
    F: FnMut(&mut Node<D>) -> Result<Progress, Trap>,
{
    fn step(&mut self, node: &mut Node<D>) -> Result<Progress, Trap> {
        self(node)
    }
}

/// Round-robin scheduler over a set of workloads.
pub struct Driver<'a, D: Device> {
    workloads: Vec<Box<dyn Workload<D> + 'a>>,
    quantum_steps: usize,
}

impl<'a, D: Device> Driver<'a, D> {
    /// A driver that rotates after `quantum_steps` steps of each workload
    /// (1 = interleave every operation, the harshest schedule for I1).
    ///
    /// # Panics
    ///
    /// Panics if `quantum_steps` is zero.
    pub fn new(quantum_steps: usize) -> Self {
        assert!(quantum_steps > 0, "quantum must be positive");
        Driver { workloads: Vec::new(), quantum_steps }
    }

    /// Adds a workload.
    pub fn add(&mut self, w: impl Workload<D> + 'a) -> &mut Self {
        self.workloads.push(Box::new(w));
        self
    }

    /// Runs all workloads to completion; returns total steps executed.
    ///
    /// # Errors
    ///
    /// The first [`Trap`] any workload raises.
    ///
    /// # Panics
    ///
    /// Panics if the workloads livelock (exceed an internal step budget).
    /// Note that a quantum of 1 over workloads that each need two
    /// consecutive references *will* livelock a UDMA initiation pair: the
    /// other workload's context switch fires the I1 Inval between every
    /// STORE and LOAD. Use [`Driver::run_bounded`] to observe that
    /// behaviour without panicking.
    pub fn run(&mut self, node: &mut Node<D>) -> Result<u64, Trap> {
        match self.run_bounded(node, 100_000_000)? {
            Some(steps) => Ok(steps),
            None => panic!("driver livelock: step budget exhausted"),
        }
    }

    /// Runs until every workload is done or `max_steps` total steps have
    /// executed. Returns `Some(steps)` on completion, `None` when the
    /// budget ran out first.
    ///
    /// # Errors
    ///
    /// The first [`Trap`] any workload raises.
    pub fn run_bounded(&mut self, node: &mut Node<D>, max_steps: u64) -> Result<Option<u64>, Trap> {
        let mut live: Vec<bool> = vec![true; self.workloads.len()];
        let mut steps = 0u64;
        while live.iter().any(|&l| l) {
            for (i, workload) in self.workloads.iter_mut().enumerate() {
                if !live[i] {
                    continue;
                }
                for _ in 0..self.quantum_steps {
                    if steps >= max_steps {
                        return Ok(None);
                    }
                    steps += 1;
                    match workload.step(node)? {
                        Progress::Ready => {}
                        Progress::Done => {
                            live[i] = false;
                            break;
                        }
                    }
                }
            }
        }
        Ok(Some(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeConfig, Pid};
    use shrimp_devices::StreamSink;
    use shrimp_mem::VirtAddr;

    fn node() -> Node<StreamSink> {
        Node::new(NodeConfig::default(), StreamSink::new("sink"))
    }

    /// A workload that stores an incrementing counter `n` times.
    struct CounterLoop {
        pid: Pid,
        remaining: u32,
    }

    impl Workload<StreamSink> for CounterLoop {
        fn step(&mut self, node: &mut Node<StreamSink>) -> Result<Progress, Trap> {
            node.user_store(self.pid, VirtAddr::new(0x10000), i64::from(self.remaining))?;
            self.remaining -= 1;
            Ok(if self.remaining == 0 { Progress::Done } else { Progress::Ready })
        }
    }

    #[test]
    fn runs_workloads_to_completion() {
        let mut n = node();
        let a = n.spawn();
        let b = n.spawn();
        n.mmap(a, 0x10000, 1, true).unwrap();
        n.mmap(b, 0x10000, 1, true).unwrap();
        let mut driver = Driver::new(1);
        driver.add(CounterLoop { pid: a, remaining: 5 });
        driver.add(CounterLoop { pid: b, remaining: 3 });
        let steps = driver.run(&mut n).unwrap();
        assert_eq!(steps, 8);
        // Interleaving at quantum 1 forces switches between every step of
        // different pids.
        assert!(n.counters().context_switches.get() >= 6);
    }

    #[test]
    fn closure_workloads_work() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        let mut count = 0;
        let mut driver = Driver::new(2);
        driver.add(move |node: &mut Node<StreamSink>| {
            node.user_store(pid, VirtAddr::new(0x10000), 1)?;
            count += 1;
            Ok(if count == 4 { Progress::Done } else { Progress::Ready })
        });
        assert_eq!(driver.run(&mut n).unwrap(), 4);
    }

    #[test]
    fn larger_quantum_reduces_switches() {
        let run_with_quantum = |q: usize| {
            let mut n = node();
            let a = n.spawn();
            let b = n.spawn();
            n.mmap(a, 0x10000, 1, true).unwrap();
            n.mmap(b, 0x10000, 1, true).unwrap();
            let mut driver = Driver::new(q);
            driver.add(CounterLoop { pid: a, remaining: 8 });
            driver.add(CounterLoop { pid: b, remaining: 8 });
            driver.run(&mut n).unwrap();
            n.counters().context_switches.get()
        };
        assert!(run_with_quantum(1) > run_with_quantum(8));
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        let _: Driver<'_, StreamSink> = Driver::new(0);
    }
}
