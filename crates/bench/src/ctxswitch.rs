//! §6 I1 ablation: the context-switch Inval and user-level retry.
//!
//! Two processes stream UDMA transfers through one shared device while a
//! round-robin scheduler interleaves them at varying quanta. Every switch
//! fires the I1 Inval store; a process whose (STORE, LOAD) pair was split
//! by a switch observes a failed initiation and retries — "the user
//! process can deduce what happened and re-try its operation".

use std::cell::Cell;
use std::rc::Rc;

use shrimp_devices::StreamSink;
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, DEV_PROXY_BASE, PAGE_SIZE};
use shrimp_os::{Driver, Node, NodeConfig, Pid, Progress, Trap, Workload};
use udma_core::UdmaStatus;

/// Result of one scheduling-quantum run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CtxPoint {
    /// Operations per scheduling quantum (1 = switch after every memory
    /// reference — the harshest schedule).
    pub quantum: usize,
    /// Context switches the kernel performed.
    pub context_switches: u64,
    /// Sequences split by a context-switch Inval (LOAD saw INVALID).
    pub inval_retries: u64,
    /// Sequences refused because the device was mid-transfer.
    pub busy_retries: u64,
    /// Messages delivered (all of them — retries never lose data).
    pub messages: u64,
    /// Total simulated time, µs.
    pub elapsed_us: f64,
    /// Aggregate goodput, MB/s.
    pub mb_per_s: f64,
}

/// A process streaming `messages` transfers of `nbytes`, one memory
/// reference per driver step.
struct Sender {
    pid: Pid,
    vdev: VirtAddr,
    vproxy: VirtAddr,
    nbytes: u64,
    remaining: u64,
    loaded: bool,
    inval_retries: Rc<Cell<u64>>,
    busy_retries: Rc<Cell<u64>>,
    sent: Rc<Cell<u64>>,
}

impl Workload<StreamSink> for Sender {
    fn step(&mut self, node: &mut Node<StreamSink>) -> Result<Progress, Trap> {
        if !self.loaded {
            // First half of the initiation sequence.
            node.user_store(self.pid, self.vdev, self.nbytes as i64)?;
            self.loaded = true;
            return Ok(Progress::Ready);
        }
        // Second half: the initiating LOAD.
        self.loaded = false;
        let status = UdmaStatus::unpack(node.user_load(self.pid, self.vproxy)?);
        if status.started() {
            self.sent.set(self.sent.get() + 1);
            self.remaining -= 1;
            return Ok(if self.remaining == 0 { Progress::Done } else { Progress::Ready });
        }
        if status.should_retry() {
            // Redo the whole two-instruction sequence. INVALID means a
            // context-switch Inval consumed the latched destination (I1);
            // TRANSFERRING means the shared device was simply busy — let
            // it drain so retries terminate.
            if status.transferring {
                self.busy_retries.set(self.busy_retries.get() + 1);
                let drained = node.machine().udma_drained_at();
                node.machine_mut().advance_to(drained);
            } else {
                self.inval_retries.set(self.inval_retries.get() + 1);
            }
            return Ok(Progress::Ready);
        }
        Err(Trap::DeviceError { code: status.device_error })
    }
}

/// A compute-only process: touches its own memory every step, causing
/// context switches without competing for the UDMA device (the classic
/// "interactive process" in a multiprogrammed mix). Finishes once every
/// sender is done.
struct Toucher {
    pid: Pid,
    va: VirtAddr,
    sent: Rc<Cell<u64>>,
    target: u64,
}

impl Workload<StreamSink> for Toucher {
    fn step(&mut self, node: &mut Node<StreamSink>) -> Result<Progress, Trap> {
        node.user_store(self.pid, self.va, 1)?;
        Ok(if self.sent.get() >= self.target { Progress::Done } else { Progress::Ready })
    }
}

/// Runs `senders` competing processes, each sending `messages` transfers of
/// `nbytes`, plus `touchers` compute-only processes, at each scheduling
/// quantum.
pub fn sweep_mixed(
    quanta: &[usize],
    senders: u32,
    touchers: u32,
    messages: u64,
    nbytes: u64,
) -> Vec<CtxPoint> {
    sweep_inner(quanta, senders, touchers, messages, nbytes)
}

/// [`sweep_mixed`] with no compute-only processes.
pub fn sweep(quanta: &[usize], senders: u32, messages: u64, nbytes: u64) -> Vec<CtxPoint> {
    sweep_inner(quanta, senders, 0, messages, nbytes)
}

fn sweep_inner(
    quanta: &[usize],
    senders: u32,
    touchers: u32,
    messages: u64,
    nbytes: u64,
) -> Vec<CtxPoint> {
    let mut out = Vec::new();
    for &quantum in quanta {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 512 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: None,
        };
        let mut node = Node::new(config, StreamSink::new("sink"));
        let inval_retries = Rc::new(Cell::new(0));
        let busy_retries = Rc::new(Cell::new(0));
        let sent = Rc::new(Cell::new(0));
        let mut driver = Driver::new(quantum);
        for s in 0..senders {
            let pid = node.spawn();
            let va = 0x10_0000 + u64::from(s) * PAGE_SIZE;
            node.mmap(pid, va, 1, true).expect("map");
            node.grant_device_proxy(pid, u64::from(s), 1, true).expect("grant");
            node.write_user(pid, VirtAddr::new(va), &vec![1u8; nbytes as usize]).expect("fill");
            let vproxy = node
                .machine()
                .layout()
                .proxy_of_virt(VirtAddr::new(va))
                .expect("buffer in memory region");
            // Fault in the proxy mappings once so steps are pure references.
            let _ = node.user_load(pid, vproxy).expect("warm proxy");
            node.user_store(pid, vproxy, nbytes as i64).expect("warm dirty/writable");
            node.machine_mut().kernel_inval_udma();
            driver.add(Sender {
                pid,
                vdev: VirtAddr::new(DEV_PROXY_BASE + u64::from(s) * PAGE_SIZE),
                vproxy,
                nbytes,
                remaining: messages,
                loaded: false,
                inval_retries: Rc::clone(&inval_retries),
                busy_retries: Rc::clone(&busy_retries),
                sent: Rc::clone(&sent),
            });
        }
        for t in 0..touchers {
            let pid = node.spawn();
            let va = 0x80_0000 + u64::from(t) * PAGE_SIZE;
            node.mmap(pid, va, 1, true).expect("map toucher");
            node.user_store(pid, VirtAddr::new(va), 0).expect("warm toucher");
            driver.add(Toucher {
                pid,
                va: VirtAddr::new(va),
                sent: Rc::clone(&sent),
                target: u64::from(senders) * messages,
            });
        }
        let t0 = node.machine().now();
        driver.run(&mut node).expect("run senders");
        let drained = node.machine().udma_drained_at();
        node.machine_mut().advance_to(drained);
        let elapsed = node.machine().now() - t0;
        let total_msgs = sent.get();
        out.push(CtxPoint {
            quantum,
            context_switches: node.counters().context_switches.get(),
            inval_retries: inval_retries.get(),
            busy_retries: busy_retries.get(),
            messages: total_msgs,
            elapsed_us: elapsed.as_micros_f64(),
            mb_per_s: (total_msgs * nbytes) as f64 / elapsed.as_micros_f64(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_os::Driver;

    #[test]
    fn all_messages_survive_every_quantum() {
        for p in sweep(&[2, 3, 4, 16], 2, 8, 1024) {
            assert_eq!(p.messages, 16, "quantum {}: messages lost", p.quantum);
        }
    }

    #[test]
    fn harsher_schedules_force_more_switches_and_retries() {
        let points = sweep(&[3, 16], 2, 8, 1024);
        assert!(points[0].context_switches > points[1].context_switches);
        // Contention retries (busy device) occur at every quantum.
        assert!(points[0].busy_retries + points[0].inval_retries > 0);
        assert!(points[1].busy_retries + points[1].inval_retries > 0);
    }

    #[test]
    fn odd_quanta_split_initiation_sequences() {
        // One sender + one compute process: an odd quantum leaves a
        // trailing STORE at the end of each sender slice; the compute
        // process's switch Invals it and the sender's next LOAD observes
        // INVALID — a pure I1 retry (tiny transfers keep the device idle
        // across slices, so contention can't mask the effect). An even
        // quantum keeps every (STORE, LOAD) pair inside one slice.
        let odd = sweep_mixed(&[3], 1, 1, 8, 8);
        let even = sweep_mixed(&[2], 1, 1, 8, 8);
        assert!(odd[0].inval_retries > 0, "odd quantum: {:?}", odd[0]);
        assert!(
            even[0].inval_retries < odd[0].inval_retries,
            "even {:?} vs odd {:?}",
            even[0],
            odd[0]
        );
    }

    #[test]
    fn quantum_one_livelocks_by_construction() {
        // Switching after EVERY reference puts an Inval between each
        // process's STORE and LOAD: no initiation can ever complete. The
        // paper's schedule (switches are rare relative to two
        // instructions) avoids this by many orders of magnitude; the
        // bounded driver lets us observe the pathology safely.
        let mut node = shrimp_os::Node::new(
            shrimp_os::NodeConfig::default(),
            shrimp_devices::StreamSink::new("sink"),
        );
        let retries = Rc::new(Cell::new(0));
        let sent = Rc::new(Cell::new(0));
        let mut driver = Driver::new(1);
        for s in 0..2u64 {
            let pid = node.spawn();
            let va = 0x10_0000 + s * PAGE_SIZE;
            node.mmap(pid, va, 1, true).unwrap();
            node.grant_device_proxy(pid, s, 1, true).unwrap();
            let vproxy = node.machine().layout().proxy_of_virt(VirtAddr::new(va)).unwrap();
            node.user_store(pid, vproxy, 64).unwrap();
            node.machine_mut().kernel_inval_udma();
            driver.add(Sender {
                pid,
                vdev: VirtAddr::new(DEV_PROXY_BASE + s * PAGE_SIZE),
                vproxy,
                nbytes: 64,
                remaining: 1,
                loaded: false,
                inval_retries: Rc::clone(&retries),
                busy_retries: Rc::clone(&retries),
                sent: Rc::clone(&sent),
            });
        }
        let outcome = driver.run_bounded(&mut node, 2_000).unwrap();
        assert_eq!(outcome, None, "quantum 1 must never finish");
        assert_eq!(sent.get(), 0, "no initiation can complete");
        assert!(retries.get() > 100, "continuous I1 retries");
    }

    #[test]
    fn throughput_improves_with_longer_quanta() {
        let points = sweep(&[2, 16], 2, 8, 2048);
        assert!(
            points[1].mb_per_s >= points[0].mb_per_s,
            "q=16 {:.2} MB/s !>= q=2 {:.2} MB/s",
            points[1].mb_per_s,
            points[0].mb_per_s
        );
    }
}
