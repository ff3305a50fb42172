//! The phase handshake between a segment's calling thread (the
//! [`Leader`]) and the round workers `run_to_convergence` spawns for the
//! segment. Per phase the leader publishes a [`Phase`], wakes the
//! workers, runs its own chunk and waits until every worker is done: two
//! handshakes per round. Waiting workers spin, then yield, then park with
//! a timeout, so an idle worker stops burning CPU within microseconds and
//! a missed wake-up can delay a phase but never deadlock it.
//!
//! A panic never hangs the segment. A worker that unwinds out of a phase
//! still counts as done and raises a flag, on which the leader panics
//! after the barrier; a leader that unwinds publishes [`Phase::Stop`], so
//! the scope can join every worker.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::Thread;
use std::time::Duration;

/// Upper bound on intra-round parts (the calling thread plus spawned
/// workers). Chunk bounds are validated against it.
pub(crate) const MAX_ROUND_THREADS: usize = 16;

/// How long a waiter spins before escalating: long enough to catch a
/// phase microseconds away, short enough that an oversubscribed machine
/// degrades to scheduler hand-offs instead of burning whole quanta.
const SPINS_BEFORE_YIELD: u32 = 1 << 12;

/// How many yields a worker offers after spinning before parking.
const YIELDS_BEFORE_PARK: u32 = 64;

/// Park timeout: an upper bound on wake-up latency after a long idle
/// stretch, and the self-healing interval against any missed unpark.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// What a worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Validate, sandbox and relocate its chunk.
    Relocate = 0,
    /// Deliver its chunk's outcomes: observe, choose, refresh.
    Deliver = 1,
    /// Leave the worker loop: the segment is over.
    Stop = 2,
}

/// Bits of a command word that hold the [`Phase`]; the rest count
/// commands, so every publication is a new value.
const PHASE_BITS: usize = 2;

/// State shared between the leader and the workers of one segment.
#[derive(Debug, Default)]
pub(crate) struct Handshake {
    /// The latest command: `(sequence << PHASE_BITS) | phase`. Written
    /// only by the leader; workers run one phase per new value.
    command: AtomicUsize,
    /// Workers done with the current phase.
    done: AtomicUsize,
    /// Set by a worker that unwound out of its phase.
    panicked: AtomicBool,
}

impl Handshake {
    /// Worker side: waits for a command newer than `seen` (initially 0)
    /// and returns its phase.
    pub(crate) fn next_phase(&self, seen: &mut usize) -> Phase {
        let mut spins = 0u32;
        loop {
            // ordering: Acquire — pairs with the leader's release store
            // of the command, so everything the leader wrote before
            // publishing (the serial middle's results, the `done` reset)
            // is visible before this worker runs the phase.
            let command = self.command.load(Ordering::Acquire);
            if command != *seen {
                *seen = command;
                return match command & ((1 << PHASE_BITS) - 1) {
                    0 => Phase::Relocate,
                    1 => Phase::Deliver,
                    _ => Phase::Stop,
                };
            }
            spins = spins.saturating_add(1);
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else if spins < SPINS_BEFORE_YIELD + YIELDS_BEFORE_PARK {
                std::thread::yield_now();
            } else {
                std::thread::park_timeout(PARK_TIMEOUT);
            }
        }
    }

    /// Worker side: runs one phase's work and then counts this worker
    /// done, also when the work panics.
    pub(crate) fn work(&self, work: impl FnOnce()) {
        let _done = Done(self);
        work();
    }
}

/// Counts a worker done on drop, so an unwinding worker still releases
/// the leader's barrier.
struct Done<'a>(&'a Handshake);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // ordering: Release — ordered before the `done` increment
            // below, so a leader that acquires the full count sees the
            // flag.
            self.0.panicked.store(true, Ordering::Release);
        }
        // ordering: Release — the worker's completion publication: all
        // of this phase's writes happen-before a leader that acquires
        // the full count.
        self.0.done.fetch_add(1, Ordering::Release);
    }
}

/// The calling thread's side of a segment's handshake. Dropping it
/// publishes [`Phase::Stop`].
#[derive(Debug)]
pub(crate) struct Leader<'a> {
    handshake: &'a Handshake,
    workers: Vec<Thread>,
    sequence: usize,
}

impl<'a> Leader<'a> {
    /// Leads the workers waiting on `handshake`. Create it before
    /// spawning them, so that a failed spawn still stops the rest.
    pub(crate) fn new(handshake: &'a Handshake) -> Self {
        Self {
            handshake,
            workers: Vec::new(),
            sequence: 0,
        }
    }

    /// Adds a spawned worker: every later phase waits for it.
    pub(crate) fn enlist(&mut self, worker: Thread) {
        self.workers.push(worker);
    }

    /// Publishes `phase` to every worker, runs `own` (the leader's
    /// chunk) on the calling thread, and returns once every worker has
    /// finished the phase.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked during the phase, and propagates a
    /// panic of `own`.
    pub(crate) fn run(&mut self, phase: Phase, own: impl FnOnce()) {
        let handshake = self.handshake;
        // ordering: Relaxed — published by the release store of the
        // command below; every increment of the previous phase was
        // acquired by the barrier that ended it.
        handshake.done.store(0, Ordering::Relaxed);
        self.publish(phase);
        own();
        let mut spins = 0u32;
        // ordering: Acquire — pairs with each worker's release
        // increment: once the count is full, every worker's writes for
        // this phase happen-before the leader proceeds.
        while handshake.done.load(Ordering::Acquire) < self.workers.len() {
            spins = spins.saturating_add(1);
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                // Oversubscribed (or a long chunk): hand the CPU to the
                // workers instead of burning a quantum polling.
                std::thread::yield_now();
            }
        }
        // ordering: Acquire — pairs with a panicking worker's release
        // store, which precedes its increment acquired just above.
        if handshake.panicked.load(Ordering::Acquire) {
            panic!("a round worker panicked; the simulation state is inconsistent");
        }
    }

    fn publish(&mut self, phase: Phase) {
        self.sequence += 1;
        let command = (self.sequence << PHASE_BITS) | phase as usize;
        // ordering: Release — the publication point: makes the leader's
        // writes before it (the `done` reset, the serial middle's
        // results) visible to every worker that acquires this command.
        self.handshake.command.store(command, Ordering::Release);
        for worker in &self.workers {
            worker.unpark();
        }
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        self.publish(Phase::Stop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Runs `phases` through `workers` scoped workers, each adding
    /// `1 << (8 * part)` to `hits` per phase it runs; `fail` makes the
    /// given part panic in the given phase.
    fn drive(workers: usize, phases: &[Phase], fail: Option<(usize, usize)>) -> u64 {
        let handshake = Handshake::default();
        let hits = AtomicU64::new(0);
        let work = |part: usize, index: usize| {
            if fail == Some((part, index)) {
                panic!("part {part} fails in phase {index}");
            }
            hits.fetch_add(1 << (8 * part), Ordering::Relaxed);
        };
        std::thread::scope(|s| {
            let mut leader = Leader::new(&handshake);
            for part in 1..=workers {
                let (handshake, work) = (&handshake, &work);
                let worker = s.spawn(move || {
                    let mut seen = 0;
                    let mut index = 0;
                    while handshake.next_phase(&mut seen) != Phase::Stop {
                        handshake.work(|| work(part, index));
                        index += 1;
                    }
                });
                leader.enlist(worker.thread().clone());
            }
            for (index, &phase) in phases.iter().enumerate() {
                leader.run(phase, || work(0, index));
            }
        });
        hits.load(Ordering::Relaxed)
    }

    #[test]
    fn every_part_runs_every_phase() {
        let phases = [Phase::Relocate, Phase::Deliver].repeat(50);
        // 100 phases × 4 parts, one count per byte lane.
        assert_eq!(drive(3, &phases, None), 0x6464_6464);
    }

    #[test]
    fn workers_wake_after_parking() {
        let handshake = Handshake::default();
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut seen = 0;
                while handshake.next_phase(&mut seen) != Phase::Stop {
                    handshake.work(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            let mut leader = Leader::new(&handshake);
            leader.enlist(worker.thread().clone());
            leader.run(Phase::Relocate, || {});
            // Long enough that the worker has parked.
            std::thread::sleep(Duration::from_millis(10));
            leader.run(Phase::Deliver, || {});
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_panic_on_either_side_reaches_the_caller() {
        let phases = [Phase::Relocate, Phase::Deliver].repeat(3);
        for fail in [(0, 3), (2, 0), (2, 5)] {
            let result = std::panic::catch_unwind(|| drive(2, &phases, Some(fail)));
            assert!(result.is_err(), "part {} failing went unnoticed", fail.0);
        }
    }
}
