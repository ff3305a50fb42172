//! The synchronous executor: drives a colony of agents against an
//! environment, applying fault and asynchrony perturbations.
//!
//! [`Simulation`] owns an [`Environment`] plus a [`Colony`] (one agent
//! per ant) and advances them in lockstep rounds:
//!
//! 1. every live, undelayed agent chooses its action for the round;
//! 2. crashed and delayed ants get a location-preserving no-op instead
//!    (and, being skipped, never observe the round — the paper's
//!    synchrony-fragility experiments rest on exactly this);
//! 3. illegal actions (a Byzantine agent probing, or an agent bug) are
//!    sandboxed: replaced by a no-op and counted, never aborting the run;
//! 4. the environment resolves the round; every agent whose own action
//!    ran receives its outcome.
//!
//! ## Engine invariants (the data-oriented hot path)
//!
//! * **Zero allocation at steady state.** The per-round action buffer,
//!   the chose/ran bitmasks, and the environment's [`StepReport`] live in
//!   a persistent [`RoundScratch`]; the environment resolves each round
//!   in place through the two halves of [`Environment::split_round`] (the
//!   per-ant chunk view and the colony-level state) and reuses its
//!   pairing scratch. After the first round, stepping allocates nothing.
//! * **Static dispatch.** Agents are [`AnyAgent`](hh_core::AnyAgent)
//!   variants in one contiguous vector; only the `Custom` escape hatch
//!   pays a vtable call.
//! * **Incremental live tally.** The colony's snapshot cache and the
//!   executor's live-honest commitment tally are updated per stepped
//!   agent ([`Colony::refresh`]), never by rescanning the colony, so the
//!   convergence [`Detector`](crate::Detector) reads O(k) state instead
//!   of touching all n agents every round. The [`RoleCensus`], which
//!   only metrics read, is counted from the snapshot cache on demand.
//! * **Deterministic intra-round parallelism.** Agents are independent
//!   within a round, so the per-ant phases — validate/relocate/tally and
//!   the fused outcome/observe/choose/refresh pass — run over disjoint
//!   colony chunks ([`Simulation::with_round_threads`]). Each
//!   [`run_to_convergence`](Simulation::run_to_convergence) call spawns
//!   its round workers once, inside `std::thread::scope`, and each worker
//!   borrows one chunk of the per-ant state for the whole segment; the
//!   stepping APIs run the same chunk code inline on the calling thread.
//!   Every random draw attributable to an ant comes from that ant's own
//!   stream (see the `hh_model::env` docs on randomness ownership), each
//!   chunk writes only its own rows, and per-chunk tally/count deltas
//!   are merged in chunk order at the barrier — so every thread count,
//!   including the serial `round_threads = 1` default, produces
//!   **bit-identical** results. Only the Algorithm 1 pairing stays
//!   serial, as the paper's one colony-level process; it reads the
//!   chunks' recruit calls in place, in chunk order, and writes no
//!   per-ant state. It builds only what the outcomes read: the calls
//!   and the pairs as ant ids go into the [`StepReport`] only on the
//!   rounds that return it ([`Simulation::step`],
//!   [`Simulation::step_in_place`], [`Simulation::run_observed`]).
//! * **Fault state only where there are faults.** An unperturbed
//!   simulation holds no fault plan and makes no per-ant fault query.
//!   A perturbed one runs every round on the serial scalar path,
//!   whatever the thread setting, which preserves the contract
//!   trivially. Handling crashes and delays inside the fused chunked
//!   pass instead measured 0.99–1.22× the serial path's time per round
//!   over three designs on the n = 128 perturbed catalog scenarios — the
//!   colony size of the crash and delay sweeps, where round threads
//!   cannot help either.

use std::ops::DerefMut;
use std::sync::{Mutex, MutexGuard, RwLock};

use hh_core::colony::AgentSnapshot;
use hh_core::{AgentRole, AnyAgent, Colony};
use hh_model::faults::{noop_action, CrashPlan, CrashStyle, DelayPlan};
use hh_model::recruitment::RecruitCall;
use hh_model::{Action, AntChunk, AntId, Environment, NestId, Outcome, SharedRound, StepReport};

use crate::convergence::{ConvergenceRule, Detector, Solved};
use crate::error::SimError;
use crate::handshake::{Handshake, Leader, Phase, MAX_ROUND_THREADS};

pub use hh_core::RoleCensus;

/// The fault/asynchrony plans applied to one execution (Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbations {
    /// Permanent crash-stop schedule.
    pub crash: CrashPlan,
    /// Per-(ant, round) delay plan (partial asynchrony).
    pub delay: DelayPlan,
}

impl Perturbations {
    /// No perturbations, for a colony of `n` ants — the baseline model.
    #[must_use]
    pub fn none(n: usize) -> Self {
        Self {
            crash: CrashPlan::none(n),
            delay: DelayPlan::never(),
        }
    }

    /// Returns `true` if neither plan perturbs anything.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.crash.is_empty() && self.delay.probability() == 0.0
    }
}

/// Which round engine drives an unperturbed simulation.
///
/// Both engines implement the identical round semantics; the
/// `oracle_equivalence` suite pins them bit-identical (equal seeds
/// produce equal [`RunOutcome`]s and equal round-by-round census
/// tallies) across the whole scenario catalog.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The scalar oracle: one match-per-ant pass per phase, always
    /// serial. This is the path perturbed rounds run on, here with no
    /// fault plan to consult — the simplest correct rendering of the
    /// round semantics, kept as the reference the fused engine is
    /// bit-identity-tested against.
    Scalar,
    /// The fast path: one fused observe/choose/refresh pass per round
    /// over the colony's agents and cached snapshots, with optional
    /// intra-round chunk parallelism
    /// ([`Simulation::with_round_threads`]).
    #[default]
    Fused,
}

/// Outcome of a bounded run (see [`Simulation::run_to_convergence`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The detected convergence, if any.
    pub solved: Option<Solved>,
    /// Rounds actually executed.
    pub rounds_run: u64,
    /// Actions replaced by crash/delay no-ops.
    pub replaced_actions: u64,
    /// Illegal agent actions sandboxed into no-ops.
    pub illegal_actions: u64,
}

/// Persistent per-round buffers, reused so stepping never allocates at
/// steady state.
#[derive(Debug, Default)]
struct RoundScratch {
    /// One action per ant: the round's, or, between fast-path rounds,
    /// the next round's pre-chosen one (see `step_round_fast`).
    actions: Vec<Action>,
    /// `chose[a]`: agent `a`'s `choose` ran this round (its state may
    /// have changed, so its snapshot needs a refresh).
    chose: Vec<bool>,
    /// `ran[a]`: agent `a`'s own action executed, so it observes.
    ran: Vec<bool>,
    /// The environment's report, refilled in place each round.
    report: StepReport,
}

/// Commitment/finality tallies over the *live honest* colony, kept
/// current per stepped agent by the executor and read by the
/// convergence [`Detector`](crate::Detector), so the detector reads
/// O(k) state instead of rescanning the colony every round.
///
/// The counters are signed so that a cleared tally doubles as a
/// per-worker delta: each chunk of the parallel agent pass
/// [`apply`](Self::apply)s its agents' transitions to its own cleared
/// tally, and the barrier [`merge`](Self::merge)s the chunks in chunk
/// order. Crashed ants leave the tally at their crash round (their
/// state machines are frozen); dishonest agents never enter it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveTally {
    /// Live honest agents.
    total: isize,
    /// Of those, agents with no committed nest.
    uncommitted: isize,
    /// Of those, agents whose role is [`AgentRole::Final`].
    finals: isize,
    /// Commitments per raw nest id (grown on demand).
    commits: Vec<isize>,
}

impl LiveTally {
    /// Zeroes every counter, keeping the commit buffer.
    fn clear(&mut self) {
        self.total = 0;
        self.uncommitted = 0;
        self.finals = 0;
        self.commits.fill(0);
    }

    /// Folds one agent's snapshot transition into the tally. Honesty may
    /// legitimately vary for `Custom` agents, so only states that were
    /// (are) honest leave (enter) the tally.
    #[inline]
    fn apply(&mut self, old: &AgentSnapshot, new: &AgentSnapshot) {
        if old == new {
            return;
        }
        if old.honest {
            self.shift(old, -1);
        }
        if new.honest {
            self.shift(new, 1);
        }
    }

    /// Adds (`sign = 1`) or removes (`sign = -1`) one agent's state.
    #[inline]
    fn shift(&mut self, snapshot: &AgentSnapshot, sign: isize) {
        self.total += sign;
        self.finals += isize::from(snapshot.role == AgentRole::Final) * sign;
        match snapshot.committed {
            None => self.uncommitted += sign,
            Some(nest) => {
                let raw = nest.raw();
                if raw >= self.commits.len() {
                    self.commits.resize(raw + 1, 0);
                }
                self.commits[raw] += sign;
            }
        }
    }

    /// Adds a per-worker delta (a tally cleared before its chunk's
    /// pass). The end state is identical to having applied every agent
    /// transition directly.
    fn merge(&mut self, delta: &LiveTally) {
        self.total += delta.total;
        self.uncommitted += delta.uncommitted;
        self.finals += delta.finals;
        if self.commits.len() < delta.commits.len() {
            self.commits.resize(delta.commits.len(), 0);
        }
        for (count, change) in self.commits.iter_mut().zip(&delta.commits) {
            *count += change;
        }
        debug_assert!(
            self.total >= 0 && self.commits.iter().all(|&count| count >= 0),
            "live tally underflow: a delta not produced against this tally"
        );
    }

    /// Live honest agents currently tallied.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        usize::try_from(self.total).expect("a merged tally is never negative")
    }

    /// The nest every live honest agent is committed to, if they all
    /// agree; `None` when the tally is empty, anyone is uncommitted, or
    /// two agents disagree.
    pub(crate) fn consensus(&self) -> Option<NestId> {
        if self.total == 0 || self.uncommitted > 0 {
            return None;
        }
        let mut held = (0..self.commits.len()).filter(|&raw| self.commits[raw] > 0);
        match (held.next(), held.next()) {
            (Some(raw), None) => Some(NestId::from_raw(raw)),
            _ => None,
        }
    }

    /// `true` if every live honest agent reports the final state.
    pub(crate) fn all_final(&self) -> bool {
        self.finals == self.total
    }

    /// The nest satisfying `good` that holds at least `fraction` of the
    /// live honest colony's commitments, if any; the highest count wins,
    /// lowest nest id breaking ties.
    pub(crate) fn quorum(&self, fraction: f64, good: impl Fn(NestId) -> bool) -> Option<NestId> {
        if self.total == 0 {
            return None;
        }
        let needed = ((fraction * self.total as f64).ceil() as isize).max(1);
        let mut best: Option<(isize, NestId)> = None;
        for (raw, &count) in self.commits.iter().enumerate() {
            if count >= needed && best.is_none_or(|(c, _)| count > c) {
                let nest = NestId::from_raw(raw);
                if good(nest) {
                    best = Some((count, nest));
                }
            }
        }
        best.map(|(_, nest)| nest)
    }
}

/// Per-chunk round state: everything a chunk writes besides its own
/// rows, merged serially in chunk order at the barriers so results never
/// depend on the thread count. Buffers persist across rounds — the
/// steady state allocates nothing. Aligned so that neighbouring chunks'
/// counters share no cache line: about 2 % more rounds/s on 16 384 ants
/// at two round threads (5 of 5 interleaved pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct WorkerScratch {
    /// Phase 1: this chunk's population tally (length `k + 1`).
    counts: Vec<usize>,
    /// Phase 1: this chunk's recruit calls, in ant order, which the
    /// serial middle pairs in place.
    calls: Vec<RecruitCall>,
    /// Phase 1: illegal actions sandboxed in this chunk.
    illegal: u64,
    /// Serial middle → phase 2: the chunk's first recruiter rank among
    /// the round's calls (its call cursor start).
    cursor: usize,
    /// Phase 2: this chunk's live-tally delta.
    tally: LiveTally,
}

/// One synchronous execution: environment + colony + perturbations.
///
/// # Examples
///
/// ```
/// use hh_core::colony;
/// use hh_sim::{ConvergenceRule, Simulation};
/// use hh_model::{ColonyConfig, Environment, QualitySpec};
///
/// let n = 24;
/// let config = ColonyConfig::new(n, QualitySpec::good_prefix(3, 1)).seed(5);
/// let env = Environment::new(&config)?;
/// let mut sim = Simulation::new(env, colony::simple(n, 5))?;
/// let outcome = sim.run_to_convergence(ConvergenceRule::commitment(), 10_000)?;
/// assert!(outcome.solved.is_some());
/// # Ok::<(), hh_sim::SimError>(())
/// ```
pub struct Simulation {
    env: Environment,
    colony: Colony,
    /// The fault plans; `None` for an unperturbed simulation, which
    /// takes the fast path and holds no per-ant fault state.
    perturbations: Option<Perturbations>,
    /// The first round this simulation executes. A crashed ant leaves
    /// the live tally in the first executed round it is crashed in.
    first_round: u64,
    replaced_actions: u64,
    illegal_actions: u64,
    /// Which engine steps unperturbed rounds (perturbed rounds always
    /// run the scalar path).
    engine: EngineKind,
    /// Fast path: `scratch.actions` holds the upcoming round's
    /// pre-chosen actions.
    prechosen: bool,
    live: LiveTally,
    scratch: RoundScratch,
    /// Ant-chunk boundaries, one more than the intra-round parts
    /// (`[0, n]` = serial). See
    /// [`with_round_threads`](Simulation::with_round_threads).
    chunk_bounds: Vec<usize>,
    /// One scratch per part, merged in part order at the barriers. The
    /// inline paths use only the first.
    worker_scratch: Vec<WorkerScratch>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("round", &self.env.round())
            .field("n", &self.env.n())
            .field("k", &self.env.k())
            .field("perturbations", &self.perturbations)
            .field("replaced_actions", &self.replaced_actions)
            .field("illegal_actions", &self.illegal_actions)
            .field("round_threads", &self.round_threads())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Creates an unperturbed simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AgentCountMismatch`] if the colony's size
    /// differs from the environment's.
    pub fn new(env: Environment, agents: impl Into<Colony>) -> Result<Self, SimError> {
        Self::with_perturbations(env, agents, None)
    }

    /// Creates a simulation with explicit perturbation plans (`None` for
    /// the unperturbed baseline). Plans that perturb nothing
    /// ([`Perturbations::is_none`]) are dropped, so such a simulation
    /// runs exactly as the unperturbed one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AgentCountMismatch`] if the colony's size
    /// differs from the environment's, and
    /// [`SimError::PlanSizeMismatch`] if the crash plan covers a
    /// different number of ants.
    pub fn with_perturbations(
        env: Environment,
        agents: impl Into<Colony>,
        perturbations: Option<Perturbations>,
    ) -> Result<Self, SimError> {
        let colony: Colony = agents.into();
        if colony.len() != env.n() {
            return Err(SimError::AgentCountMismatch {
                agents: colony.len(),
                n: env.n(),
            });
        }
        let n = env.n();
        if let Some(plan) = &perturbations {
            if plan.crash.len() != n {
                return Err(SimError::PlanSizeMismatch {
                    plan: plan.crash.len(),
                    n,
                });
            }
        }
        let mut live = LiveTally::default();
        // A branch rather than `.filter()`: the filtered copies measured
        // about 3x slower here (store-forwarding stalls on x86-64).
        for snapshot in colony.iter_snapshots() {
            if snapshot.honest {
                live.shift(&snapshot, 1);
            }
        }
        Ok(Self {
            first_round: env.round() + 1,
            env,
            colony,
            perturbations: perturbations.filter(|plan| !plan.is_none()),
            replaced_actions: 0,
            illegal_actions: 0,
            engine: EngineKind::default(),
            prechosen: false,
            live,
            scratch: RoundScratch::default(),
            chunk_bounds: vec![0, n],
            worker_scratch: vec![WorkerScratch::default()],
        })
    }

    /// Sets the number of intra-round parts. `threads` is clamped to
    /// `1..=16`; 1 restores the serial engine.
    ///
    /// Each [`run_to_convergence`](Self::run_to_convergence) call spawns
    /// `threads - 1` round workers that live for that call only and runs
    /// chunk 0 on the calling thread. The stepping APIs run the same
    /// chunk code inline.
    ///
    /// **Determinism contract:** every thread count produces
    /// bit-identical executions — inline and on workers the rounds run
    /// the same chunk code, all per-ant randomness lives in per-ant
    /// streams, and per-chunk deltas merge in chunk order. The
    /// oracle-equivalence suite enforces this across the whole catalog.
    ///
    /// **Perturbed simulations ignore this setting at execution time**:
    /// their rounds always run on the serial scalar path, no worker is
    /// spawned, and the outcomes are bit-identical to the serial run by
    /// construction — the setting is remembered but inert. The same
    /// applies to `Scenario::round_threads` in the registry. Running
    /// crashes and delays in the chunked pass measured slower, not
    /// faster, at the n = 128 of the perturbed catalog scenarios (see the
    /// module docs).
    #[must_use]
    pub fn with_round_threads(mut self, threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_ROUND_THREADS);
        let n = self.env.n();
        self.chunk_bounds = (0..=threads).map(|part| part * n / threads).collect();
        self.worker_scratch
            .resize_with(threads, WorkerScratch::default);
        self
    }

    /// Overrides the ant-chunk boundaries the round workers of
    /// [`run_to_convergence`](Self::run_to_convergence) split the colony
    /// at — a **testing hook** for driving the chunked code through
    /// adversarial splits (width-1 chunks, `n - 1` cuts, prime strides,
    /// empty chunks) that the even `with_round_threads` division never
    /// produces. The determinism contract says every valid split is
    /// bit-identical to serial; `tests/property_runner.rs` enforces it
    /// through this hook.
    ///
    /// `bounds` must be monotonically non-decreasing, start at `0`, end
    /// at `n`, and describe at most `MAX_ROUND_THREADS` (`16`) chunks.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not a valid chunk split as described above.
    #[must_use]
    pub fn with_chunk_bounds(mut self, bounds: Vec<usize>) -> Self {
        let n = self.env.n();
        assert!(
            bounds.len() >= 2 && bounds.len() <= MAX_ROUND_THREADS + 1,
            "chunk bounds must describe 1..={MAX_ROUND_THREADS} chunks"
        );
        assert_eq!(bounds[0], 0, "chunk bounds must start at 0");
        assert_eq!(
            *bounds.last().expect("non-empty"),
            n,
            "chunk bounds must end at n"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "chunk bounds must be monotonically non-decreasing"
        );
        let threads = bounds.len() - 1;
        self.chunk_bounds = bounds;
        self.worker_scratch
            .resize_with(threads, WorkerScratch::default);
        self
    }

    /// Selects the engine for unperturbed rounds (default:
    /// [`EngineKind::Fused`]).
    ///
    /// The scalar engine always runs serially; switching back to the
    /// fused engine re-applies the configured `round_threads`. The
    /// builders commute: any order of `with_round_threads` /
    /// `with_engine` / `with_chunk_bounds` calls ends at the same
    /// configuration, thread count included (pinned by
    /// `builder_order_never_drops_threads`).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The engine driving unperturbed rounds.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The configured number of intra-round parts.
    #[must_use]
    pub fn round_threads(&self) -> usize {
        self.chunk_bounds.len() - 1
    }

    /// The environment (read-only).
    #[must_use]
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The colony (read-only view).
    #[must_use]
    pub fn agents(&self) -> &[AnyAgent] {
        &self.colony
    }

    /// The colony with its snapshot cache (read-only view).
    #[must_use]
    pub fn colony(&self) -> &Colony {
        &self.colony
    }

    /// Every agent's observable state, in ant order — served from the
    /// colony's snapshot cache, which both engines keep current every
    /// round.
    pub fn iter_snapshots(&self) -> impl Iterator<Item = AgentSnapshot> + '_ {
        self.colony.iter_snapshots()
    }

    /// Completed rounds.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.env.round()
    }

    /// Actions replaced by crash/delay no-ops so far.
    #[must_use]
    pub fn replaced_actions(&self) -> u64 {
        self.replaced_actions
    }

    /// Illegal agent actions sandboxed so far.
    #[must_use]
    pub fn illegal_actions(&self) -> u64 {
        self.illegal_actions
    }

    /// `true` if rounds run on the fast path: no fault plan and the
    /// fused engine.
    fn runs_fast_path(&self) -> bool {
        self.perturbations.is_none() && self.engine == EngineKind::Fused
    }

    /// Executes one synchronous round into the persistent scratch.
    ///
    /// With `materialize` set, the report (the per-ant outcomes, the
    /// recruit calls and the matched pairs) is readable as
    /// `self.scratch.report` afterwards; without it, each outcome is
    /// handed straight to its agent as it is computed and the report
    /// stays empty — the convergence loop reads none of it. Both modes
    /// run the **same** delivering round pass and the same pairing
    /// kernel; materializing only adds the copies into the (persistent)
    /// report buffers, so instrumented and convergence runs are one code
    /// path and report identical [`RunOutcome`]s.
    fn step_round(&mut self, materialize: bool) {
        if self.runs_fast_path() {
            self.step_round_fast(materialize);
        } else {
            self.step_round_scalar(materialize);
        }
        let report = &mut self.scratch.report;
        if materialize {
            // The inline chunk's calls are the round's, in ant order.
            report
                .recruitment
                .calls
                .clone_from(&self.worker_scratch[0].calls);
            self.env.build_pairs(&report.recruitment.calls);
            self.env.export_pairs(report);
        } else {
            report.recruitment.calls.clear();
            report.recruitment.pairs.clear();
        }
    }

    /// The unperturbed fast path, one round inline on the calling
    /// thread: no fault plan to consult, and every agent chooses every
    /// round, so the `chose` mask is a constant `true` and is not
    /// materialized.
    ///
    /// The engine is memory-bound at scale — the dominant cost of a
    /// round is streaming the agent array — so the fast path makes
    /// exactly ONE pass over the agents per round: round r's observe is
    /// fused with round r+1's choose (agents are independent, and
    /// between rounds nothing else touches them), and the pre-chosen
    /// actions wait in `actions` for the next round. Only a round
    /// that finds the pipeline unprimed — the first fast-path round, or
    /// the first after a switch back from [`EngineKind::Scalar`] — runs
    /// a dedicated choose pass first (`prime_fast_path`).
    ///
    /// The round runs the segment workers' chunk code (`run_segment`)
    /// over one full-range chunk; see the module docs for why every
    /// chunk split is bit-identical.
    ///
    /// Legality is still checked at the top of the round the action
    /// executes in (identical sandboxing semantics and counters), and
    /// the per-ant crash/delay semantics that forbid pre-choosing — a
    /// skipped ant must not advance its state machine — cannot occur
    /// here by definition.
    fn step_round_fast(&mut self, materialize: bool) {
        self.prime_fast_path();
        let n = self.env.n();
        let k1 = self.env.k() + 1;
        let Self {
            env,
            colony,
            scratch,
            worker_scratch,
            live,
            illegal_actions,
            ..
        } = self;
        let (agents, snapshots) = colony.engine_split();
        let (ants, mut shared) = env.split_round();
        let mut chunk = Chunk {
            env: ants,
            agents,
            snapshots,
            actions: &mut scratch.actions,
            ran: &mut scratch.ran,
        };
        let ws = &mut worker_scratch[0];
        chunk.relocate(k1, ws);
        serial_middle(&mut shared, &mut [&mut *ws], illegal_actions);
        // In the eliding mode each outcome lives only for the instant
        // its agent consumes it; materializing adds a copy into the
        // report's persistent buffer.
        let outcomes = &mut scratch.report.outcomes;
        outcomes.clear();
        if materialize {
            outcomes.resize(n, PLACEHOLDER);
        }
        chunk.deliver(&shared, ws, materialize.then_some(outcomes.as_mut_slice()));
        live.merge(&ws.tally);
    }

    /// Fills the fast path's pipeline with every ant's `choose` for the
    /// next round, unless the previous fast-path round already did.
    fn prime_fast_path(&mut self) {
        let n = self.env.n();
        if !std::mem::replace(&mut self.prechosen, true) {
            let round = self.env.round() + 1;
            let colony = &mut self.colony;
            self.scratch.actions.clear();
            self.scratch
                .actions
                .extend((0..n).map(|idx| colony.choose(idx, round)));
        }
        // Phase 1 writes every slot before phase 2 reads it, so the mask
        // only needs its length.
        self.scratch.ran.resize(n, true);
    }

    /// The scalar path: one match-per-ant pass per phase, always serial
    /// (regardless of `round_threads`), built on the same chunk-view
    /// primitives — one full-range chunk per phase — and the same
    /// delivering outcome pass as the fast path.
    ///
    /// This path plays two roles:
    ///
    /// * **Perturbed rounds** always run here, with one crash lookup and
    ///   at most one delay query per ant (see the module docs for why
    ///   they stay off the fused pass).
    /// * **[`EngineKind::Scalar`]** routes unperturbed rounds here too,
    ///   with no fault plan and so no per-ant fault query. That makes
    ///   this loop the *bit-identity oracle* for the fused
    ///   engine: the per-agent call sequence (`choose(r)` then
    ///   `observe(r)`), the per-ant RNG streams, the serial pairing fed
    ///   in ant order, and the sandboxing timing are all identical to
    ///   the fast path's, so equal seeds must produce bit-identical
    ///   runs. `tests/oracle_equivalence.rs` enforces exactly that across
    ///   the registry catalog.
    fn step_round_scalar(&mut self, materialize: bool) {
        let round = self.env.round() + 1;
        let n = self.env.n();
        // If the previous round ran on the pre-chosen pipeline (the fused
        // engine fuses `choose(round + 1)` into its agent pass), the
        // agents have *already* made this round's choices. The Agent
        // contract allows `choose(r)` to be called at most once per
        // round — a stateful implementation (a boxed `Custom` agent, or
        // any future draw that advances state) would diverge on a
        // second call, the mid-run `with_engine(Scalar)` switch bug
        // pinned by `mid_run_engine_switch_matches_pure_scalar` (the
        // built-in urn choose became repeat-safe with the keyed-draw
        // migration, but the contract has not). Consume the buffered
        // actions instead. Pre-chosen rounds are always
        // unperturbed (the fast path requires it), so no fault plan is
        // consulted in that case.
        let prechosen = std::mem::replace(&mut self.prechosen, false);
        let scratch = &mut self.scratch;
        scratch.actions.resize(n, Action::Search);
        scratch.ran.clear();
        scratch.ran.resize(n, false);
        scratch.chose.clear();
        scratch.chose.resize(n, false);
        for idx in 0..n {
            let ant = AntId::new(idx);
            if let Some(faults) = &self.perturbations {
                let crashed_at = faults.crash.crash_round(ant).filter(|&at| at <= round);
                if crashed_at.is_some_and(|at| at.max(self.first_round) == round) {
                    // The first round this simulation runs the ant
                    // crashed: freeze it out of the live tally at its
                    // last refreshed state.
                    let snapshot = self.colony.snapshot(idx);
                    if snapshot.honest {
                        self.live.shift(&snapshot, -1);
                    }
                }
                let noop = if crashed_at.is_some() {
                    Some(faults.crash.style())
                } else {
                    faults
                        .delay
                        .is_delayed(ant, round)
                        .then_some(CrashStyle::InPlace)
                };
                if let Some(style) = noop {
                    scratch.actions[idx] = noop_action(&self.env, ant, style);
                    self.replaced_actions += 1;
                    continue;
                }
            }
            if !prechosen {
                scratch.actions[idx] = self.colony.choose(idx, round);
            }
            scratch.chose[idx] = true;
            if self.env.check_action(ant, &scratch.actions[idx]).is_ok() {
                scratch.ran[idx] = true;
            } else {
                self.illegal_actions += 1;
                scratch.actions[idx] = noop_action(&self.env, ant, CrashStyle::InPlace);
            }
        }

        // Every action was either checked above or is a
        // location-preserving no-op, legal by construction. Resolve the
        // round over one full-range chunk.
        let ws = &mut self.worker_scratch[0];
        ws.counts.clear();
        ws.counts.resize(self.env.k() + 1, 0);
        ws.calls.clear();
        let (mut chunk, mut shared) = self.env.split_round();
        chunk.apply_all(&scratch.actions, &mut ws.counts, &mut ws.calls);
        shared.merge_counts(std::iter::once(ws.counts.as_slice()));
        shared.pair_round([ws.calls.as_slice()]);

        // Outcome + observe + refresh, fused per ant. Refresh covers
        // every agent whose `choose` ran — observe or not, choosing
        // alone can advance a state machine — and folds the deltas into
        // the live tally.
        scratch.report.outcomes.clear();
        if materialize {
            scratch.report.outcomes.resize(n, PLACEHOLDER);
        }
        let mut cursor = 0usize;
        for (idx, &action) in scratch.actions.iter().enumerate() {
            let outcome = chunk.outcome(&shared, idx, action, &mut cursor);
            if materialize {
                scratch.report.outcomes[idx] = outcome;
            }
            if !scratch.chose[idx] {
                continue;
            }
            if scratch.ran[idx] {
                self.colony.observe(idx, round, &outcome);
            }
            let (old, new) = self.colony.refresh(idx);
            self.live.apply(&old, &new);
        }
    }

    /// Executes one synchronous round and returns the environment's
    /// report (outcomes + recruitment pairing) for instrumentation.
    ///
    /// This clones the report out of the engine's reusable buffers; hot
    /// loops should prefer [`run_to_convergence`](Self::run_to_convergence)
    /// / [`run_observed`](Self::run_observed), which allocate nothing per
    /// round, or [`step_in_place`](Self::step_in_place).
    ///
    /// # Errors
    ///
    /// Propagates environment errors; these indicate harness bugs, since
    /// agent actions are validated and sandboxed before execution.
    pub fn step(&mut self) -> Result<StepReport, SimError> {
        self.step_round(true);
        Ok(self.scratch.report.clone())
    }

    /// Executes one synchronous round and returns the report by
    /// reference — the zero-allocation equivalent of
    /// [`step`](Self::step).
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    pub fn step_in_place(&mut self) -> Result<&StepReport, SimError> {
        self.step_round(true);
        Ok(&self.scratch.report)
    }

    /// Runs until `rule` detects convergence or `max_rounds` rounds have
    /// executed (counted from the simulation's current round), on round
    /// workers where [`with_round_threads`](Self::with_round_threads)
    /// says so.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step`] errors.
    ///
    /// # Panics
    ///
    /// Propagates an agent's panic, from whichever thread ran its chunk.
    /// The simulation's state is then inconsistent. Also panics if the
    /// operating system cannot spawn a round worker thread.
    pub fn run_to_convergence(
        &mut self,
        rule: ConvergenceRule,
        max_rounds: u64,
    ) -> Result<RunOutcome, SimError> {
        let start = self.env.round();
        let solved = if self.round_threads() > 1 && self.runs_fast_path() {
            self.run_segment(rule, max_rounds)
        } else {
            let mut detector = Detector::new(rule);
            let mut solved = None;
            while self.env.round() - start < max_rounds {
                self.step_round(false);
                solved = detector.check(self);
                if solved.is_some() {
                    break;
                }
            }
            solved
        };
        Ok(self.run_outcome(start, solved))
    }

    /// Like [`run_to_convergence`](Self::run_to_convergence), invoking
    /// `on_round` after every executed round (for metrics recording).
    /// Every round runs inline on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step`] errors.
    pub fn run_observed<F>(
        &mut self,
        rule: ConvergenceRule,
        max_rounds: u64,
        mut on_round: F,
    ) -> Result<RunOutcome, SimError>
    where
        F: FnMut(&Simulation, &StepReport),
    {
        let mut detector = Detector::new(rule);
        let start = self.env.round();
        let mut solved = None;
        while self.env.round() - start < max_rounds {
            self.step_round(true);
            let this = &*self;
            on_round(this, &this.scratch.report);
            solved = detector.check(self);
            if solved.is_some() {
                break;
            }
        }
        Ok(self.run_outcome(start, solved))
    }

    fn run_outcome(&self, start: u64, solved: Option<Solved>) -> RunOutcome {
        RunOutcome {
            solved,
            rounds_run: self.env.round() - start,
            replaced_actions: self.replaced_actions,
            illegal_actions: self.illegal_actions,
        }
    }

    /// The fast path of `run_to_convergence` on round workers. Spawns
    /// one worker per chunk but the first inside one `std::thread::scope`;
    /// each borrows its chunk of the per-ant state for the whole segment
    /// and runs a phase per handshake (see `handshake`). The calling
    /// thread runs chunk 0, the serial middle, the tally merge and the
    /// detector. The middle and the outcome phase share the colony-level
    /// state through one lock, taken once per phase and never per ant.
    fn run_segment(&mut self, rule: ConvergenceRule, max_rounds: u64) -> Option<Solved> {
        if max_rounds == 0 {
            return None;
        }
        self.prime_fast_path();
        let start = self.env.round();
        let k1 = self.env.k() + 1;
        let Self {
            env,
            colony,
            scratch,
            worker_scratch,
            live,
            chunk_bounds,
            illegal_actions,
            ..
        } = self;
        let (agents, snapshots) = colony.engine_split();
        let (ants, shared) = env.split_round();
        let nests = shared.nests();
        let mut chunks = Vec::with_capacity(chunk_bounds.len() - 1);
        let mut rest = Chunk {
            env: ants,
            agents,
            snapshots,
            actions: &mut scratch.actions,
            ran: &mut scratch.ran,
        };
        for &end in &chunk_bounds[1..] {
            let (head, tail) = rest.split_at(end);
            chunks.push(head);
            rest = tail;
        }
        let slots: Vec<Mutex<WorkerScratch>> = worker_scratch
            .iter_mut()
            .map(|ws| Mutex::new(std::mem::take(ws)))
            .collect();
        let shared = RwLock::new(shared);
        let handshake = Handshake::default();
        let mut detector = Detector::new(rule);

        let solved = std::thread::scope(|scope| {
            let mut leader = Leader::new(&handshake);
            let mut chunks = chunks.into_iter();
            let mut own = chunks.next().expect("chunk 0");
            for (part, (mut chunk, slot)) in (1..).zip(chunks.zip(&slots[1..])) {
                let (handshake, shared) = (&handshake, &shared);
                let worker = std::thread::Builder::new()
                    .name(format!("hh-round-{part}"))
                    .spawn_scoped(scope, move || {
                        let mut seen = 0;
                        loop {
                            match handshake.next_phase(&mut seen) {
                                Phase::Relocate => {
                                    handshake.work(|| chunk.relocate(k1, &mut lock(slot)));
                                }
                                Phase::Deliver => handshake.work(|| {
                                    let shared = shared.read().expect("the middle finished");
                                    chunk.deliver(&shared, &mut lock(slot), None);
                                }),
                                Phase::Stop => break,
                            }
                        }
                    })
                    .expect("spawn a round worker");
                leader.enlist(worker.thread().clone());
            }
            let mut held = Vec::with_capacity(slots.len());
            for rounds_run in 1..=max_rounds {
                leader.run(Phase::Relocate, || {
                    own.relocate(k1, &mut lock(&slots[0]));
                });
                held.extend(slots.iter().map(lock));
                serial_middle(
                    &mut shared.write().expect("no chunk holds the shared state"),
                    &mut held,
                    illegal_actions,
                );
                held.clear();
                leader.run(Phase::Deliver, || {
                    let shared = shared.read().expect("the middle finished");
                    own.deliver(&shared, &mut lock(&slots[0]), None);
                });
                for slot in &slots {
                    live.merge(&lock(slot).tally);
                }
                let solved = detector.check_tally(live, start + rounds_run, nests);
                if solved.is_some() {
                    return solved;
                }
            }
            None
        });
        for (ws, slot) in worker_scratch.iter_mut().zip(slots) {
            *ws = slot.into_inner().expect("every chunk finished");
        }
        scratch.report.outcomes.clear();
        scratch.report.recruitment.calls.clear();
        scratch.report.recruitment.pairs.clear();
        solved
    }

    /// Returns `true` if `ant` has not crashed as of the current round.
    /// Delayed ants are still live; crashes are permanent.
    ///
    /// # Panics
    ///
    /// Panics if a fault plan is installed and `ant` is out of range for
    /// it. An unperturbed simulation holds no plan: every ant is live and
    /// `ant` is not checked.
    #[must_use]
    pub fn is_live(&self, ant: AntId) -> bool {
        self.perturbations
            .as_ref()
            .is_none_or(|faults| !faults.crash.is_crashed(ant, self.env.round()))
    }

    /// Census of honest-agent roles, used by metrics: one pass over the
    /// colony's snapshot cache, which both engines keep current every
    /// round.
    #[must_use]
    pub fn role_census(&self) -> RoleCensus {
        self.colony.census()
    }

    /// The live-honest tally the convergence detector reads.
    pub(crate) fn live_tally(&self) -> &LiveTally {
        &self.live
    }
}

/// The value a materialized outcome slot holds until its ant's outcome
/// overwrites it.
const PLACEHOLDER: Outcome = Outcome::Go {
    count: 0,
    quality: None,
};

/// One chunk of the colony's per-ant state: everything the two per-ant
/// phases of a fast-path round read or write for the chunk's ants. A
/// segment worker borrows its chunk for the whole segment; the inline
/// path runs one full-range chunk.
struct Chunk<'a> {
    env: AntChunk<'a>,
    agents: &'a mut [AnyAgent],
    snapshots: &'a mut [AgentSnapshot],
    /// The round's pre-chosen actions on entry to phase 1, sandboxed in
    /// place; phase 2 overwrites each with the ant's choice for the
    /// next round.
    actions: &'a mut [Action],
    /// Phase 1 → phase 2: `ran[i]` is set if the ant's own action ran,
    /// so it observes.
    ran: &'a mut [bool],
}

impl<'a> Chunk<'a> {
    /// Splits at global ant id `mid` (see [`AntChunk::split_at`]).
    fn split_at(self, mid: usize) -> (Self, Self) {
        let len = mid - self.env.start();
        let (env_a, env_b) = self.env.split_at(mid);
        let (agents_a, agents_b) = self.agents.split_at_mut(len);
        let (snapshots_a, snapshots_b) = self.snapshots.split_at_mut(len);
        let (actions_a, actions_b) = self.actions.split_at_mut(len);
        let (ran_a, ran_b) = self.ran.split_at_mut(len);
        (
            Chunk {
                env: env_a,
                agents: agents_a,
                snapshots: snapshots_a,
                actions: actions_a,
                ran: ran_a,
            },
            Chunk {
                env: env_b,
                agents: agents_b,
                snapshots: snapshots_b,
                actions: actions_b,
                ran: ran_b,
            },
        )
    }

    /// Phase 1: validates and sandboxes every ant's action, relocates
    /// the ants, and tallies populations, recruit calls and illegal
    /// actions into `ws`.
    fn relocate(&mut self, k1: usize, ws: &mut WorkerScratch) {
        ws.counts.clear();
        ws.counts.resize(k1, 0);
        ws.calls.clear();
        ws.illegal = 0;
        let start = self.env.start();
        // Validate and sandbox every ant first, then relocate them all:
        // one merged per-ant loop measured about 5 % fewer rounds/s on a
        // 16 384-ant colony than these two.
        for (local, action) in self.actions.iter_mut().enumerate() {
            let idx = start + local;
            let legal = self.env.check_action(idx, action).is_ok();
            self.ran[local] = legal;
            if !legal {
                ws.illegal += 1;
                *action = self.env.noop_in_place(idx);
            }
        }
        self.env
            .apply_all(self.actions, &mut ws.counts, &mut ws.calls);
    }

    /// Phase 2, the single agent pass: computes each ant's outcome
    /// (recruit participants learn their nest), observes round `round`,
    /// chooses round `round + 1`, refreshes the cache-hot snapshot — one
    /// `AnyAgent::observe_choose` per ant — and accumulates the chunk's
    /// live-tally delta in `ws`. `outcomes`, if given, receives a copy
    /// of each outcome.
    fn deliver(
        &mut self,
        shared: &SharedRound<'_>,
        ws: &mut WorkerScratch,
        mut outcomes: Option<&mut [Outcome]>,
    ) {
        let round = shared.round();
        let mut cursor = ws.cursor;
        ws.tally.clear();
        let start = self.env.start();
        for (local, agent) in self.agents.iter_mut().enumerate() {
            // Every row computes its outcome, in order: that advances
            // the chunk's recruit-call cursor.
            let outcome = self
                .env
                .outcome(shared, start + local, self.actions[local], &mut cursor);
            if let Some(out) = outcomes.as_deref_mut() {
                out[local] = outcome;
            }
            let observed = self.ran[local].then_some(&outcome);
            let (action, new) = agent.observe_choose(round, observed);
            self.actions[local] = action;
            let old = self.snapshots[local];
            if new != old {
                ws.tally.apply(&old, &new);
                self.snapshots[local] = new;
            }
        }
    }
}

/// The serial middle of a fast-path round: folds the chunks' population
/// tallies and illegal counts in chunk order, gives each chunk the call
/// cursor its outcome pass starts at (its first call's rank among the
/// round's calls), and runs Algorithm 1's kernel over the chunks' recruit
/// calls in place. In chunk order the calls are in ant order, so their
/// ranks, and with them the draws, are those of one colony-wide call
/// vector, which is never built. It touches no per-ant state.
fn serial_middle<W: DerefMut<Target = WorkerScratch>>(
    shared: &mut SharedRound<'_>,
    parts: &mut [W],
    illegal_actions: &mut u64,
) {
    shared.merge_counts(parts.iter().map(|ws| ws.counts.as_slice()));
    let mut rank = 0;
    for ws in parts.iter_mut() {
        *illegal_actions += ws.illegal;
        ws.cursor = rank;
        rank += ws.calls.len();
    }
    shared.pair_round(parts.iter().map(|ws| ws.calls.as_slice()));
}

/// Locks a chunk's scratch. Only a chunk that panicked can poison it,
/// and the segment then ends without locking it again.
fn lock(slot: &Mutex<WorkerScratch>) -> MutexGuard<'_, WorkerScratch> {
    slot.lock().expect("no chunk panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::{colony, Agent};
    use hh_model::{ColonyConfig, NestId, QualitySpec};

    fn env(n: usize, k: usize, seed: u64) -> Environment {
        Environment::new(&ColonyConfig::new(n, QualitySpec::all_good(k)).seed(seed)).unwrap()
    }

    #[test]
    fn rejects_mismatched_colony() {
        let err = Simulation::new(env(5, 2, 0), colony::simple(3, 0)).unwrap_err();
        assert_eq!(err, SimError::AgentCountMismatch { agents: 3, n: 5 });
    }

    #[test]
    fn steps_advance_rounds() {
        let mut sim = Simulation::new(env(8, 2, 1), colony::simple(8, 1)).unwrap();
        assert_eq!(sim.round(), 0);
        sim.step().unwrap();
        assert_eq!(sim.round(), 1);
        assert_eq!(sim.replaced_actions(), 0);
        assert_eq!(sim.illegal_actions(), 0);
    }

    #[test]
    fn step_in_place_matches_step() {
        let mut a = Simulation::new(env(16, 2, 11), colony::simple(16, 11)).unwrap();
        let mut b = Simulation::new(env(16, 2, 11), colony::simple(16, 11)).unwrap();
        for _ in 0..20 {
            let cloned = a.step().unwrap();
            let borrowed = b.step_in_place().unwrap();
            assert_eq!(&cloned, borrowed);
        }
    }

    #[test]
    fn converges_simple_colony() {
        let mut sim = Simulation::new(env(32, 2, 2), colony::simple(32, 2)).unwrap();
        let outcome = sim
            .run_to_convergence(ConvergenceRule::commitment(), 5_000)
            .unwrap();
        let solved = outcome.solved.expect("simple colony converges");
        assert!(solved.good);
        assert!(solved.round >= 1);
        assert!(outcome.rounds_run >= solved.round);
    }

    #[test]
    fn converges_optimal_colony_all_final() {
        let mut sim = Simulation::new(env(32, 3, 3), colony::optimal(32)).unwrap();
        let outcome = sim
            .run_to_convergence(ConvergenceRule::all_final(), 2_000)
            .unwrap();
        let solved = outcome.solved.expect("optimal colony finalizes");
        assert!(solved.good);
    }

    #[test]
    fn crashed_ants_are_skipped() {
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 16;
        let perturbations = Perturbations {
            crash: CrashPlan::fraction(n, 0.25, 1, CrashStyle::InPlace, 9),
            delay: DelayPlan::never(),
        };
        let mut sim =
            Simulation::with_perturbations(env(n, 2, 4), colony::simple(n, 4), Some(perturbations))
                .unwrap();
        for _ in 0..10 {
            sim.step().unwrap();
        }
        // 4 crashed ants × 10 rounds.
        assert_eq!(sim.replaced_actions(), 40);
    }

    #[test]
    fn delays_replace_probabilistically() {
        let n = 50;
        let perturbations = Perturbations {
            crash: CrashPlan::none(n),
            delay: DelayPlan::new(0.5, 7),
        };
        let mut sim =
            Simulation::with_perturbations(env(n, 2, 5), colony::simple(n, 5), Some(perturbations))
                .unwrap();
        for _ in 0..20 {
            sim.step().unwrap();
        }
        let replaced = sim.replaced_actions();
        assert!(
            (300..700).contains(&replaced),
            "≈50% of 1000 actions should be delayed, got {replaced}"
        );
    }

    #[test]
    fn illegal_agents_are_sandboxed() {
        struct Outlaw;
        impl Agent for Outlaw {
            fn choose(&mut self, _round: u64) -> hh_model::Action {
                // Never legal: nest 99 does not exist.
                hh_model::Action::Go(NestId::candidate(99))
            }
            fn observe(&mut self, _round: u64, _outcome: &hh_model::Outcome) {
                panic!("an outlaw's action never executes, so it never observes");
            }
            fn committed_nest(&self) -> Option<NestId> {
                None
            }
            fn label(&self) -> &'static str {
                "outlaw"
            }
        }
        let mut agents = colony::simple(4, 6);
        agents.replace(3, AnyAgent::custom(Outlaw));
        let mut sim = Simulation::new(env(4, 2, 6), agents).unwrap();
        for _ in 0..5 {
            sim.step().unwrap();
        }
        assert_eq!(sim.illegal_actions(), 5);
        // The honest ants were unaffected.
        assert_eq!(sim.round(), 5);
    }

    #[test]
    fn perturbations_none_is_none() {
        assert!(Perturbations::none(5).is_none());
        let p = Perturbations {
            crash: CrashPlan::none(5),
            delay: DelayPlan::new(0.1, 0),
        };
        assert!(!p.is_none());
    }

    #[test]
    fn role_census_counts() {
        let sim = Simulation::new(env(6, 2, 7), colony::simple(6, 7)).unwrap();
        let census = sim.role_census();
        assert_eq!(census.searching, 6);
        assert_eq!(census.total(), 6);
    }

    #[test]
    fn live_tally_tracks_commitments() {
        let mut sim = Simulation::new(env(12, 2, 8), colony::simple(12, 8)).unwrap();
        assert_eq!(sim.live_tally().total(), 12);
        assert_eq!(sim.live_tally().consensus(), None);
        let outcome = sim
            .run_to_convergence(ConvergenceRule::commitment(), 5_000)
            .unwrap();
        let solved = outcome.solved.expect("converges");
        // At detection, the incremental tally agrees with a fresh scan.
        assert_eq!(sim.live_tally().consensus(), Some(solved.nest));
        assert_eq!(
            hh_core::problem::honest_consensus(sim.agents()),
            Some(solved.nest)
        );
    }

    #[test]
    fn live_tally_and_census_match_a_recount_every_round() {
        // After every round, the incrementally kept live tally and the
        // snapshot-cache census must equal a recount from scratch over
        // the agents. Every third ant is a `Custom` turncoat whose
        // honesty flips in `observe` every few rounds, mostly on rounds
        // where its commitment and role stay put — so a tally update
        // that skips honesty-only transitions drifts from the recount.
        use hh_model::faults::{CrashPlan, CrashStyle};

        struct Turncoat<A> {
            inner: A,
            period: u64,
            honest: bool,
        }
        impl<A: Agent> Agent for Turncoat<A> {
            fn choose(&mut self, round: u64) -> hh_model::Action {
                self.inner.choose(round)
            }
            fn observe(&mut self, round: u64, outcome: &Outcome) {
                self.inner.observe(round, outcome);
                if round.is_multiple_of(self.period) {
                    self.honest = !self.honest;
                }
            }
            fn committed_nest(&self) -> Option<NestId> {
                self.inner.committed_nest()
            }
            fn is_honest(&self) -> bool {
                self.honest
            }
            fn role(&self) -> AgentRole {
                self.inner.role()
            }
            fn label(&self) -> &'static str {
                "turncoat"
            }
        }
        fn with_turncoats<A>(n: usize, make: impl Fn(u64) -> A) -> Colony
        where
            A: Agent + Into<AnyAgent> + Send + 'static,
        {
            colony::from_factory(n, 71, |idx, seed| {
                let inner = make(seed);
                if idx % 3 == 0 {
                    AnyAgent::custom(Turncoat {
                        inner,
                        period: 2 + idx as u64 % 5,
                        honest: idx % 2 == 0,
                    })
                } else {
                    inner.into()
                }
            })
        }

        let mut saw_consensus = false;
        let mut saw_all_final = false;
        let mut check = |sim: &Simulation, label: &str| {
            let round = sim.round();
            let mut census = RoleCensus::default();
            let (mut total, mut uncommitted, mut finals) = (0usize, 0usize, 0usize);
            let mut commits = vec![0usize; sim.env().k() + 1];
            for (idx, agent) in sim.agents().iter().enumerate() {
                if !agent.is_honest() {
                    continue;
                }
                *match agent.role() {
                    AgentRole::Searching => &mut census.searching,
                    AgentRole::Active => &mut census.active,
                    AgentRole::Passive => &mut census.passive,
                    AgentRole::Final => &mut census.final_count,
                    _ => &mut census.other,
                } += 1;
                if !sim.is_live(AntId::new(idx)) {
                    continue;
                }
                total += 1;
                finals += usize::from(agent.role() == AgentRole::Final);
                match agent.committed_nest() {
                    None => uncommitted += 1,
                    Some(nest) => commits[nest.raw()] += 1,
                }
            }
            let held: Vec<usize> = (0..commits.len()).filter(|&raw| commits[raw] > 0).collect();
            let consensus =
                (uncommitted == 0 && held.len() == 1).then(|| NestId::from_raw(held[0]));
            let needed = ((0.7 * total as f64).ceil() as usize).max(1);
            let good = |nest: NestId| sim.env().quality_of(nest).is_some_and(|q| q.is_good());
            let quorum = held
                .iter()
                .copied()
                .filter(|&raw| commits[raw] >= needed && good(NestId::from_raw(raw)))
                .max_by_key(|&raw| (commits[raw], std::cmp::Reverse(raw)))
                .map(NestId::from_raw);

            let tally = sim.live_tally();
            assert_eq!(sim.role_census(), census, "{label}, round {round}: census");
            assert_eq!(tally.total(), total, "{label}, round {round}: total");
            assert_eq!(tally.consensus(), consensus, "{label}, round {round}");
            assert_eq!(tally.all_final(), finals == total, "{label}, round {round}");
            assert_eq!(tally.quorum(0.7, good), quorum, "{label}, round {round}");
            saw_consensus |= consensus.is_some();
            saw_all_final |= total > 0 && finals == total;
        };

        let n = 60;
        let simple = || with_turncoats(n, |seed| hh_core::SimpleAnt::new(n, seed));
        let optimal = || with_turncoats(n, |_| hh_core::OptimalAnt::new());
        let colonies: [(&str, &dyn Fn() -> Colony); 2] =
            [("simple", &simple), ("optimal", &optimal)];
        for (family, build) in colonies {
            let fast = |threads: usize| {
                Simulation::new(env(n, 3, 71), build())
                    .unwrap()
                    .with_round_threads(threads)
            };
            let faulty = Simulation::with_perturbations(
                env(n, 3, 71),
                build(),
                Some(Perturbations {
                    crash: CrashPlan::fraction(n, 0.2, 20, CrashStyle::InPlace, 7),
                    delay: DelayPlan::new(0.1, 7),
                }),
            )
            .unwrap()
            .with_engine(EngineKind::Scalar);
            let runs = [
                ("fast path, 1 thread", fast(1)),
                ("fast path, 4 threads", fast(4)),
                ("scalar engine, crashes and delays", faulty),
            ];
            for (engine, mut sim) in runs {
                let label = format!("{family} colony, {engine}");
                check(&sim, &label);
                for _ in 0..200 {
                    sim.step().unwrap();
                    check(&sim, &label);
                }
            }
        }
        assert!(saw_consensus, "no round reached a live honest consensus");
        assert!(saw_all_final, "no round had every live honest ant final");
    }

    #[test]
    fn crashed_agents_leave_the_live_tally() {
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 16;
        let perturbations = Perturbations {
            crash: CrashPlan::fraction(n, 0.25, 3, CrashStyle::InPlace, 1),
            delay: DelayPlan::never(),
        };
        let mut sim = Simulation::with_perturbations(
            env(n, 2, 12),
            colony::simple(n, 12),
            Some(perturbations),
        )
        .unwrap();
        for _ in 0..5 {
            sim.step().unwrap();
        }
        assert_eq!(sim.live_tally().total(), 12, "4 of 16 ants crashed");
        let recount = (0..n)
            .filter(|&idx| sim.is_live(AntId::new(idx)) && sim.agents()[idx].is_honest())
            .count();
        assert_eq!(recount, 12);
    }

    #[test]
    fn round_threads_are_bit_identical_to_serial() {
        // Odd colony size so chunk boundaries are uneven; run the whole
        // convergence loop and compare everything observable.
        let n = 257;
        let run = |threads: usize| {
            let mut sim = Simulation::new(env(n, 3, 21), colony::simple(n, 21))
                .unwrap()
                .with_round_threads(threads);
            let outcome = sim
                .run_to_convergence(ConvergenceRule::commitment(), 20_000)
                .unwrap();
            let counts = sim.env().counts().to_vec();
            let locations = sim.env().locations().to_vec();
            let census = sim.role_census();
            (outcome, counts, locations, census)
        };
        let serial = run(1);
        for threads in [2usize, 3, 5, 8, 16] {
            assert_eq!(serial, run(threads), "{threads} round threads diverged");
        }
    }

    #[test]
    fn round_threads_match_stepwise_reports() {
        let n = 64;
        let mut serial = Simulation::new(env(n, 2, 33), colony::simple(n, 33)).unwrap();
        let mut parallel = Simulation::new(env(n, 2, 33), colony::simple(n, 33))
            .unwrap()
            .with_round_threads(4);
        for _ in 0..50 {
            assert_eq!(serial.step().unwrap(), parallel.step().unwrap());
        }
        assert_eq!(serial.illegal_actions(), parallel.illegal_actions());
    }

    #[test]
    fn round_threads_clamp() {
        let sim = Simulation::new(env(8, 2, 1), colony::simple(8, 1))
            .unwrap()
            .with_round_threads(0);
        assert_eq!(sim.round_threads(), 1);
        let sim = Simulation::new(env(8, 2, 1), colony::simple(8, 1))
            .unwrap()
            .with_round_threads(10_000);
        assert_eq!(sim.round_threads(), 16);
    }

    #[test]
    fn more_threads_than_ants_still_agree() {
        let n = 5;
        let run = |threads: usize| {
            let mut sim = Simulation::new(env(n, 2, 9), colony::simple(n, 9))
                .unwrap()
                .with_round_threads(threads);
            sim.run_to_convergence(ConvergenceRule::commitment(), 5_000)
                .unwrap()
        };
        assert_eq!(run(1), run(16));
    }

    #[test]
    fn run_observed_sees_every_round() {
        let mut sim = Simulation::new(env(16, 2, 8), colony::simple(16, 8)).unwrap();
        let mut observed = 0u64;
        let outcome = sim
            .run_observed(ConvergenceRule::commitment(), 2_000, |_, _| observed += 1)
            .unwrap();
        assert_eq!(observed, outcome.rounds_run);
    }

    #[test]
    fn step_after_a_convergence_segment_reports_its_own_pairs() {
        // Convergence-loop rounds skip exporting their pairs; the `step`
        // right after such a segment must still report exactly its own
        // round's matching, on both engines.
        for engine in [EngineKind::Fused, EngineKind::Scalar] {
            let mut sim = Simulation::new(env(64, 3, 61), colony::simple(64, 61))
                .unwrap()
                .with_engine(engine);
            let segment = sim
                .run_to_convergence(ConvergenceRule::commitment(), 9)
                .unwrap();
            assert_eq!(segment.rounds_run, 9);
            // Round 10 is a recruitment round for simple ants.
            let report = sim.step().unwrap();
            assert!(
                !report.recruitment.pairs.is_empty(),
                "{engine:?}: a recruitment round reported no pairs"
            );
            for &(recruiter, recruited) in &report.recruitment.pairs {
                let call = report
                    .recruitment
                    .calls
                    .iter()
                    .find(|call| call.ant == recruiter)
                    .expect("every recruiter made a call this round");
                match report.outcomes[recruited.index()] {
                    Outcome::Recruit { nest, .. } => assert_eq!(nest, call.nest, "{engine:?}"),
                    ref other => panic!("{engine:?}: recruited ant has outcome {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unobserved_rounds_build_no_recruitment_report() {
        // A fast-path segment pairs the chunks' calls in place and builds
        // no id-level pairs; the next `step` builds both for its own
        // round. For these optimal ants rounds 20 and 21 both match
        // pairs, as the stepped twin shows.
        let build = |threads| {
            Simulation::new(env(64, 3, 61), colony::optimal(64))
                .unwrap()
                .with_round_threads(threads)
        };
        let mut twin = build(1);
        let mut reports: Vec<StepReport> = (0..21).map(|_| twin.step().unwrap()).collect();
        let next = reports.pop().unwrap();
        assert!(!reports[19].recruitment.pairs.is_empty());
        assert!(!next.recruitment.pairs.is_empty());
        for threads in [1, 2] {
            let mut sim = build(threads);
            let segment = sim
                .run_to_convergence(ConvergenceRule::commitment(), 20)
                .unwrap();
            assert_eq!(segment.rounds_run, 20);
            assert_eq!(sim.scratch.report.recruitment.calls.capacity(), 0);
            let mut exported = StepReport::default();
            sim.env().export_pairs(&mut exported);
            assert!(exported.recruitment.pairs.is_empty(), "{threads} threads");

            let report = sim.step().unwrap();
            let call = |ant| {
                report
                    .recruitment
                    .calls
                    .iter()
                    .find(|call| call.ant == ant)
                    .expect("every paired ant made a call this round")
            };
            for &(recruiter, recruited) in &report.recruitment.pairs {
                assert!(call(recruiter).active, "{threads} threads");
                call(recruited);
            }
            assert_eq!(report, next, "{threads} threads");
        }
    }

    #[test]
    fn run_observed_matches_run_to_convergence() {
        // The instrumented and convergence paths are one delivering code
        // path; materializing the report for the observer must not change
        // the execution. Check unperturbed, perturbed, and parallel.
        use hh_model::faults::{CrashPlan, CrashStyle};
        let build = |threads: usize, perturbed: bool| {
            let n = 48;
            let perturbations = perturbed.then(|| Perturbations {
                crash: CrashPlan::fraction(n, 0.2, 4, CrashStyle::InPlace, 3),
                delay: DelayPlan::new(0.05, 3),
            });
            Simulation::with_perturbations(env(n, 3, 27), colony::simple(n, 27), perturbations)
                .unwrap()
                .with_round_threads(threads)
        };
        for (threads, perturbed) in [(1, false), (4, false), (1, true)] {
            let rule = ConvergenceRule::stable_commitment(4);
            let quiet = build(threads, perturbed)
                .run_to_convergence(rule, 10_000)
                .unwrap();
            let mut rounds_with_outcomes = 0u64;
            let observed = build(threads, perturbed)
                .run_observed(rule, 10_000, |sim, report| {
                    assert_eq!(report.outcomes.len(), sim.env().n());
                    rounds_with_outcomes += 1;
                })
                .unwrap();
            assert_eq!(
                quiet, observed,
                "threads={threads} perturbed={perturbed}: instrumented run diverged"
            );
            assert_eq!(rounds_with_outcomes, observed.rounds_run);
        }
    }

    #[test]
    fn builder_order_never_drops_threads() {
        // The round workers depend on three builder-set fields; every
        // call order must land on the same configuration: the thread
        // count and the chunk bounds the segment splits the colony at.
        let config = |sim: &Simulation| (sim.round_threads(), sim.chunk_bounds.clone());
        let fresh = || Simulation::new(env(32, 2, 40), colony::simple(32, 40)).unwrap();
        let eight = (8, vec![0, 4, 8, 12, 16, 20, 24, 28, 32]);

        assert_eq!(config(&fresh().with_round_threads(8)), eight);
        let round_trip = fresh()
            .with_round_threads(8)
            .with_engine(EngineKind::Scalar)
            .with_engine(EngineKind::Fused);
        assert_eq!(config(&round_trip), eight, "engine round trip");
        let threads_last = fresh()
            .with_engine(EngineKind::Scalar)
            .with_engine(EngineKind::Fused)
            .with_round_threads(8);
        assert_eq!(config(&threads_last), eight);
        let bounds_between = fresh()
            .with_round_threads(8)
            .with_engine(EngineKind::Scalar)
            .with_chunk_bounds(vec![0, 3, 32])
            .with_engine(EngineKind::Fused);
        assert_eq!(config(&bounds_between), (2, vec![0, 3, 32]));
        // The scalar engine remembers the setting, though it runs
        // serially.
        let scalar = fresh()
            .with_round_threads(8)
            .with_engine(EngineKind::Scalar);
        assert_eq!(config(&scalar), eight);
        assert!(!scalar.runs_fast_path());
    }

    #[test]
    fn mid_run_engine_switch_matches_pure_scalar() {
        // The fused fast path leaves the colony pre-chosen for the next
        // round (fused `choose(round + 1)`). A mid-run switch to the
        // scalar engine must consume those buffered actions instead of
        // calling `choose` again — the Agent contract allows one call
        // per round, and a stateful implementation would diverge on a
        // second one. A built-in urn ant's keyed `choose` is
        // repeat-safe, so the sequence also runs on simple ants wrapped
        // in a `Custom` agent that panics on a repeated round.
        struct ChooseOnce {
            inner: hh_core::SimpleAnt,
            last_chosen: u64,
        }
        impl Agent for ChooseOnce {
            fn choose(&mut self, round: u64) -> hh_model::Action {
                assert!(
                    round > self.last_chosen,
                    "choose({round}) after choose({})",
                    self.last_chosen
                );
                self.last_chosen = round;
                self.inner.choose(round)
            }
            fn observe(&mut self, round: u64, outcome: &Outcome) {
                self.inner.observe(round, outcome);
            }
            fn committed_nest(&self) -> Option<NestId> {
                self.inner.committed_nest()
            }
            fn role(&self) -> AgentRole {
                self.inner.role()
            }
            fn label(&self) -> &'static str {
                "choose-once"
            }
        }
        let n = 64;
        let simple = || colony::simple(n, 52);
        let choose_once = || {
            colony::from_factory(n, 52, |_, seed| {
                AnyAgent::custom(ChooseOnce {
                    inner: hh_core::SimpleAnt::new(n, seed),
                    last_chosen: 0,
                })
            })
        };
        let colonies: [&dyn Fn() -> Colony; 2] = [&simple, &choose_once];
        for build in colonies {
            // Switch after an odd number of rounds so the buffered
            // choices are for an even (recruitment) round: that is where
            // urn ants draw their recruit coin in `choose`.
            let mut switched = Simulation::new(env(n, 3, 52), build()).unwrap();
            let mut scalar = Simulation::new(env(n, 3, 52), build())
                .unwrap()
                .with_engine(EngineKind::Scalar);
            for _ in 0..9 {
                switched.step().unwrap();
                scalar.step().unwrap();
            }
            switched = switched.with_engine(EngineKind::Scalar);
            for round in 9..30 {
                assert_eq!(
                    switched.step().unwrap(),
                    scalar.step().unwrap(),
                    "diverged at round {round} after the engine switch"
                );
            }
            assert_eq!(switched.role_census(), scalar.role_census());
            // And back: the scalar path leaves no pre-chosen actions, so
            // the fast path re-primes with a dedicated choose pass.
            switched.step().unwrap();
            scalar.step().unwrap();
            switched = switched.with_engine(EngineKind::Fused);
            let mut fused_twin = Simulation::new(env(n, 3, 52), build()).unwrap();
            for _ in 0..31 {
                fused_twin.step().unwrap();
            }
            for round in 31..41 {
                assert_eq!(
                    switched.step().unwrap(),
                    fused_twin.step().unwrap(),
                    "diverged at round {round} after switching back to the fused engine"
                );
            }
        }
    }

    #[test]
    fn perturbed_round_threads_is_bit_identical_to_serial() {
        // Perturbed simulations ignore `round_threads` at execution
        // time: every round runs on the serial scalar path, so the
        // setting must be observably inert (the documented contract on
        // `with_round_threads` and `Scenario::round_threads`).
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 96;
        let build = |threads: usize| {
            let perturbations = Perturbations {
                crash: CrashPlan::fraction(n, 0.2, 5, CrashStyle::InPlace, 13),
                delay: DelayPlan::new(0.1, 13),
            };
            Simulation::with_perturbations(
                env(n, 3, 61),
                colony::simple(n, 61),
                Some(perturbations),
            )
            .unwrap()
            .with_round_threads(threads)
        };
        let mut serial = build(1);
        let mut threaded = build(8);
        for round in 0..40 {
            assert_eq!(
                serial.step().unwrap(),
                threaded.step().unwrap(),
                "perturbed round {round} diverged under round_threads=8"
            );
        }
        let rule = ConvergenceRule::stable_commitment(4);
        assert_eq!(
            serial.run_to_convergence(rule, 5_000).unwrap(),
            threaded.run_to_convergence(rule, 5_000).unwrap()
        );
    }

    #[test]
    fn convergence_runs_interleave_with_stepping_bit_identically() {
        // Convergence runs (eliding the outcome buffer) interleaved with
        // single materializing steps must match an uninterrupted
        // scalar-engine twin: the pre-chosen pipeline carries across
        // every run/step boundary.
        // At two round threads the segments run on workers and the
        // steps inline; 25-round segments leave the pipeline primed
        // after both even and odd round counts.
        let n = 128;
        let rule = ConvergenceRule::stable_commitment(2);
        for threads in [1, 2] {
            let mut fused = Simulation::new(env(n, 3, 83), colony::simple(n, 83))
                .unwrap()
                .with_round_threads(threads);
            let mut oracle = Simulation::new(env(n, 3, 83), colony::simple(n, 83))
                .unwrap()
                .with_engine(EngineKind::Scalar);
            for _ in 0..4 {
                let a = fused.run_to_convergence(rule, 25).unwrap();
                let b = oracle.run_to_convergence(rule, 25).unwrap();
                assert_eq!(a, b, "{threads} round threads");
                assert_eq!(fused.step().unwrap(), oracle.step().unwrap());
            }
            assert_eq!(fused.role_census(), oracle.role_census());
            assert_eq!(fused.env().counts(), oracle.env().counts());
            assert_eq!(fused.env().locations(), oracle.env().locations());
        }
    }

    #[test]
    fn crash_before_the_first_executed_round_leaves_the_live_tally() {
        // A simulation built over an environment that is already past
        // some ants' crash round never runs that round, so those ants
        // must leave the live tally in its first round.
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 16;
        let mut stepped = env(n, 2, 14);
        for _ in 0..3 {
            let actions: Vec<Action> = (0..n)
                .map(|idx| {
                    stepped
                        .first_known(AntId::new(idx))
                        .map_or(Action::Search, Action::Go)
                })
                .collect();
            stepped.step(&actions).unwrap();
        }
        let perturbations = Perturbations {
            crash: CrashPlan::fraction(n, 0.25, 2, CrashStyle::InPlace, 14),
            delay: DelayPlan::never(),
        };
        let mut sim =
            Simulation::with_perturbations(stepped, colony::simple(n, 14), Some(perturbations))
                .unwrap();
        sim.step().unwrap();
        assert_eq!(sim.round(), 4);
        let recount = (0..n)
            .filter(|&idx| sim.is_live(AntId::new(idx)) && sim.agents()[idx].is_honest())
            .count();
        assert_eq!(recount, 12, "4 of 16 ants crashed at round 2");
        assert_eq!(sim.live_tally().total(), recount);
    }

    #[test]
    fn crash_plans_for_another_colony_size_are_rejected() {
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 10;
        let build = |crash: &CrashPlan, delay: DelayPlan| {
            let perturbations = Perturbations {
                crash: crash.clone(),
                delay,
            };
            Simulation::with_perturbations(env(n, 2, 3), colony::simple(n, 3), Some(perturbations))
        };
        let wrong_sizes = [
            CrashPlan::fraction(n - 1, 0.25, 2, CrashStyle::InPlace, 3),
            CrashPlan::fraction(n + 1, 0.25, 2, CrashStyle::InPlace, 3),
            CrashPlan::none(5),
        ];
        for crash in &wrong_sizes {
            for delay in [DelayPlan::never(), DelayPlan::new(0.1, 1)] {
                assert_eq!(
                    build(crash, delay).unwrap_err(),
                    SimError::PlanSizeMismatch {
                        plan: crash.len(),
                        n
                    }
                );
            }
        }
        let matching = CrashPlan::fraction(n, 0.25, 2, CrashStyle::InPlace, 3);
        for delay in [DelayPlan::never(), DelayPlan::new(0.1, 1)] {
            let mut sim = build(&matching, delay).unwrap();
            for _ in 0..4 {
                sim.step().unwrap();
            }
        }
    }

    #[test]
    fn empty_plans_hold_no_fault_state() {
        let n = 32;
        let sim = Simulation::with_perturbations(
            env(n, 2, 5),
            colony::simple(n, 5),
            Some(Perturbations::none(n)),
        )
        .unwrap()
        .with_round_threads(2);
        assert!(sim.perturbations.is_none());
        assert!(sim.runs_fast_path(), "an empty plan keeps the fast path");
    }

    /// A simple ant that panics when it observes round `fuse`.
    struct Bomb {
        inner: hh_core::SimpleAnt,
        fuse: u64,
    }

    impl Agent for Bomb {
        fn choose(&mut self, round: u64) -> Action {
            self.inner.choose(round)
        }
        fn observe(&mut self, round: u64, outcome: &Outcome) {
            assert_ne!(round, self.fuse, "the fuse went off");
            self.inner.observe(round, outcome);
        }
        fn committed_nest(&self) -> Option<NestId> {
            self.inner.committed_nest()
        }
        fn label(&self) -> &'static str {
            "bomb"
        }
    }

    /// Runs a 64-ant segment at `threads` round threads in which ant
    /// `bomb` panics in `observe` in round 5, and reports whether
    /// `run_to_convergence` panicked (it must not hang either).
    fn segment_panics(threads: usize, bomb: usize) -> bool {
        let n = 64;
        let mut agents = colony::simple(n, 90);
        agents.replace(
            bomb,
            AnyAgent::custom(Bomb {
                inner: hh_core::SimpleAnt::new(n, 91),
                fuse: 5,
            }),
        );
        let mut sim = Simulation::new(env(n, 3, 90), agents)
            .unwrap()
            .with_round_threads(threads);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_to_convergence(ConvergenceRule::commitment(), 50)
        }))
        .is_err()
    }

    #[test]
    fn a_panic_in_a_worker_chunk_propagates() {
        // The last ant is in the last chunk, which a spawned worker runs.
        for threads in [2, 4] {
            assert!(segment_panics(threads, 63), "{threads} round threads");
        }
    }

    #[test]
    fn a_panic_in_the_calling_threads_chunk_propagates() {
        // Ant 0 is in chunk 0, which the calling thread runs.
        for threads in [2, 4] {
            assert!(segment_panics(threads, 0), "{threads} round threads");
        }
    }
}
