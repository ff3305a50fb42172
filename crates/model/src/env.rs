//! The synchronous environment: state and round execution.
//!
//! [`Environment`] owns the ground-truth state of one execution — ant
//! locations `ℓ(a, r)`, nest populations `c(i, r)`, and per-ant knowledge
//! sets — and advances it one synchronous round at a time via
//! [`Environment::step`], which takes exactly one [`Action`] per ant,
//! validates every call's precondition, resolves searches and the
//! recruitment pairing, and returns each ant's [`Outcome`].
//!
//! # Semantics (Section 2 of the paper)
//!
//! * All ants start at the home nest; `c(0, 0) = n`.
//! * `search()` relocates the ant to a uniformly random candidate nest and
//!   returns `⟨i, q(i), c(i, r)⟩` with *end-of-round* counts.
//! * `go(i)` relocates the ant to nest `i` and returns `c(i, r)`.
//! * `recruit(b, i)` relocates the ant to the home nest, enters it into the
//!   round's pairing (Algorithm 1), and returns `⟨j, c(0, r)⟩`.
//! * Counts reported to ants pass through the configured
//!   [`NoiseModel`](crate::noise::NoiseModel) (exact by default), drawn
//!   independently per observation.
//!
//! ## Randomness ownership (the intra-round determinism contract)
//!
//! Every random draw attributable to a single ant — its search placement
//! and its observation noise — comes from that ant's own derived streams
//! ([`StreamKind::AgentEnvironment`] and [`StreamKind::AgentNoise`]), so
//! a round's outcome is a function of per-ant state only and is
//! independent of the order (or thread) ants are processed in. The only
//! draw on the shared environment stream is the recruitment pairing
//! (Algorithm 1), which is a single colony-level process and stays
//! serial. The executor in `hh-sim` exploits this to run the per-ant
//! phases of a round over disjoint ant chunks on round workers with
//! bit-identical results for every thread count, through
//! [`Environment::split_round`].
//!
//! Every environment holds one search stream per ant. Noise streams exist
//! only under a noisy [`NoiseModel`]: an exact model (the Section 2
//! model, and every catalog scenario) never draws noise, so its
//! environment seeds and stores none. A noise stream is seeded from
//! `(seed, ant)` alone, so leaving them out of exact models changes no
//! noisy realization.
//!
//! ## Knowledge-set clarification
//!
//! The paper's formal precondition for `go(i)`/`recruit(·, i)` is a prior
//! round with `ℓ(a, r′) = i`, yet both of its algorithms immediately `go`
//! to a nest the ant was just *recruited to* (e.g. Algorithm 2 lines
//! 14–18). We therefore track a knowledge set per ant — nests visited
//! *or learned through recruitment* — and use membership as the legality
//! test. See [clarification 1](crate::clarifications#1-knowledge-based-legality).

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::actions::{Action, Outcome};
use crate::config::ColonyConfig;
use crate::error::ModelError;
use crate::ids::{AntId, NestId};
use crate::nest::{Nest, Quality};
use crate::noise::NoiseModel;
use crate::recruitment::{pair_chunks_into, Pairing, RecruitCall};
use crate::seeding::{derive_seed, SeedPrefix, StreamKind};
use crate::util::{BitMatrix, RowBandMut};

/// The ground-truth state of one house-hunting execution.
///
/// # Examples
///
/// ```
/// use hh_model::{Action, ColonyConfig, Environment, QualitySpec};
///
/// let config = ColonyConfig::new(4, QualitySpec::all_good(2)).seed(1);
/// let mut env = Environment::new(&config)?;
///
/// // Round 1: every ant must search (no nest is known yet).
/// let report = env.step(&vec![Action::Search; 4])?;
/// assert_eq!(env.round(), 1);
/// assert_eq!(report.outcomes.len(), 4);
/// // All ants are now at candidate nests; the home nest is empty.
/// assert_eq!(env.count(hh_model::NestId::HOME), 0);
/// # Ok::<(), hh_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct Environment {
    nests: Vec<Nest>,
    locations: Vec<NestId>,
    known: BitMatrix,
    counts: Vec<usize>,
    round: u64,
    /// The shared colony-level stream: recruitment pairing only. All
    /// per-ant draws live in `ant_rngs`/`noise_rngs` (see the module
    /// docs on randomness ownership).
    rng: SmallRng,
    /// Per-ant environment streams (search placement), indexed by ant id.
    ant_rngs: Vec<SmallRng>,
    /// Per-ant observation-noise streams, indexed by ant id; empty under
    /// an exact noise model, which never draws.
    noise_rngs: Vec<SmallRng>,
    noise: NoiseModel,
    reveal_quality_on_go: bool,
    /// Reused across rounds by [`pair_round`](Environment::pair_round)
    /// so steady-state stepping allocates nothing.
    scratch_pairing: Pairing,
    scratch_perm: Vec<u32>,
}

/// Everything the environment reports about one executed round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepReport {
    /// Per-ant outcome, indexed by ant id; `outcomes[a]` answers ant `a`'s
    /// call.
    pub outcomes: Vec<Outcome>,
    /// The round's recruitment pairing, exposed for instrumentation. The
    /// agents themselves only ever see their own [`Outcome`].
    pub recruitment: RecruitmentReport,
}

/// Instrumentation view of one round's recruitment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecruitmentReport {
    /// The participants, in ant-id order.
    pub calls: Vec<RecruitCall>,
    /// Matched `(recruiter, recruited)` pairs; self-pairs appear as
    /// `(a, a)`.
    pub pairs: Vec<(AntId, AntId)>,
}

impl Environment {
    /// Builds the initial environment (round 0, all ants at home) from a
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures; see
    /// [`ColonyConfig::validated_qualities`]. Returns
    /// [`ModelError::InvalidNoise`] if a noise variant built directly
    /// holds a parameter its constructor would reject.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds `u32::MAX`, the range of [`NestId`]
    /// ([`NestId::candidate`]).
    pub fn new(config: &ColonyConfig) -> Result<Self, ModelError> {
        let qualities = config.validated_qualities()?;
        let noise = config.noise_model().validated()?;
        let n = config.n();
        let k = qualities.len();
        let nests: Vec<Nest> = qualities
            .into_iter()
            .enumerate()
            .map(|(idx, q)| Nest::new(NestId::candidate(idx + 1), q))
            .collect();
        let mut counts = vec![0; k + 1];
        counts[0] = n;
        let base = config.base_seed();
        let per_ant = |kind| {
            let seeds = SeedPrefix::new(base, kind);
            (0..n)
                .map(|ant| SmallRng::seed_from_u64(seeds.seed(ant as u64)))
                .collect()
        };
        Ok(Self {
            nests,
            locations: vec![NestId::HOME; n],
            known: BitMatrix::new(n, k + 1),
            counts,
            round: 0,
            rng: SmallRng::seed_from_u64(derive_seed(base, StreamKind::Environment, 0)),
            ant_rngs: per_ant(StreamKind::AgentEnvironment),
            noise_rngs: if noise.is_exact() {
                Vec::new()
            } else {
                per_ant(StreamKind::AgentNoise)
            },
            noise,
            reveal_quality_on_go: config.go_reveals_quality(),
            scratch_pairing: Pairing::default(),
            scratch_perm: Vec::new(),
        })
    }

    /// Returns the colony size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.locations.len()
    }

    /// Returns the number of candidate nests `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.nests.len()
    }

    /// Returns the number of completed rounds; the next [`step`](Self::step)
    /// executes round `round() + 1`.
    #[must_use]
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Returns the candidate nests `n₁ … n_k`.
    #[must_use]
    pub fn nests(&self) -> &[Nest] {
        &self.nests
    }

    /// Returns `true` if this environment runs the "assessing go" model
    /// extension: `go(i)` outcomes carry the nest's (possibly noisy)
    /// quality in addition to its count. In the strict Section 2 model this
    /// is `false` and `go` returns only the count.
    #[must_use]
    pub fn go_reveals_quality(&self) -> bool {
        self.reveal_quality_on_go
    }

    /// Returns the true (noise-free) quality of a candidate nest, or
    /// `None` for the home nest or an out-of-range id.
    #[must_use]
    pub fn quality_of(&self, nest: NestId) -> Option<Quality> {
        let idx = nest.candidate_index()?;
        self.nests.get(idx).map(Nest::quality)
    }

    /// Returns the ids of all good candidate nests.
    #[must_use]
    pub fn good_nests(&self) -> Vec<NestId> {
        self.nests
            .iter()
            .filter(|nest| nest.quality().is_good())
            .map(Nest::id)
            .collect()
    }

    /// Returns the true end-of-round population `c(i, r)` of a nest
    /// (including the home nest). Out-of-range ids have population 0.
    #[must_use]
    #[inline]
    pub fn count(&self, nest: NestId) -> usize {
        self.counts.get(nest.raw()).copied().unwrap_or(0)
    }

    /// Returns the true populations of all nests, indexed by raw nest id
    /// (`0` = home).
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Returns nest `i`'s share of the colony, `p(i, r) = c(i, r) / n`.
    #[must_use]
    pub fn population_fraction(&self, nest: NestId) -> f64 {
        self.count(nest) as f64 / self.n() as f64
    }

    /// Returns ant `a`'s current location `ℓ(a, r)`.
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range.
    #[must_use]
    #[inline]
    pub fn location_of(&self, ant: AntId) -> NestId {
        self.locations[ant.index()]
    }

    /// Returns all ant locations, indexed by ant id.
    #[must_use]
    pub fn locations(&self) -> &[NestId] {
        &self.locations
    }

    /// Returns `true` if ant `a` knows nest `i` (has visited it or been
    /// recruited to it) and may therefore pass it to `go`/`recruit`.
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range.
    #[must_use]
    #[inline]
    pub fn knows(&self, ant: AntId, nest: NestId) -> bool {
        self.known.contains(ant.index(), nest.raw())
    }

    /// Returns the lowest-numbered nest ant `a` knows, if any. Useful for
    /// constructing a legal no-op action for a crashed or delayed ant.
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range.
    #[must_use]
    #[inline]
    pub fn first_known(&self, ant: AntId) -> Option<NestId> {
        self.known.first(ant.index()).map(NestId::from_raw)
    }

    /// Returns an iterator over the nests ant `a` knows, in ascending id
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range.
    pub fn known_nests(&self, ant: AntId) -> impl Iterator<Item = NestId> + '_ {
        self.known.iter_row(ant.index()).map(NestId::from_raw)
    }

    /// Executes one synchronous round: exactly one action per ant.
    ///
    /// All validation happens before any state changes, so a failed step
    /// leaves the environment untouched. The round is resolved through
    /// the same [`split_round`](Self::split_round) halves the `hh-sim`
    /// executor splits across workers (here one full-range chunk), so
    /// every caller draws the same streams.
    ///
    /// # Errors
    ///
    /// * [`ModelError::WrongActionCount`] if `actions.len() != n`;
    /// * [`ModelError::HomeNotAllowed`] if a `go`/`recruit` names the home
    ///   nest;
    /// * [`ModelError::UnknownNest`] if a nest id exceeds `k`;
    /// * [`ModelError::NestNotKnown`] if an ant uses a nest it has neither
    ///   visited nor been recruited to (in particular, any non-`search`
    ///   call in round 1).
    pub fn step(&mut self, actions: &[Action]) -> Result<StepReport, ModelError> {
        self.validate(actions)?;
        let mut report = StepReport::default();
        let mut counts = vec![0; self.k() + 1];
        let (mut chunk, mut shared) = self.split_round();
        chunk.apply_all(actions, &mut counts, &mut report.recruitment.calls);
        shared.merge_counts(std::iter::once(counts.as_slice()));
        shared.pair_round([report.recruitment.calls.as_slice()]);
        let mut call_cursor = 0usize;
        report.outcomes = actions
            .iter()
            .enumerate()
            .map(|(idx, action)| chunk.outcome(&shared, idx, *action, &mut call_cursor))
            .collect();
        self.build_pairs(&report.recruitment.calls);
        self.export_pairs(&mut report);
        Ok(report)
    }

    /// Splits the environment into its per-ant state, as the full-range
    /// [`AntChunk`], and its colony-level rest, [`SharedRound`].
    ///
    /// A round runs in three steps. Split the chunk
    /// ([`AntChunk::split_at`]) and [`apply`](AntChunk::apply) every
    /// ant's action exactly once, into per-chunk population tallies and
    /// recruit-call vectors (in chunk order the calls are in ant order).
    /// Fold the tallies with [`SharedRound::merge_counts`], which nothing
    /// reads them before, and run [`SharedRound::pair_round`] over the
    /// call vectors in chunk order. Then compute every ant's
    /// [`outcome`](AntChunk::outcome).
    pub fn split_round(&mut self) -> (AntChunk<'_>, SharedRound<'_>) {
        (
            AntChunk {
                start: 0,
                k: self.nests.len(),
                locations: &mut self.locations,
                known: self.known.rows_mut(),
                rngs: &mut self.ant_rngs,
                noise_rngs: &mut self.noise_rngs,
            },
            SharedRound {
                nests: &self.nests,
                counts: &mut self.counts,
                round: &mut self.round,
                rng: &mut self.rng,
                pairing: &mut self.scratch_pairing,
                perm: &mut self.scratch_perm,
                noise: self.noise,
                reveal_quality_on_go: self.reveal_quality_on_go,
            },
        )
    }

    /// The per-ant half of [`split_round`](Self::split_round), for
    /// driving the relocation phase on its own.
    pub fn relocation_view(&mut self) -> AntChunk<'_> {
        self.split_round().0
    }

    /// [`SharedRound::merge_counts`] on this environment.
    ///
    /// # Panics
    ///
    /// Panics if a delta slice's length is not `k + 1`.
    pub fn merge_counts<'a, I>(&mut self, deltas: I)
    where
        I: IntoIterator<Item = &'a [usize]>,
    {
        self.split_round().1.merge_counts(deltas);
    }

    /// [`SharedRound::pair_round`] on this environment over one chunk,
    /// `calls` in ant order, followed by [`build_pairs`](Self::build_pairs):
    /// the round's matched pairs are then ready for
    /// [`export_pairs`](Self::export_pairs).
    pub fn pair_round(&mut self, calls: &[RecruitCall]) {
        self.split_round().1.pair_round([calls]);
        self.build_pairs(calls);
    }

    /// Builds the id-level view of the just-paired round's matching, its
    /// pairs as ant ids, from the round's `calls` in ant order. Only a
    /// round that reports its pairs needs it:
    /// [`pair_round`](Self::pair_round) and [`step`](Self::step) build it,
    /// and the `hh-sim` executor calls it on the rounds it materializes
    /// (see the `hh_model::recruitment` module docs).
    ///
    /// # Panics
    ///
    /// Panics if `calls` holds fewer calls than the round was paired over.
    pub fn build_pairs(&mut self, calls: &[RecruitCall]) {
        self.scratch_pairing.build_pairs(calls);
    }

    /// Copies the just-paired round's matched pairs into the report, as
    /// ant ids — shared tail of [`step`](Self::step) and the executor's
    /// materialized rounds. The pairs are those the last
    /// [`build_pairs`](Self::build_pairs) (through
    /// [`pair_round`](Self::pair_round) or [`step`](Self::step)) built
    /// for this round; after a round paired by
    /// [`SharedRound::pair_round`] alone, such as every unmaterialized
    /// round of the executor, there are none.
    pub fn export_pairs(&self, report: &mut StepReport) {
        report.recruitment.pairs.clear();
        report
            .recruitment
            .pairs
            .extend_from_slice(self.scratch_pairing.pairs());
    }

    /// [`split_round`](Self::split_round) under the name of the phase
    /// that needs both halves. Valid for outcomes only after
    /// [`pair_round`](Self::pair_round).
    pub fn outcome_view(&mut self) -> (AntChunk<'_>, SharedRound<'_>) {
        self.split_round()
    }

    /// Checks whether `ant` may legally perform `action` in the next round
    /// without executing anything.
    ///
    /// The executor in `hh-sim` uses this to sandbox misbehaving agents:
    /// an illegal action is replaced with a no-op instead of aborting the
    /// whole execution.
    ///
    /// # Errors
    ///
    /// Returns the same errors `step` would for this single action.
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range.
    #[inline]
    pub fn check_action(&self, ant: AntId, action: &Action) -> Result<(), ModelError> {
        check_nest_argument(self.k(), ant, action, |nest| {
            self.known.contains(ant.index(), nest.raw())
        })
    }

    fn validate(&self, actions: &[Action]) -> Result<(), ModelError> {
        if actions.len() != self.n() {
            return Err(ModelError::WrongActionCount {
                got: actions.len(),
                expected: self.n(),
            });
        }
        for (idx, action) in actions.iter().enumerate() {
            self.check_action(AntId::new(idx), action)?;
        }
        Ok(())
    }
}

/// The nest-argument legality test — the **single** definition shared
/// by [`Environment::check_action`] and
/// [`AntChunk::check_action`], so the serial and chunked
/// executor paths cannot drift apart. `knows` answers whether the ant
/// has visited or been recruited to the nest.
#[inline]
fn check_nest_argument(
    k: usize,
    ant: AntId,
    action: &Action,
    knows: impl FnOnce(NestId) -> bool,
) -> Result<(), ModelError> {
    if let Some(nest) = action.nest() {
        if nest.is_home() {
            return Err(ModelError::HomeNotAllowed { ant });
        }
        if nest.raw() > k {
            return Err(ModelError::UnknownNest { ant, nest });
        }
        if !knows(nest) {
            return Err(ModelError::NestNotKnown { ant, nest });
        }
    }
    Ok(())
}

/// A disjoint, contiguous chunk of the colony's per-ant state: the unit
/// both per-ant phases of a round run over.
///
/// Produced by [`Environment::split_round`] (the full-range chunk) and
/// [`AntChunk::split_at`]. All randomness comes from the chunk's per-ant
/// streams, and every write lands in the chunk's own rows, so processing
/// chunks concurrently (each ant exactly once per phase) yields state
/// bit-identical to the serial full-range pass wherever the boundaries
/// fall.
#[derive(Debug)]
pub struct AntChunk<'a> {
    /// Global ant id of the chunk's first ant.
    start: usize,
    k: usize,
    locations: &'a mut [NestId],
    known: RowBandMut<'a>,
    /// Search placement, one stream per ant.
    rngs: &'a mut [SmallRng],
    /// Observation noise, one stream per ant under a noisy model; empty
    /// under an exact one.
    noise_rngs: &'a mut [SmallRng],
}

impl<'a> AntChunk<'a> {
    /// Global ant id of the first ant in the chunk.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of ants in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` if the chunk covers no ants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Splits at global ant id `mid` into `[start, mid)` and
    /// `[mid, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `mid` is outside the chunk's range.
    #[must_use]
    pub fn split_at(self, mid: usize) -> (AntChunk<'a>, AntChunk<'a>) {
        let local = mid - self.start;
        let (loc_a, loc_b) = self.locations.split_at_mut(local);
        let (known_a, known_b) = self.known.split_at(local);
        let (rng_a, rng_b) = self.rngs.split_at_mut(local);
        let noise_mid = if self.noise_rngs.is_empty() { 0 } else { local };
        let (noise_a, noise_b) = self.noise_rngs.split_at_mut(noise_mid);
        (
            AntChunk {
                start: self.start,
                k: self.k,
                locations: loc_a,
                known: known_a,
                rngs: rng_a,
                noise_rngs: noise_a,
            },
            AntChunk {
                start: mid,
                k: self.k,
                locations: loc_b,
                known: known_b,
                rngs: rng_b,
                noise_rngs: noise_b,
            },
        )
    }

    /// [`Environment::check_action`] against the chunk's state: whether
    /// ant `idx` (global id, within the chunk) may legally perform
    /// `action` this round.
    ///
    /// # Errors
    ///
    /// Returns the same errors [`Environment::step`] would for this
    /// single action.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the chunk.
    #[inline]
    pub fn check_action(&self, idx: usize, action: &Action) -> Result<(), ModelError> {
        check_nest_argument(self.k, AntId::new(idx), action, |nest| {
            self.known.contains(idx - self.start, nest.raw())
        })
    }

    /// The location-preserving in-place no-op for ant `idx` — the chunk
    /// equivalent of [`noop_action`](crate::faults::noop_action) with
    /// [`CrashStyle::InPlace`](crate::faults::CrashStyle::InPlace), used
    /// to sandbox illegal actions.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the chunk.
    #[must_use]
    pub fn noop_in_place(&self, idx: usize) -> Action {
        let local = idx - self.start;
        crate::faults::in_place_noop(
            self.locations[local],
            self.known.first(local).map(NestId::from_raw),
        )
    }

    /// Applies ant `idx`'s action: relocates the ant, updates its
    /// knowledge set, tallies the end-of-round population into `counts`
    /// (length `k + 1`, raw-nest-indexed), and appends `recruit` calls to
    /// `calls`. Search placement draws from the ant's own stream.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the chunk or the action names an
    /// out-of-range nest (pre-validate with
    /// [`check_action`](Self::check_action)).
    #[inline]
    pub fn apply(
        &mut self,
        idx: usize,
        action: Action,
        counts: &mut [usize],
        calls: &mut Vec<RecruitCall>,
    ) {
        let local = idx - self.start;
        match action {
            Action::Search => {
                let nest = NestId::candidate(self.rngs[local].random_range(1..=self.k));
                self.locations[local] = nest;
                self.known.insert(local, nest.raw());
                counts[nest.raw()] += 1;
            }
            Action::Go(nest) => {
                self.locations[local] = nest;
                counts[nest.raw()] += 1;
            }
            Action::Recruit { active, nest } => {
                self.locations[local] = NestId::HOME;
                counts[0] += 1;
                calls.push(RecruitCall::new(AntId::new(idx), active, nest));
            }
        }
    }

    /// Applies a whole chunk's worth of (pre-validated, pre-sandboxed)
    /// actions: [`apply`](Self::apply) for each ant in chunk order.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is not exactly one action per chunk ant or an
    /// action names an out-of-range nest (pre-validate with
    /// [`check_action`](Self::check_action)).
    pub fn apply_all(
        &mut self,
        actions: &[Action],
        counts: &mut [usize],
        calls: &mut Vec<RecruitCall>,
    ) {
        assert_eq!(actions.len(), self.len(), "one action per chunk ant");
        for (idx, &action) in (self.start..).zip(actions) {
            self.apply(idx, action, counts, calls);
        }
    }

    /// Computes ant `idx`'s outcome for the just-paired round, advancing
    /// `call_cursor` past recruit participants. Must be invoked in
    /// ascending ant order within the chunk, with `call_cursor` starting
    /// at the chunk's first ant's rank among the round's recruiters (0
    /// for the first chunk; later chunks start at the prefix sum of
    /// earlier chunks' recruit-call counts).
    ///
    /// A recruit participant learns the nest its call returns
    /// ([clarification 1](crate::clarifications#1-knowledge-based-legality)).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the chunk or `action` is not the action
    /// the round was resolved with.
    #[inline]
    pub fn outcome(
        &mut self,
        shared: &SharedRound<'_>,
        idx: usize,
        action: Action,
        call_cursor: &mut usize,
    ) -> Outcome {
        let local = idx - self.start;
        let mut observe = Observer {
            noise: shared.noise,
            rng: self.noise_rngs.get_mut(local),
        };
        match action {
            Action::Search => {
                let nest = self.locations[local];
                Outcome::Search {
                    nest,
                    quality: shared.nests[nest.candidate_index().expect("searched nest")].quality(),
                    count: observe.count(shared.counts[nest.raw()]),
                }
            }
            Action::Go(nest) => Outcome::Go {
                count: observe.count(shared.counts[nest.raw()]),
                quality: shared.reveal_quality_on_go.then(|| {
                    shared.nests[nest.candidate_index().expect("candidate nest")].quality()
                }),
            },
            Action::Recruit { .. } => {
                let assigned = shared.pairing.assigned_nest(*call_cursor);
                *call_cursor += 1;
                self.known.insert(local, assigned.raw());
                Outcome::Recruit {
                    nest: assigned,
                    home_count: observe.count(shared.counts[0]),
                }
            }
        }
    }
}

/// One ant's count observations in [`AntChunk::outcome`]: the round's
/// noise model and the ant's noise stream, which only a noisy model has.
/// Without a stream the model is exact and every count is the true value.
struct Observer<'r> {
    noise: NoiseModel,
    rng: Option<&'r mut SmallRng>,
}

impl Observer<'_> {
    /// A population count through the noise model, narrowed for the
    /// outcome.
    #[inline]
    fn count(&mut self, true_count: usize) -> u32 {
        Outcome::narrow_count(match self.rng.as_deref_mut() {
            Some(rng) => self.noise.observe(true_count, rng),
            None => true_count,
        })
    }
}

/// The colony-level state of a round — nests, merged populations, round
/// counter, the shared pairing stream and the round's pairing — and no
/// per-ant state. The serial middle of a round writes it
/// ([`merge_counts`](Self::merge_counts), then
/// [`pair_round`](Self::pair_round)); one `&SharedRound` then serves the
/// outcomes of every [`AntChunk`] concurrently.
#[derive(Debug)]
pub struct SharedRound<'a> {
    nests: &'a [Nest],
    counts: &'a mut [usize],
    round: &'a mut u64,
    /// The shared colony-level stream: recruitment pairing only.
    rng: &'a mut SmallRng,
    pairing: &'a mut Pairing,
    perm: &'a mut Vec<u32>,
    noise: NoiseModel,
    reveal_quality_on_go: bool,
}

impl<'a> SharedRound<'a> {
    /// The candidate nests `n₁ … n_k`.
    #[must_use]
    pub fn nests(&self) -> &'a [Nest] {
        self.nests
    }

    /// Completed rounds; after [`pair_round`](Self::pair_round) this is
    /// the round being resolved.
    #[must_use]
    pub fn round(&self) -> u64 {
        *self.round
    }

    /// Replaces the population tally with the sum of the per-chunk
    /// tallies produced by [`AntChunk::apply`]. Deltas are summed in
    /// iteration order; each slice must have length `k + 1`.
    ///
    /// # Panics
    ///
    /// Panics if a delta slice's length is not `k + 1`.
    pub fn merge_counts<'d, I>(&mut self, deltas: I)
    where
        I: IntoIterator<Item = &'d [usize]>,
    {
        self.counts.fill(0);
        for delta in deltas {
            assert_eq!(delta.len(), self.counts.len(), "count delta width");
            for (slot, add) in self.counts.iter_mut().zip(delta) {
                *slot += add;
            }
        }
    }

    /// The serial middle of a round: runs Algorithm 1's kernel
    /// ([`pair_chunks_into`]) on the shared stream over the round's
    /// recruit calls, read in place from the per-chunk call vectors in
    /// chunk order (so in ant order), and advances the round counter.
    /// Call between the relocation and outcome phases; recruited ants
    /// learn their new nest in the outcome phase.
    ///
    /// The kernel builds what the outcomes read, not the pairs as ant
    /// ids: [`Environment::build_pairs`] adds those for a round that
    /// reports them.
    pub fn pair_round<'c, I>(&mut self, chunks: I)
    where
        I: IntoIterator<Item = &'c [RecruitCall]>,
        I::IntoIter: Clone,
    {
        pair_chunks_into(chunks, self.rng, self.pairing, self.perm);
        *self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QualitySpec;

    fn env(n: usize, k: usize, seed: u64) -> Environment {
        let config = ColonyConfig::new(n, QualitySpec::all_good(k)).seed(seed);
        Environment::new(&config).expect("valid config")
    }

    #[test]
    fn initial_state_has_all_ants_home() {
        let env = env(10, 3, 0);
        assert_eq!(env.n(), 10);
        assert_eq!(env.k(), 3);
        assert_eq!(env.round(), 0);
        assert_eq!(env.count(NestId::HOME), 10);
        for i in 1..=3 {
            assert_eq!(env.count(NestId::candidate(i)), 0);
        }
        for a in 0..10 {
            assert!(env.location_of(AntId::new(a)).is_home());
            assert_eq!(env.known_nests(AntId::new(a)).count(), 0);
        }
    }

    #[test]
    fn wrong_action_count_is_rejected() {
        let mut env = env(5, 2, 0);
        let err = env.step(&[Action::Search; 3]).unwrap_err();
        assert_eq!(
            err,
            ModelError::WrongActionCount {
                got: 3,
                expected: 5
            }
        );
        assert_eq!(env.round(), 0, "failed step must not advance the round");
    }

    #[test]
    fn round_one_must_search() {
        let mut env = env(2, 2, 0);
        let n1 = NestId::candidate(1);
        let err = env.step(&[Action::Go(n1), Action::Search]).unwrap_err();
        assert_eq!(
            err,
            ModelError::NestNotKnown {
                ant: AntId::new(0),
                nest: n1
            }
        );
        let err = env
            .step(&[Action::recruit_passive(n1), Action::Search])
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::NestNotKnown {
                ant: AntId::new(0),
                nest: n1
            }
        );
    }

    #[test]
    fn home_nest_is_not_a_valid_argument() {
        let mut env = env(1, 2, 0);
        let err = env.step(&[Action::Go(NestId::HOME)]).unwrap_err();
        assert_eq!(err, ModelError::HomeNotAllowed { ant: AntId::new(0) });
    }

    #[test]
    fn out_of_range_nest_is_rejected() {
        let mut env = env(1, 2, 0);
        let err = env.step(&[Action::Go(NestId::candidate(9))]).unwrap_err();
        assert_eq!(
            err,
            ModelError::UnknownNest {
                ant: AntId::new(0),
                nest: NestId::candidate(9)
            }
        );
    }

    #[test]
    fn search_relocates_and_teaches() {
        let mut env = env(6, 4, 7);
        let report = env.step(&[Action::Search; 6]).unwrap();
        assert_eq!(env.round(), 1);
        assert_eq!(env.count(NestId::HOME), 0);
        let mut seen_total = 0;
        for i in 1..=4 {
            seen_total += env.count(NestId::candidate(i));
        }
        assert_eq!(seen_total, 6, "every ant is at some candidate nest");
        for (idx, outcome) in report.outcomes.iter().enumerate() {
            let ant = AntId::new(idx);
            match outcome {
                Outcome::Search {
                    nest,
                    quality,
                    count,
                } => {
                    assert_eq!(env.location_of(ant), *nest);
                    assert!(env.knows(ant, *nest));
                    assert!(quality.is_good());
                    assert_eq!(*count as usize, env.count(*nest), "end-of-round count");
                }
                other => panic!("expected search outcome, got {other:?}"),
            }
        }
    }

    #[test]
    fn go_revisits_known_nest() {
        let mut env = env(1, 2, 3);
        let report = env.step(&[Action::Search]).unwrap();
        let nest = report.outcomes[0].nest().unwrap();
        // Going back home is impossible except via recruit; go to the same
        // nest keeps the ant there.
        let report = env.step(&[Action::Go(nest)]).unwrap();
        assert_eq!(
            report.outcomes[0],
            Outcome::Go {
                count: 1,
                quality: None
            }
        );
        assert_eq!(env.location_of(AntId::new(0)), nest);
    }

    #[test]
    fn recruit_returns_home() {
        let mut env = env(3, 2, 5);
        let report = env.step(&[Action::Search; 3]).unwrap();
        let nests: Vec<NestId> = report.outcomes.iter().map(|o| o.nest().unwrap()).collect();
        let actions: Vec<Action> = nests
            .iter()
            .map(|&nest| Action::recruit_passive(nest))
            .collect();
        let report = env.step(&actions).unwrap();
        assert_eq!(env.count(NestId::HOME), 3);
        for (idx, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                Outcome::Recruit { nest, home_count } => {
                    // Passive-only round: no pair forms, everyone keeps its
                    // own input.
                    assert_eq!(*nest, nests[idx]);
                    assert_eq!(*home_count, 3);
                }
                other => panic!("expected recruit outcome, got {other:?}"),
            }
        }
        assert!(report.recruitment.pairs.is_empty());
        assert_eq!(report.recruitment.calls.len(), 3);
    }

    #[test]
    fn recruited_ant_learns_the_nest() {
        // Ant 0 searches into some nest and then actively recruits; ant 1
        // waits at its own nest. The first seed whose two searches land
        // in different nests makes the lesson observable.
        let (mut env, nest0, nest1) = (0..)
            .find_map(|seed| {
                let config = ColonyConfig::new(2, QualitySpec::all_good(2)).seed(seed);
                let mut env = Environment::new(&config).unwrap();
                let report = env.step(&[Action::Search, Action::Search]).unwrap();
                let nest0 = report.outcomes[0].nest().unwrap();
                let nest1 = report.outcomes[1].nest().unwrap();
                (nest0 != nest1).then_some((env, nest0, nest1))
            })
            .unwrap();
        let ant1 = AntId::new(1);
        // An active recruiter picks the only other participant with
        // probability 1/2 each round.
        for round in 0..200 {
            assert!(!env.knows(ant1, nest0), "round {round}: learned early");
            let report = env
                .step(&[
                    Action::recruit_active(nest0),
                    Action::recruit_passive(nest1),
                ])
                .unwrap();
            if report.outcomes[1].nest() == Some(nest0) {
                assert!(env.knows(ant1, nest0));
                assert!(env.step(&[Action::Go(nest0), Action::Go(nest0)]).is_ok());
                return;
            }
        }
        panic!("ant 1 was never recruited in 200 rounds");
    }

    #[test]
    fn counts_always_sum_to_n() {
        let mut env = env(20, 3, 13);
        env.step(&[Action::Search; 20]).unwrap();
        for round in 0..10 {
            let actions: Vec<Action> = (0..20)
                .map(|a| {
                    let ant = AntId::new(a);
                    let nest = env.first_known(ant).unwrap();
                    if (a + round) % 3 == 0 {
                        Action::Search
                    } else if (a + round) % 3 == 1 {
                        Action::Go(if env.location_of(ant).is_home() {
                            nest
                        } else {
                            env.location_of(ant)
                        })
                    } else {
                        Action::recruit_passive(nest)
                    }
                })
                .collect();
            env.step(&actions).unwrap();
            assert_eq!(env.counts().iter().sum::<usize>(), 20);
        }
    }

    #[test]
    fn search_is_roughly_uniform() {
        let mut env = env(8000, 4, 17);
        env.step(&vec![Action::Search; 8000]).unwrap();
        for i in 1..=4 {
            let c = env.count(NestId::candidate(i));
            assert!(
                (1700..=2300).contains(&c),
                "nest {i} got {c} searchers; expected ≈2000"
            );
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| {
            let mut e = env(50, 3, seed);
            let mut trace = Vec::new();
            e.step(&vec![Action::Search; 50]).unwrap();
            for _ in 0..5 {
                let actions: Vec<Action> = (0..50)
                    .map(|a| Action::recruit_active(e.location_of(AntId::new(a))))
                    .collect();
                // All ants are at candidate nests after searching; recruit
                // from there (legal: they know their own nest).
                let report = e.step(&actions).unwrap();
                trace.push(report.outcomes.clone());
                // Go back out to the assigned nests.
                let back: Vec<Action> = report
                    .outcomes
                    .iter()
                    .map(|o| Action::Go(o.nest().unwrap()))
                    .collect();
                e.step(&back).unwrap();
            }
            trace
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(124));
    }

    #[test]
    fn quality_of_home_is_none() {
        let env = env(1, 2, 0);
        assert_eq!(env.quality_of(NestId::HOME), None);
        assert_eq!(env.quality_of(NestId::candidate(1)), Some(Quality::GOOD));
        assert_eq!(env.quality_of(NestId::candidate(99)), None);
    }

    #[test]
    fn good_nests_lists_good_only() {
        let config = ColonyConfig::new(4, QualitySpec::good_prefix(5, 2)).seed(0);
        let env = Environment::new(&config).unwrap();
        assert_eq!(
            env.good_nests(),
            vec![NestId::candidate(1), NestId::candidate(2)]
        );
    }

    #[test]
    fn noisy_counts_flow_through_outcomes() {
        let noise = NoiseModel::multiplicative(0.5).unwrap();
        let config = ColonyConfig::new(1000, QualitySpec::all_good(1))
            .seed(3)
            .noise(noise);
        let mut env = Environment::new(&config).unwrap();
        let report = env.step(&vec![Action::Search; 1000]).unwrap();
        // All ants are in the single nest (true count 1000); with σ = 0.5
        // log-normal noise some observation should differ from the truth.
        let distinct = report.outcomes.iter().any(|o| o.count() != 1000);
        assert!(distinct, "noise should perturb at least one observation");
        // But the true state is unaffected.
        assert_eq!(env.count(NestId::candidate(1)), 1000);
    }

    #[test]
    fn only_a_noisy_model_holds_noise_streams() {
        let mut exact = env(16, 2, 0);
        assert_eq!(exact.ant_rngs.len(), 16);
        assert!(exact.noise_rngs.is_empty(), "an exact model never draws");
        // An exact model's chunks split anywhere, into empty noise halves.
        let (head, tail) = exact.relocation_view().split_at(5);
        assert_eq!((head.len(), tail.len()), (5, 11));
        assert!(head.noise_rngs.is_empty() && tail.noise_rngs.is_empty());
        let noise = NoiseModel::multiplicative(0.5).unwrap();
        let config = ColonyConfig::new(16, QualitySpec::all_good(2)).noise(noise);
        let mut noisy = Environment::new(&config).unwrap();
        assert_eq!(noisy.noise_rngs.len(), 16);
        let (head, tail) = noisy.relocation_view().split_at(5);
        assert_eq!((head.noise_rngs.len(), tail.noise_rngs.len()), (5, 11));
    }

    #[test]
    fn out_of_range_noise_is_an_error() {
        for sigma in [f64::NAN, -1.0, f64::INFINITY] {
            let noise = NoiseModel::Multiplicative { sigma };
            let config = ColonyConfig::new(4, QualitySpec::all_good(2)).noise(noise);
            assert!(
                matches!(
                    Environment::new(&config),
                    Err(ModelError::InvalidNoise { .. })
                ),
                "{noise:?}"
            );
        }
    }

    #[test]
    fn population_fraction() {
        let mut env = env(10, 1, 0);
        env.step(&[Action::Search; 10]).unwrap();
        assert_eq!(env.population_fraction(NestId::candidate(1)), 1.0);
        assert_eq!(env.population_fraction(NestId::HOME), 0.0);
    }
}
