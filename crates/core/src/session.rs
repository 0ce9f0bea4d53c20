//! The persistent front door: a [`DedupSession`] that owns the pipeline's
//! warm state and supports **incremental ingest**.
//!
//! The paper's pipeline is stateless per invocation, but every realistic
//! deployment re-deduplicates a mostly-unchanged corpus as new uncertain
//! tuples arrive (registries accumulating records over time). The
//! one-shot [`DedupPipeline`] drives the same reduction state and matching
//! engine once and drops them; a session keeps them resident:
//!
//! * the **interner pools** — the matching
//!   [`ValuePool`](probdedup_model::intern::ValuePool) and the reduction
//!   key pools inside each warm
//!   [`KeyTable`](probdedup_reduction::KeyTable): values and rendered key
//!   prefixes are interned once per distinct sighting, ever;
//! * the **similarity state** — per-symbol
//!   [`PreparedValue`](probdedup_matching::PreparedValue) sidecars inside
//!   the matching engine's long-lived
//!   [`InternedComparators`](probdedup_matching::InternedComparators),
//!   grown append-only via `sync_pool` (kernel results themselves are
//!   computed, never memoized);
//! * the **reduction state** — per strategy, the rank-sorted entry list of
//!   [`IncrementalSnm`](probdedup_reduction::IncrementalSnm), windowed for
//!   SNM and read by runs of equal keys for blocking, into which new
//!   tuples are rank-inserted instead of re-sorting;
//! * the **decision memo** — the [`PairDecision`] of every pair in the
//!   *current* candidate set (the paper's Fig. 12 matrix: each candidate
//!   is matched once), so an ingest classifies only the pairs it adds and
//!   [`DedupSession::result`] classifies nothing. A pair that leaves the
//!   candidate set takes its decision along: the memo **is** the
//!   candidate set ([`DedupSession::candidate_count`]). It is three dense
//!   columns — packed pair, similarity, class — behind one position index
//!   from pair to slot: [`DedupSession::partition`] counts the class
//!   column and closes the Match slots, [`DedupSession::decisions`] walks
//!   the columns in no particular order, lookups go through the index,
//!   and snapshot section 7 writes the entries sorted by pair. The
//!   ordered candidate *list* is a read concern of
//!   [`DedupSession::result`] alone, which regenerates it from the warm
//!   reduction state once per ingest generation; no write carries it.
//!
//! Two entry points:
//!
//! * [`DedupSession::run`] — full pipeline semantics with warm-state
//!   reuse. Running the **same** sources again skips preparation-state
//!   rebuilds, reduction and interning entirely (zero key renders —
//!   asserted by the property tests via
//!   [`DedupSession::key_render_count`]); running **different** sources
//!   re-keys the corpus against the warm pools, so only never-seen values
//!   render or intern.
//! * [`DedupSession::ingest`] — append one new source to the resident
//!   corpus: intern only the new tuples, grow the reduction state
//!   incrementally, classify **only** the candidate pairs that involve
//!   new rows, and merge into the memo. Growing the reduction state
//!   returns what it inserted, and what the batch changed (the pairs that
//!   arrived, the pairs a window slid past — see `WarmReduction`) is read
//!   off that, so a write costs what it adds, not what is resident. The contract, property-tested in
//!   `tests/invariance.rs`: after ingesting a corpus in *any*
//!   batch split, [`result`](DedupSession::result) equals one batch
//!   [`run`](DedupSession::run) under the engine's equality contract
//!   (ARCHITECTURE.md, "The engine") — for the world-dependent strategies
//!   too (multi-pass over possible worlds), whose candidates depend on the
//!   whole corpus and are regenerated per ingest.
//!
//! What persists vs. what invalidates: pools and sidecars are
//! keyed on **values**, so they survive any corpus change and any number
//! of runs/ingests — but not a restart: a snapshot stores the relation
//! and the decisions, and [`DedupSession::open`] rebuilds the pools from
//! the relation. Row-indexed state (candidate pairs, decisions,
//! reduction rows) is invalidated whenever `run` sees a different corpus.
//! The configuration (schema arity via comparators, kernels, thresholds,
//! reduction strategy) is fixed at build time — change it by building a
//! new session.
//!
//! # Example
//!
//! Ingest two batches incrementally; the merged view equals a one-shot
//! batch run:
//!
//! ```
//! use std::sync::Arc;
//! use probdedup_core::pipeline::DedupPipeline;
//! use probdedup_decision::combine::WeightedSum;
//! use probdedup_decision::derive_sim::ExpectedSimilarity;
//! use probdedup_decision::threshold::Thresholds;
//! use probdedup_decision::xmodel::SimilarityBasedModel;
//! use probdedup_matching::vector::AttributeComparators;
//! use probdedup_model::relation::XRelation;
//! use probdedup_model::schema::Schema;
//! use probdedup_model::xtuple::XTuple;
//! use probdedup_textsim::NormalizedHamming;
//!
//! let schema = Schema::new(["name", "job"]);
//! let tuple = |n: &str, j: &str| XTuple::builder(&schema).alt(1.0, [n, j]).build().unwrap();
//! let mut batch1 = XRelation::new(schema.clone());
//! batch1.push(tuple("John", "pilot"));
//! let mut batch2 = XRelation::new(schema.clone());
//! batch2.push(tuple("John", "pilot"));
//! batch2.push(tuple("Tim", "mechanic"));
//!
//! let mut session = DedupPipeline::builder()
//!     .comparators(AttributeComparators::uniform(&schema, NormalizedHamming::new()))
//!     .model(Arc::new(SimilarityBasedModel::new(
//!         Arc::new(WeightedSum::new([0.8, 0.2]).unwrap()),
//!         Arc::new(ExpectedSimilarity),
//!         Thresholds::new(0.6, 0.8).unwrap(),
//!     )))
//!     .build_session();
//!
//! session.ingest(&batch1).unwrap();
//! let step = session.ingest(&batch2).unwrap();
//! assert_eq!(step.new_rows, 1..3);
//! assert_eq!(step.new_decisions.len(), 3); // new-vs-resident + new-vs-new only
//! let merged = session.result();
//! assert_eq!(merged.clusters, vec![vec![0, 1]]); // the duplicate John
//! ```

use std::path::Path;
use std::sync::OnceLock;

use probdedup_decision::threshold::MatchClass;
use probdedup_model::error::ModelError;
use probdedup_model::ids::SourceId;
use probdedup_model::relation::XRelation;
use probdedup_model::schema::Schema;
use probdedup_model::snapshot::{
    read_xrelation, write_schema, write_xtuple, SectionWriter, SnapshotError, SnapshotReader,
    SnapshotWriter,
};
use probdedup_model::xtuple::XTuple;
use probdedup_reduction::CandidatePairs;

use crate::engine::MatchingEngine;
use crate::memo::DecisionMemo;
use crate::pipeline::{
    match_clusters, DedupPipeline, DedupResult, MatchingStats, PairDecision, Partition,
    PipelineConfig, ReductionStrategy,
};
use crate::snapshot::{
    atomic_write, read_file, TAG_CACHES, TAG_CONFIG, TAG_DECIDED, TAG_ENTITIES, TAG_JOURNAL,
    TAG_MATCH_POOL, TAG_OFFSETS, TAG_REDUCTION, TAG_RELATION,
};
use crate::warm::WarmReduction;

/// What one [`DedupSession::ingest`] call did: the rows it appended, the
/// pairs it newly classified, and the size of the resident candidate set
/// afterwards. The merged view of the whole corpus is
/// [`DedupSession::result`].
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// Source id assigned to the ingested batch (its position among the
    /// session's sources; [`DedupResult::handle`] maps rows back to it).
    pub source: SourceId,
    /// Combined-relation row range of the newly appended tuples.
    pub new_rows: std::ops::Range<usize>,
    /// The pairs classified by this ingest (new-vs-resident and
    /// new-vs-new candidates), in candidate order.
    pub new_decisions: Vec<PairDecision>,
    /// Total candidate pairs over the resident corpus after this ingest.
    pub candidates: usize,
}

impl IncrementalResult {
    /// Number of rows this ingest appended.
    pub fn rows_added(&self) -> usize {
        self.new_rows.len()
    }

    /// Newly classified matches.
    pub fn matches(&self) -> impl Iterator<Item = &PairDecision> {
        self.new_decisions
            .iter()
            .filter(|d| d.class == MatchClass::Match)
    }

    /// One-line report (`+3 rows, +57 pairs classified (1 match), 210
    /// candidates resident`).
    pub fn summary(&self) -> String {
        format!(
            "+{} rows, +{} pairs classified ({} match{}), {} candidates resident",
            self.rows_added(),
            self.new_decisions.len(),
            self.matches().count(),
            if self.matches().count() == 1 {
                ""
            } else {
                "es"
            },
            self.candidates,
        )
    }
}

/// One ingest batch between the phases of [`DedupSession::ingest`]:
/// staged (validated, prepared) off the session, grown into its
/// append-only relation and warm state, classified, and published into
/// the resident view. Only the two `&mut` phases, grow and publish, write
/// the session; one batch is in flight at a time. Journal replay stages a
/// run of batches as one (see [`DedupSession::replay_ingests`]).
pub(crate) struct StagedIngest {
    schema: Schema,
    /// The prepared rows, until `grow` moves them into the relation as
    /// combined rows `starts[0]..`.
    rows: Vec<XTuple>,
    /// The combined row each staged batch starts at, one source apiece.
    starts: Vec<usize>,
    /// Where `grow` inserted the batch's entries into the warm reduction
    /// state's sorted list.
    inserted: Vec<usize>,
    /// The memo pairs that leave the candidate set, set by `classify`.
    departed: Vec<(usize, usize)>,
    /// The candidates in one-shot order, when `classify` regenerated them.
    order: Option<CandidatePairs>,
    /// The decisions of the pairs that arrived and their bounded-tier
    /// counts.
    decisions: Vec<PairDecision>,
    tiers: [u64; 4],
    /// The journal record this batch was appended as, if journaled.
    journal_seq: Option<u64>,
}

impl StagedIngest {
    /// Record that the batch was durably journaled as record `seq`.
    pub(crate) fn journaled_as(&mut self, seq: u64) {
        self.journal_seq = Some(seq);
    }
}

/// A persistent dedup session: the pipeline's warm state plus the
/// resident corpus and its classified pairs. Build with
/// [`DedupPipelineBuilder::build_session`](crate::pipeline::DedupPipelineBuilder::build_session)
/// or [`DedupPipeline::session`](crate::pipeline::DedupPipeline::session);
/// see the module docs for the lifecycle.
pub struct DedupSession {
    config: PipelineConfig,
    /// The prepared relation, append-only between runs; `None` until the
    /// first run/ingest. An ingest appends its rows at grow, ahead of
    /// publishing them.
    relation: Option<XRelation>,
    /// How many rows of `relation` are published: every read sees
    /// `relation.xtuples()[..published]` and nothing past it, and no
    /// relation while `None` — a relation the first batch's grow created
    /// is not published until that batch is.
    published: Option<usize>,
    source_offsets: Vec<usize>,
    reduction: WarmReduction,
    matching: MatchingEngine,
    /// The decision of every current candidate pair, and of no other
    /// pair: [`run`](Self::run) fills it, [`ingest`](Self::ingest) adds
    /// what arrived and drops what departed.
    memo: DecisionMemo,
    /// The candidates in one-shot order, for [`result`](Self::result):
    /// regenerated from `reduction` on first read, emptied by every write
    /// that does not regenerate it anyway.
    order: OnceLock<CandidatePairs>,
    /// Accumulated bounded-tier counters (match, nonmatch, possible,
    /// exhausted) across the session's classifications.
    tiers: [u64; 4],
    /// Highest write-ahead-journal sequence number applied to this state
    /// (0 when the session is not journaled). Maintained by
    /// [`crate::wal::SessionJournal`], persisted in snapshot section 8 so
    /// boot-time replay can skip records a snapshot already covers.
    journal_seq: u64,
}

impl DedupSession {
    pub(crate) fn new(config: PipelineConfig) -> Self {
        let reduction = WarmReduction::for_strategy(&config.reduction);
        let matching = MatchingEngine::new(&config);
        Self {
            config,
            relation: None,
            published: None,
            source_offsets: Vec::new(),
            reduction,
            matching,
            memo: DecisionMemo::default(),
            order: OnceLock::new(),
            tiers: [0; 4],
            journal_seq: 0,
        }
    }

    /// Highest journal sequence number this state covers (0 when the
    /// session has never been journaled — see [`crate::wal`]).
    pub fn journal_seq(&self) -> u64 {
        self.journal_seq
    }

    /// Record that journal record `seq` is now reflected in this state
    /// (called by [`crate::wal::SessionJournal`] on replay and append).
    pub(crate) fn set_journal_seq(&mut self, seq: u64) {
        self.journal_seq = seq;
    }

    /// Number of resident combined rows.
    pub fn rows(&self) -> usize {
        self.published.unwrap_or(0)
    }

    /// The published relation and its published rows (see `published`).
    fn published(&self) -> Option<(&XRelation, &[XTuple])> {
        let rel = self.relation.as_ref()?;
        Some((rel, &rel.xtuples()[..self.published?]))
    }

    /// Whether the session holds no resident rows yet.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Number of sources run/ingested into the resident corpus.
    pub fn source_count(&self) -> usize {
        self.source_offsets.len()
    }

    /// Size of the current resident candidate set — the decision memo's,
    /// which holds exactly one decision per candidate pair.
    pub fn candidate_count(&self) -> usize {
        self.memo.len()
    }

    /// Every current candidate pair's decision, in no particular order —
    /// for consumers that are pair-order-invariant (the entity layer's
    /// match graph) and so need neither the ordered list nor the relation
    /// clone of [`result`](Self::result). A read of the memo's columns.
    pub fn decisions(&self) -> impl Iterator<Item = PairDecision> + '_ {
        self.memo.decisions()
    }

    /// Total key-prefix renders the warm reduction state has performed —
    /// the reuse certificate: a warm rerun over already-seen values adds
    /// **zero** (property-tested via
    /// [`KeyPool::render_count`](probdedup_model::intern::KeyPool::render_count)).
    pub fn key_render_count(&self) -> u64 {
        self.reduction.render_count()
    }

    /// Distinct values interned into the warm matching pool.
    pub fn interned_value_count(&self) -> usize {
        self.matching.pool().len()
    }

    /// Run the full pipeline over `sources` with warm-state reuse.
    ///
    /// Same prepared corpus as the resident one → preparation-state
    /// rebuilds, reduction and interning are **skipped** (zero key
    /// renders, zero new symbols); matching re-executes every candidate
    /// over the warm sidecars. A different corpus resets the row-indexed
    /// state and re-keys against the warm pools — only never-seen values
    /// render or intern.
    pub fn run(&mut self, sources: &[&XRelation]) -> Result<DedupResult, ModelError> {
        let Some((combined, offsets)) = self.config.combine(sources)? else {
            // "The corpus is now nothing": drop the resident rows (the
            // warm pools stay), exactly as running over an empty relation
            // would, so `result()` agrees with what this run returned.
            self.reset_rows();
            self.relation = None;
            self.published = None;
            self.source_offsets.clear();
            return Ok(DedupResult::empty());
        };
        // A warm rerun reproduces identical decisions, so everything
        // row-indexed stays valid.
        if self.relation.as_ref() != Some(&combined) {
            self.rekey(combined);
        }
        self.source_offsets = offsets;

        // Classify every candidate and refresh the decision memo.
        let pairs: Vec<(usize, usize)> = self.ordered_candidates().pairs().to_vec();
        let decisions = self.classify(&pairs);
        // A warm rerun replaces every decision in its slot and needs no
        // room; a new corpus starts from an empty memo.
        self.memo
            .reserve(decisions.len().saturating_sub(self.memo.len()));
        for d in &decisions {
            self.memo.insert(*d);
        }
        Ok(self.snapshot(decisions))
    }

    /// Make `relation` the resident corpus: drop everything row-indexed,
    /// then key and intern its rows through the warm pools — only values
    /// the pools have never seen render or intern. The decision memo is
    /// left empty for the caller to fill.
    fn rekey(&mut self, relation: XRelation) {
        self.reset_rows();
        self.reduction.ingest_rows(relation.xtuples(), 0);
        self.matching.ingest(relation.xtuples());
        self.published = Some(relation.len());
        self.relation = Some(relation);
    }

    /// Drop everything row-indexed — reduction rows, interned mirrors,
    /// decisions, tier counters — and keep the warm value-keyed pools and
    /// sidecars.
    fn reset_rows(&mut self) {
        self.order.take();
        self.reduction.reset_rows();
        self.matching.reset_rows();
        self.memo.clear();
        self.tiers = [0; 4];
    }

    /// Append one source to the resident corpus and classify **only** the
    /// new candidate pairs (new-vs-resident and new-vs-new).
    ///
    /// Growing the warm reduction state (rank-inserted sorted entries —
    /// integer work, no re-rendering and no re-sorting of resident data)
    /// tells what the batch changed: the pairs that
    /// arrived are classified and join the memo, the pairs a window slid
    /// past leave it. No resident candidate is visited. (The
    /// world-dependent strategies regenerate and diff against the memo
    /// instead — see `WarmReduction`.) Every strategy stays
    /// **split-invariant**: after
    /// the last ingest, [`result`](Self::result) equals what one batch
    /// [`run`](Self::run) over the concatenated sources returns.
    ///
    /// An ingest is four phases run back to back here — stage, grow,
    /// classify, publish. A daemon runs the same phases with its session
    /// lock released between them
    /// ([`SharedSession::ingest`](crate::shared::SharedSession::ingest)).
    pub fn ingest(&mut self, source: &XRelation) -> Result<IncrementalResult, ModelError> {
        let staged = self.stage(source)?;
        Ok(self.apply(staged))
    }

    /// Phase 1 (`&self`): check `source` against the resident schema and
    /// prepare a copy of its rows (preparation is per-tuple). The only
    /// phase that can fail, so a batch staged here cannot fail to apply —
    /// what lets a journal append it before the session changes.
    pub(crate) fn stage(&self, source: &XRelation) -> Result<StagedIngest, ModelError> {
        if let Some(rel) = &self.relation {
            if !rel.schema().compatible_with(source.schema()) {
                return Err(ModelError::IncompatibleSchemas);
            }
        }
        let mut rows = source.xtuples().to_vec();
        self.config.preparation.apply_rows(&mut rows);
        Ok(StagedIngest {
            schema: source.schema().clone(),
            rows,
            starts: vec![self.rows()],
            inserted: Vec::new(),
            departed: Vec::new(),
            order: None,
            decisions: Vec::new(),
            tiers: [0; 4],
            journal_seq: None,
        })
    }

    /// Replay a run of journaled ingest batches as one ingest. Every batch
    /// is staged on its own before anything is written, so a refused
    /// batch leaves the session as it was; then the run is grown,
    /// classified and published once. Each batch keeps its source, so the
    /// state equals ingesting the batches one by one, up to the
    /// cumulative tier counters: the run classifies only the candidate
    /// pairs that survive it.
    pub(crate) fn replay_ingests<'a>(
        &mut self,
        batches: impl IntoIterator<Item = &'a XRelation>,
    ) -> Result<(), ModelError> {
        let mut batches = batches.into_iter();
        let Some(first) = batches.next() else {
            return Ok(());
        };
        let mut run = self.stage(first)?;
        for batch in batches {
            let mut staged = self.stage(batch)?;
            if !run.schema.compatible_with(&staged.schema) {
                return Err(ModelError::IncompatibleSchemas);
            }
            run.starts.push(run.starts[0] + run.rows.len());
            run.rows.append(&mut staged.rows);
        }
        self.apply(run);
        Ok(())
    }

    /// Phases 2–4 back to back.
    pub(crate) fn apply(&mut self, mut staged: StagedIngest) -> IncrementalResult {
        self.grow(&mut staged);
        self.classify_arrived(&mut staged);
        self.publish(staged)
    }

    /// Phase 2 (`&mut self`, short): move the staged rows into the
    /// relation and grow the append-only warm state over them — the
    /// reduction state, the interned mirrors, sidecars and weights.
    /// Nothing a reader is answered changes: the reads see the published
    /// rows only, and the grown state is reached from the new rows alone.
    pub(crate) fn grow(&mut self, staged: &mut StagedIngest) {
        let start = staged.starts[0];
        debug_assert_eq!(start, self.rows(), "one batch in flight at a time");
        let rel = self
            .relation
            .get_or_insert_with(|| XRelation::new(staged.schema.clone()));
        for t in std::mem::take(&mut staged.rows) {
            rel.push(t);
        }
        let new_rows = &rel.xtuples()[start..];
        staged.inserted = self.reduction.ingest_rows(new_rows, start);
        self.matching.ingest(new_rows);
    }

    /// Phase 3 (`&self`, the long one): compute what the batch changes in
    /// the candidate set and classify the pairs that arrived, over the
    /// published rows plus the grown ones. The strategies that emit
    /// deltas read theirs off what grow inserted; the regenerating ones
    /// regenerate over every row and diff against the memo, which holds
    /// exactly the published candidates.
    pub(crate) fn classify_arrived(&self, staged: &mut StagedIngest) {
        let tuples = self
            .relation
            .as_ref()
            .expect("grow created the relation")
            .xtuples();
        let start = staged.starts[0];
        let arrived = match self.reduction.delta(&staged.inserted, start, tuples.len()) {
            Some(delta) => {
                staged.departed = delta.departed;
                delta.arrived
            }
            None => {
                let candidates = self.reduction.current(tuples);
                let arrived: Vec<(usize, usize)> = candidates
                    .pairs()
                    .iter()
                    .copied()
                    .filter(|&p| !self.memo.contains(p))
                    .collect();
                // Only a memo larger than the surviving candidates holds
                // pairs that departed; otherwise it is not scanned.
                if self.memo.len() + arrived.len() > candidates.len() {
                    staged.departed = self
                        .memo
                        .pairs()
                        .filter(|&(i, j)| !candidates.contains(i, j))
                        .collect();
                }
                staged.order = Some(candidates);
                arrived
            }
        };
        (staged.decisions, staged.tiers) =
            self.matching
                .classify(tuples, &arrived, self.config.threads);
    }

    /// Phase 4 (`&mut self`, short): publish the batch — count its rows
    /// as published, append its source offsets, drop what departed from
    /// the memo and add what arrived, install the regenerated candidate
    /// order, and add the tier counts and the journal sequence. Every read
    /// after this sees the batch; every read before it saw none of it.
    pub(crate) fn publish(&mut self, staged: StagedIngest) -> IncrementalResult {
        let StagedIngest {
            starts,
            departed,
            order,
            decisions,
            tiers,
            journal_seq,
            ..
        } = staged;
        let start = starts[0];
        let source = SourceId(self.source_offsets.len() as u32);
        self.source_offsets.extend(starts);
        let rows = self.relation.as_ref().map_or(0, XRelation::len);
        self.published = Some(rows);
        for &pair in &departed {
            self.memo.remove(pair);
        }
        self.memo.reserve(decisions.len());
        for d in &decisions {
            self.memo.insert(*d);
        }
        for (acc, t) in self.tiers.iter_mut().zip(tiers) {
            *acc += t;
        }
        // New rows and new decisions: the ordered candidate list is the
        // regenerated one, or stale.
        self.order = order.map_or_else(OnceLock::new, OnceLock::from);
        if let Some(seq) = journal_seq {
            self.journal_seq = seq;
        }
        IncrementalResult {
            source,
            new_rows: start..rows,
            new_decisions: decisions,
            candidates: self.memo.len(),
        }
    }

    /// The merged resident view: every current candidate pair with its
    /// decision (in candidate order), the duplicate clusters, and the
    /// session-cumulative matching stats. Equal to what a one-shot batch
    /// run over the same corpus returns (modulo cumulative counters).
    pub fn result(&self) -> DedupResult {
        let decisions: Vec<PairDecision> = self
            .ordered_candidates()
            .pairs()
            .iter()
            .map(|&p| {
                self.memo
                    .get(p)
                    .expect("every candidate was classified when it entered the set")
            })
            .collect();
        self.snapshot(decisions)
    }

    /// The merged resident view without its decisions: row, candidate,
    /// match and possible counts and the duplicate clusters, equal to
    /// [`result().partition()`](DedupResult::partition). Computed from the
    /// decision memo alone — it holds exactly one decision per current
    /// candidate, and the closure does not depend on pair order — so it
    /// clones no relation, regenerates no ordered candidate list and looks
    /// nothing up: it counts the memo's class column and closes the Match
    /// slots.
    pub fn partition(&self) -> Partition {
        self.memo.partition(self.rows())
    }

    /// The candidate set in one-shot order: regenerated from the warm
    /// reduction state on the first call after a write, shared by every
    /// read until the next one.
    fn ordered_candidates(&self) -> &CandidatePairs {
        self.order.get_or_init(|| match self.published() {
            Some((_, rows)) => self.reduction.current(rows),
            None => CandidatePairs::new(0),
        })
    }

    /// Session-cumulative matching counters (interned values,
    /// bounded-tier disposals across every classification the session has
    /// performed). The tier counters count work, so they depend on how
    /// the corpus arrived (ARCHITECTURE.md, "The engine").
    pub fn stats(&self) -> MatchingStats {
        self.matching.stats(self.tiers)
    }

    /// Classify one resident pair through **`&self`** — the session's
    /// read path, built for concurrent callers sharing one warm session
    /// (the serving front door multiplexes readers over it while ingest
    /// takes the write path).
    ///
    /// Answers from the decision memo when the pair is a current
    /// candidate; otherwise the pair is classified on the spot through
    /// the warm state, writing nothing: the decision memo and the
    /// bounded-tier counters belong to the write path. Row order is
    /// irrelevant; `None` for out-of-range rows or `i == j`.
    pub fn classify_pair(&self, i: usize, j: usize) -> Option<PairDecision> {
        let rows = self.rows();
        if i == j || i >= rows || j >= rows {
            return None;
        }
        let pair = (i.min(j), i.max(j));
        if let Some(d) = self.memo.get(pair) {
            return Some(d);
        }
        let (mut decisions, _tiers) = self.classify_shared(&[pair]);
        decisions.pop()
    }

    /// Classify `pairs` through the engine, accumulating bounded-tier
    /// counters (the write path; [`classify_shared`](Self::classify_shared)
    /// is the `&self` core).
    fn classify(&mut self, pairs: &[(usize, usize)]) -> Vec<PairDecision> {
        let (decisions, tiers) = self.classify_shared(pairs);
        for (acc, t) in self.tiers.iter_mut().zip(tiers) {
            *acc += t;
        }
        decisions
    }

    /// The matching stage over the warm state through `&self`: safe for
    /// concurrent readers (classifying writes nothing shared). Returns
    /// the decisions plus this call's bounded-tier
    /// counts — callers on the write path accumulate them, read paths
    /// drop them.
    fn classify_shared(&self, pairs: &[(usize, usize)]) -> (Vec<PairDecision>, [u64; 4]) {
        match self.published() {
            Some((_, rows)) => self.matching.classify(rows, pairs, self.config.threads),
            None => (Vec::new(), [0; 4]),
        }
    }

    /// Assemble a [`DedupResult`] snapshot from `decisions` (aligned with
    /// the current candidate order).
    fn snapshot(&self, decisions: Vec<PairDecision>) -> DedupResult {
        let Some((rel, rows)) = self.published() else {
            return DedupResult::empty();
        };
        let mut relation = XRelation::new(rel.schema().clone());
        for t in rows {
            relation.push(t.clone());
        }
        let clusters = match_clusters(relation.len(), &decisions);
        DedupResult {
            relation,
            source_offsets: self.source_offsets.clone(),
            candidates: decisions.len(),
            decisions,
            clusters,
            stats: self.stats(),
        }
    }

    // -- Crash-safe persistence (see `crate::snapshot` for the layout) ----

    /// Serialize the session's state to the versioned snapshot format
    /// (see the [`crate::snapshot`] module docs for the section layout).
    ///
    /// The bytes hold what cannot be recomputed cheaply — the
    /// configuration fingerprint, the prepared resident relation, the
    /// source offsets, the decision memo with the bounded-tier counters,
    /// and the journal sequence number. The interner pools are caches:
    /// their sections are written empty, and [`open`](Self::open)
    /// rebuilds them by re-keying the relation.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut snap = SnapshotWriter::new();

        let mut w = SectionWriter::new();
        w.put_u32(self.config.comparators.arity() as u32);
        w.put_str(self.config.reduction.name());
        // The `cached` byte of format v1: constant 1 since the interned
        // engine became the only one (0 marks a pre-engine file).
        w.put_u8(1);
        w.put_u8(u8::from(self.config.decider.is_classify_only()));
        snap.section(TAG_CONFIG, w);

        // The published relation, as `write_xrelation` encodes one.
        let mut w = SectionWriter::new();
        match self.published() {
            Some((rel, rows)) => {
                w.put_u8(1);
                write_schema(&mut w, rel.schema());
                w.put_len(rows.len());
                for t in rows {
                    write_xtuple(&mut w, t);
                }
            }
            None => w.put_u8(0),
        }
        snap.section(TAG_RELATION, w);

        let mut w = SectionWriter::new();
        w.put_len(self.source_offsets.len());
        for &off in &self.source_offsets {
            w.put_u64(off as u64);
        }
        snap.section(TAG_OFFSETS, w);

        // Sections 4–6 of format v1 held the interner pools and the
        // retired similarity memo. They are written as older writers wrote
        // a fresh session's, so older readers open the file and re-key on
        // open: section 4 a present, empty value pool; section 5 zero
        // attributes; section 6, for the strategies that keep a key table,
        // an empty value pool, an empty key pool, no prefix memo, no concat
        // memo and zero renders.
        let mut w = SectionWriter::new();
        w.put_u8(1);
        w.put_len(0);
        snap.section(TAG_MATCH_POOL, w);

        let mut w = SectionWriter::new();
        w.put_u32(0);
        snap.section(TAG_CACHES, w);

        let mut w = SectionWriter::new();
        let keyed = !matches!(self.config.reduction, ReductionStrategy::Full);
        w.put_u8(u8::from(keyed));
        if keyed {
            for _ in 0..5 {
                w.put_u64(0);
            }
        }
        snap.section(TAG_REDUCTION, w);

        let mut w = SectionWriter::new();
        self.memo.write_section(&mut w);
        for t in self.tiers {
            w.put_u64(t);
        }
        snap.section(TAG_DECIDED, w);

        let mut w = SectionWriter::new();
        w.put_u64(self.journal_seq);
        snap.section(TAG_JOURNAL, w);

        snap.finish()
    }

    /// Durably persist the session to `path` via the atomic write-temp →
    /// fsync → rename protocol ([`crate::snapshot::atomic_write`]): a crash
    /// at any point leaves either the previous snapshot or the new one at
    /// `path`, never a torn file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        atomic_write(path.as_ref(), &self.to_snapshot_bytes())
    }

    /// Re-open a snapshot written by [`save`](Self::save) as a warm session
    /// of `pipeline`.
    ///
    /// The pipeline's configuration must agree with the one the snapshot
    /// was written under (schema arity, reduction strategy, engine and
    /// bounded-mode flags) — a disagreement is reported as
    /// [`SnapshotError::ConfigMismatch`]. So is a decision memo that misses
    /// some of the candidates this pipeline regenerates: the file does not
    /// record key, window, world selection or conflict resolution, and
    /// another one of them is the only way checksum-valid sections get
    /// there. Every corruption mode
    /// (truncation, bit flips, version or checksum disagreement,
    /// inconsistent cross-section state) is a typed [`SnapshotError`]; the
    /// session is never partially constructed. Opening re-keys and
    /// re-interns the resident relation into fresh pools, exactly as
    /// [`run`](Self::run) keys a new corpus, so the reopened pools are
    /// those of a fresh session over the same rows; the decision memo
    /// answers [`result`](Self::result) without classifying, and an
    /// identical-corpus [`run`](Self::run) renders **zero** keys —
    /// property-tested in `tests/snapshot.rs`.
    pub fn open(path: impl AsRef<Path>, pipeline: &DedupPipeline) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&read_file(path.as_ref())?, pipeline)
    }

    /// [`open`](Self::open) over in-memory bytes (the fault-injection
    /// harness corrupts buffers without touching disk).
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        pipeline: &DedupPipeline,
    ) -> Result<Self, SnapshotError> {
        let mut session = pipeline.session();
        session.restore_from_bytes(bytes)?;
        Ok(session)
    }

    /// Decode, validate and adopt a snapshot into this fresh session. All
    /// parsing happens into locals first; the re-key and the memo check
    /// then run on `self`, which the caller drops on any error.
    fn restore_from_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut reader = SnapshotReader::open(bytes)?;

        // Section 1: configuration fingerprint.
        let mut r = reader.section(TAG_CONFIG, "config section")?;
        let arity = r.take_u32()? as usize;
        let strategy_name = r.take_str()?.to_string();
        let cached = read_bool(&mut r, "config cache flag")?;
        let bounded = read_bool(&mut r, "config bounded flag")?;
        r.finish()?;
        let own_arity = self.config.comparators.arity();
        if arity != own_arity {
            return Err(SnapshotError::ConfigMismatch {
                detail: format!("snapshot arity {arity}, pipeline arity {own_arity}"),
            });
        }
        if strategy_name != self.config.reduction.name() {
            return Err(SnapshotError::ConfigMismatch {
                detail: format!(
                    "snapshot reduction '{strategy_name}', pipeline reduction '{}'",
                    self.config.reduction.name()
                ),
            });
        }
        if !cached {
            return Err(SnapshotError::ConfigMismatch {
                detail: "snapshot was written by the removed plain (uncached) engine and \
                         predates the single interned engine; re-run the corpus to rebuild it"
                    .to_string(),
            });
        }
        let own_bounded = self.config.decider.is_classify_only();
        if bounded != own_bounded {
            return Err(SnapshotError::ConfigMismatch {
                detail: format!(
                    "snapshot bounded mode {}, pipeline {}",
                    on_off(bounded),
                    on_off(own_bounded)
                ),
            });
        }

        // Section 2: the prepared resident relation.
        let mut r = reader.section(TAG_RELATION, "relation section")?;
        let relation = if read_bool(&mut r, "relation presence flag")? {
            Some(read_xrelation(&mut r)?)
        } else {
            None
        };
        r.finish()?;
        if let Some(rel) = &relation {
            if rel.schema().arity() != own_arity {
                return Err(SnapshotError::ConfigMismatch {
                    detail: format!(
                        "snapshot relation arity {}, pipeline arity {own_arity}",
                        rel.schema().arity()
                    ),
                });
            }
        }
        let rows = relation.as_ref().map_or(0, XRelation::len);

        // Section 3: source offsets.
        let mut r = reader.section(TAG_OFFSETS, "offsets section")?;
        let n = r.take_len(8)?;
        let mut offsets = Vec::with_capacity(n);
        for _ in 0..n {
            let off = r.take_u64()?;
            let off = usize::try_from(off).ok().filter(|&o| o <= rows).ok_or(
                SnapshotError::Malformed {
                    context: "source offset out of range",
                },
            )?;
            if offsets.last().is_some_and(|&prev| off < prev) {
                return Err(SnapshotError::Malformed {
                    context: "source offsets not monotone",
                });
            }
            offsets.push(off);
        }
        r.finish()?;
        let offsets_coherent = match relation {
            Some(_) => offsets.first() == Some(&0),
            None => offsets.is_empty(),
        };
        if !offsets_coherent {
            return Err(SnapshotError::Malformed {
                context: "source offsets disagree with relation",
            });
        }

        // Sections 4–6 (legacy, see `crate::snapshot`): the interner pools
        // and the retired similarity memo. Frame-checked like every
        // section, payloads ignored — open rebuilds the pools.
        reader.section(TAG_MATCH_POOL, "match pool section")?;
        reader.section(TAG_CACHES, "caches section")?;
        reader.section(TAG_REDUCTION, "reduction section")?;

        // Section 7: the decision memo and tier counters.
        let mut r = reader.section(TAG_DECIDED, "decisions section")?;
        let mut memo = DecisionMemo::read_section(&mut r, rows)?;
        let mut tiers = [0u64; 4];
        for t in &mut tiers {
            *t = r.take_u64()?;
        }
        r.finish()?;

        // Section 8 (optional, trailing): the highest journal sequence
        // number this snapshot covers. Pre-WAL files end at section 7 and
        // read as 0 — the reason the format version did not change.
        let journal_seq = if reader.has_more() {
            let mut r = reader.section(TAG_JOURNAL, "journal section")?;
            let seq = r.take_u64()?;
            r.finish()?;
            seq
        } else {
            0
        };

        // Section 9 (legacy, see `crate::snapshot`): frame-checked like
        // every section, payload ignored.
        if reader.has_more() {
            reader.section(TAG_ENTITIES, "entities section")?;
        }
        reader.finish()?;

        // Rebuild the pools and every row-indexed structure by re-keying
        // the resident relation, as `run` does for a new corpus.
        if let Some(rel) = relation {
            self.rekey(rel);
            let candidates = self.ordered_candidates();
            // The memo must cover the regenerated candidate set, or
            // `result()` on the reopened session would have to classify.
            // A snapshot always decided its own candidates and every
            // section passed its checksum, so a missing pair means the
            // pipeline regenerates other candidates than the writer did.
            if candidates.pairs().iter().any(|&pair| !memo.contains(pair)) {
                return Err(SnapshotError::ConfigMismatch {
                    detail: "the decision memo does not cover the candidates this \
                             pipeline generates; the snapshot was written under another \
                             key, window, world selection or conflict resolution"
                        .to_string(),
                });
            }
            // Older files also kept the decisions of pairs that had left
            // the candidate set; those are dropped, never rejected. A
            // narrower window (or any configuration whose candidates are a
            // subset of the writer's) lands here too and prunes silently:
            // CONFIG records neither key nor window, so nothing can tell
            // the two apart until it does.
            if memo.len() > candidates.len() {
                let departed: Vec<(usize, usize)> = memo
                    .pairs()
                    .filter(|&(i, j)| !candidates.contains(i, j))
                    .collect();
                for pair in departed {
                    memo.remove(pair);
                }
            }
        }

        self.source_offsets = offsets;
        self.memo = memo;
        self.tiers = tiers;
        self.journal_seq = journal_seq;
        Ok(())
    }
}

/// Read a strict boolean byte (anything but 0/1 is corruption, not data).
fn read_bool(
    r: &mut probdedup_model::snapshot::SectionReader<'_>,
    context: &'static str,
) -> Result<bool, SnapshotError> {
    match r.take_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(SnapshotError::Malformed { context }),
    }
}

/// `"on"` / `"off"` for config-mismatch messages.
fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DedupPipeline, ReductionStrategy};
    use probdedup_decision::combine::WeightedSum;
    use probdedup_decision::derive_sim::ExpectedSimilarity;
    use probdedup_decision::threshold::Thresholds;
    use probdedup_decision::xmodel::{SimilarityBasedModel, XTupleDecisionModel};
    use probdedup_matching::vector::AttributeComparators;
    use probdedup_model::schema::Schema;
    use probdedup_model::util::FxHashMap;
    use probdedup_model::xtuple::XTuple;
    use probdedup_reduction::KeySpec;
    use probdedup_textsim::NormalizedHamming;
    use std::sync::Arc;

    use crate::test_support::assert_exact_agrees_with_reference;

    fn schema() -> Schema {
        Schema::new(["name", "job"])
    }

    fn model() -> Arc<dyn XTupleDecisionModel> {
        Arc::new(SimilarityBasedModel::new(
            Arc::new(WeightedSum::new([0.8, 0.2]).unwrap()),
            Arc::new(ExpectedSimilarity),
            Thresholds::new(0.6, 0.8).unwrap(),
        ))
    }

    fn rel(rows: &[(&str, &str)]) -> XRelation {
        let s = schema();
        let mut r = XRelation::new(s.clone());
        for (n, j) in rows {
            r.push(XTuple::builder(&s).alt(0.9, [*n, *j]).build().unwrap());
        }
        r
    }

    fn builder(reduction: ReductionStrategy) -> DedupPipeline {
        DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .model(model())
            .reduction(reduction)
            .build()
    }

    fn corpus() -> Vec<XRelation> {
        vec![
            rel(&[("John", "pilot"), ("Tim", "mechanic")]),
            rel(&[("John", "pilot"), ("Tom", "mechanic")]),
            rel(&[("Sean", "pilot"), ("Tim", "mechanic")]),
        ]
    }

    fn strategies() -> Vec<ReductionStrategy> {
        crate::test_support::all_strategies(&KeySpec::paper_example(0, 1))
    }

    #[test]
    fn ingest_in_batches_equals_one_shot_run() {
        let sources = corpus();
        let refs: Vec<&XRelation> = sources.iter().collect();
        for strategy in strategies() {
            let name = strategy.name();
            let one_shot = builder(strategy.clone()).run(&refs).unwrap();
            let mut session = builder(strategy).session();
            for src in &sources {
                session.ingest(src).unwrap();
            }
            let merged = session.result();
            assert_eq!(one_shot.decisions.len(), merged.decisions.len(), "{name}");
            let by_pair: FxHashMap<(usize, usize), PairDecision> =
                merged.decisions.iter().map(|d| (d.pair, *d)).collect();
            for d in &one_shot.decisions {
                // Exact engine: the streamed decision is the one-shot
                // decision, bit for bit.
                assert_eq!(by_pair.get(&d.pair), Some(d), "{name}");
            }
            assert_eq!(one_shot.clusters, merged.clusters, "{name}");
            assert_eq!(one_shot.source_offsets, merged.source_offsets);
            // And both agree with the paper-literal reference.
            let cmps = AttributeComparators::uniform(&schema(), NormalizedHamming::new());
            assert_exact_agrees_with_reference(&merged, &cmps, model().as_ref(), name);
        }
    }

    #[test]
    fn warm_rerun_skips_reduction_and_interning() {
        let sources = corpus();
        let refs: Vec<&XRelation> = sources.iter().collect();
        let spec = KeySpec::paper_example(0, 1);
        let mut session =
            builder(ReductionStrategy::SortingAlternatives { spec, window: 3 }).session();
        let first = session.run(&refs).unwrap();
        let renders = session.key_render_count();
        let interned = session.interned_value_count();
        assert!(renders > 0 && interned > 0);
        let again = session.run(&refs).unwrap();
        assert_eq!(session.key_render_count(), renders, "warm rerun rendered");
        assert_eq!(session.interned_value_count(), interned);
        assert_eq!(first.decisions, again.decisions);
        assert_eq!(first.clusters, again.clusters);
    }

    #[test]
    fn run_with_changed_corpus_resets_rows_but_keeps_pools() {
        let sources = corpus();
        let spec = KeySpec::paper_example(0, 1);
        let mut session = builder(ReductionStrategy::BlockingAlternatives { spec }).session();
        session.run(&[&sources[0], &sources[1]]).unwrap();
        let renders = session.key_render_count();
        // A different corpus drawn from the same value domain: re-keying
        // renders nothing new.
        let shrunk = session.run(&[&sources[0]]).unwrap();
        assert_eq!(session.key_render_count(), renders);
        assert_eq!(shrunk.relation.len(), 2);
        // And the one-shot answer over the changed corpus still holds.
        let fresh = builder(ReductionStrategy::BlockingAlternatives {
            spec: KeySpec::paper_example(0, 1),
        })
        .run(&[&sources[0]])
        .unwrap();
        assert_eq!(fresh.decisions, shrunk.decisions);
    }

    #[test]
    fn ingest_reports_new_rows_and_decisions() {
        let sources = corpus();
        let mut session = builder(ReductionStrategy::Full).session();
        let r1 = session.ingest(&sources[0]).unwrap();
        assert_eq!(r1.source, SourceId(0));
        assert_eq!(r1.new_rows, 0..2);
        assert_eq!(r1.new_decisions.len(), 1); // the within-batch pair
        let r2 = session.ingest(&sources[1]).unwrap();
        assert_eq!(r2.source, SourceId(1));
        assert_eq!(r2.new_rows, 2..4);
        // 4 rows: 6 total pairs, 1 already decided.
        assert_eq!(r2.new_decisions.len(), 5);
        assert_eq!(r2.candidates, 6);
        assert_eq!(session.rows(), 4);
        assert_eq!(session.source_count(), 2);
        assert!(r2.summary().contains("+2 rows"));
        // Every decision the report lists is resident.
        let merged = session.result();
        assert_eq!(merged.candidates, 6);
        assert!(merged.summary().contains("pairs compared"));
        assert_eq!(session.partition(), merged.partition());
    }

    #[test]
    fn ingest_rejects_incompatible_schema() {
        let mut session = builder(ReductionStrategy::Full).session();
        session.ingest(&corpus()[0]).unwrap();
        let other = XRelation::new(Schema::new(["solo"]));
        assert!(matches!(
            session.ingest(&other),
            Err(ModelError::IncompatibleSchemas)
        ));
    }

    #[test]
    fn empty_session_views() {
        let session = builder(ReductionStrategy::Full).session();
        assert!(session.is_empty());
        assert_eq!(session.candidate_count(), 0);
        let snap = session.result();
        assert_eq!(snap.candidates, 0);
        assert!(snap.decisions.is_empty());
        assert_eq!(session.partition(), snap.partition());
    }

    /// A per-test directory under the temp directory, removed with
    /// everything in it when dropped — a failing assertion included.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "probdedup-session-snap-{tag}-{}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn snapshot_roundtrip_restores_partition_and_memos() {
        let sources = corpus();
        let refs: Vec<&XRelation> = sources.iter().collect();
        for strategy in strategies() {
            let pipeline = builder(strategy.clone());
            let mut session = pipeline.session();
            let before = session.run(&refs).unwrap();
            let renders = session.key_render_count();
            let dir = TempDir::new(strategy.name());
            let path = dir.0.join("session.snap");
            session.save(&path).unwrap();

            let mut reopened = DedupSession::open(&path, &pipeline).unwrap();
            assert_eq!(reopened.rows(), session.rows(), "{}", strategy.name());
            assert_eq!(reopened.candidate_count(), session.candidate_count());
            // Open re-keys the corpus into fresh pools: the renders of the
            // saved session's one run, no more.
            assert_eq!(
                reopened.key_render_count(),
                renders,
                "open rendered unlike a fresh run ({})",
                strategy.name()
            );
            // The resident view needs no classification at all.
            let restored = reopened.result();
            assert_eq!(before.decisions, restored.decisions, "{}", strategy.name());
            assert_eq!(before.clusters, restored.clusters);
            assert_eq!(before.source_offsets, restored.source_offsets);
            // An identical-corpus rerun stays fully warm: zero key renders.
            let again = reopened.run(&refs).unwrap();
            assert_eq!(reopened.key_render_count(), renders, "{}", strategy.name());
            assert_eq!(before.decisions, again.decisions);
        }
    }

    #[test]
    fn open_rejects_mismatched_configuration() {
        let sources = corpus();
        let refs: Vec<&XRelation> = sources.iter().collect();
        let spec = KeySpec::paper_example(0, 1);
        let pipeline = builder(ReductionStrategy::SortingAlternatives {
            spec: spec.clone(),
            window: 3,
        });
        let mut session = pipeline.session();
        session.run(&refs).unwrap();
        let bytes = session.to_snapshot_bytes();

        // Different reduction strategy.
        let other = builder(ReductionStrategy::BlockingAlternatives { spec });
        let err = DedupSession::from_snapshot_bytes(&bytes, &other)
            .err()
            .expect("mismatched strategy must be rejected");
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
        // Classify-only vs. the snapshot's exact model.
        let classify_only = DedupPipeline::builder()
            .comparators(AttributeComparators::uniform(
                &schema(),
                NormalizedHamming::new(),
            ))
            .classify_only(
                WeightedSum::new([0.8, 0.2]).unwrap(),
                Thresholds::new(0.6, 0.8).unwrap(),
            )
            .reduction(ReductionStrategy::SortingAlternatives {
                spec: KeySpec::paper_example(0, 1),
                window: 3,
            })
            .build();
        let err = DedupSession::from_snapshot_bytes(&bytes, &classify_only)
            .err()
            .expect("bounded-flag mismatch must be rejected");
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn empty_session_snapshot_roundtrips() {
        let pipeline = builder(ReductionStrategy::Full);
        let session = pipeline.session();
        let bytes = session.to_snapshot_bytes();
        let reopened = DedupSession::from_snapshot_bytes(&bytes, &pipeline).unwrap();
        assert!(reopened.is_empty());
        assert_eq!(reopened.candidate_count(), 0);
    }

    #[test]
    fn session_is_send_and_sync() {
        // The serving front door shares one warm session across reader
        // threads (RwLock<DedupSession>); this is the compile-time
        // certificate that everything inside is thread-safe.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DedupSession>();
    }

    #[test]
    fn classify_pair_reads_match_write_path() {
        let sources = corpus();
        let refs: Vec<&XRelation> = sources.iter().collect();
        let mut session = builder(ReductionStrategy::Full).session();
        let result = session.run(&refs).unwrap();
        let session = &session; // read path only from here on
        for d in &result.decisions {
            let q = session.classify_pair(d.pair.0, d.pair.1).unwrap();
            assert_eq!(q, *d);
            // Row order is irrelevant.
            let swapped = session.classify_pair(d.pair.1, d.pair.0).unwrap();
            assert_eq!(swapped.pair, d.pair);
        }
        assert!(session.classify_pair(0, 0).is_none());
        assert!(session.classify_pair(0, session.rows()).is_none());
    }

    #[test]
    fn classify_pair_computes_undecided_pairs_readonly() {
        // A windowed strategy leaves some pairs out of the candidate set;
        // the read path classifies them on the fly without mutating the
        // memo, and agrees with what full comparison decides.
        let sources = corpus();
        let refs: Vec<&XRelation> = sources.iter().collect();
        let spec = KeySpec::paper_example(0, 1);
        let mut session =
            builder(ReductionStrategy::SortingAlternatives { spec, window: 2 }).session();
        session.run(&refs).unwrap();
        let full = builder(ReductionStrategy::Full).run(&refs).unwrap();
        let decided_before = session.candidate_count();
        for d in &full.decisions {
            let q = session.classify_pair(d.pair.0, d.pair.1).unwrap();
            assert_eq!(q.class, d.class, "pair {:?}", d.pair);
        }
        assert_eq!(
            session.candidate_count(),
            decided_before,
            "read path must not grow the decision memo"
        );
    }

    #[test]
    fn memo_sheds_decisions_of_pairs_that_left_the_candidates() {
        let sources = corpus();
        let spec = KeySpec::paper_example(0, 1);
        let pipeline = builder(ReductionStrategy::SortingAlternatives { spec, window: 2 });
        let mut session = pipeline.session();
        let mut classified = 0;
        for src in &sources {
            classified += session.ingest(src).unwrap().new_decisions.len();
        }
        // Later batches slid windows past earlier candidates: more pairs
        // were classified than are resident, and only the resident ones
        // are still memoized — without changing the merged view.
        assert!(classified > session.candidate_count());
        let refs: Vec<&XRelation> = sources.iter().collect();
        let one_shot = pipeline.run(&refs).unwrap();
        let merged = session.result();
        assert_eq!(one_shot.decisions, merged.decisions);
        assert_eq!(one_shot.clusters, merged.clusters);
        // What was shed is not written either.
        let reopened =
            DedupSession::from_snapshot_bytes(&session.to_snapshot_bytes(), &pipeline).unwrap();
        assert_eq!(reopened.candidate_count(), session.candidate_count());
    }

    #[test]
    fn source_ids_do_not_wrap_at_65536_batches() {
        let mut session = builder(ReductionStrategy::Full).session();
        let empty = XRelation::new(schema());
        for _ in 0..65_537 {
            session.ingest(&empty).unwrap();
        }
        let step = session.ingest(&rel(&[("John", "pilot")])).unwrap();
        assert_eq!(step.source, SourceId(65_537));
        assert_eq!(step.new_rows, 0..1);
        let handle = session.result().handle(0);
        assert_eq!((handle.source, handle.row), (SourceId(65_537), 0));
    }

    /// Everything a reader can be answered, minus the cumulative counters
    /// of `result().stats`: the merged view, the memo-backed partition and
    /// counts, and `classify_pair` over every resident pair.
    #[derive(Debug, PartialEq)]
    struct ReadView {
        relation: XRelation,
        decisions: Vec<PairDecision>,
        clusters: Vec<Vec<usize>>,
        source_offsets: Vec<usize>,
        partition: Partition,
        candidates: usize,
        journal_seq: u64,
        queried: Vec<PairDecision>,
    }

    impl ReadView {
        fn of(session: &DedupSession) -> Self {
            let result = session.result();
            let rows = session.rows();
            let queried = (0..rows)
                .flat_map(|i| (i + 1..rows).map(move |j| (i, j)))
                .map(|(i, j)| session.classify_pair(i, j).expect("a resident pair"))
                .collect();
            Self {
                relation: result.relation,
                decisions: result.decisions,
                clusters: result.clusters,
                source_offsets: result.source_offsets,
                partition: session.partition(),
                candidates: session.candidate_count(),
                journal_seq: session.journal_seq(),
                queried,
            }
        }
    }

    /// The phases of an ingest, run one by one: once the batch is grown
    /// and once it is classified, every read still answers what the
    /// session answered before the batch — under all seven strategies and
    /// both engine configurations, the first batch into an empty session
    /// included, with the ordered candidates regenerated over a relation
    /// and a warm state grown past the published rows. Classify leaves
    /// publish nothing to classify: the staged batch already holds every
    /// decision the ingest reports. Once published the session equals a
    /// twin that ran plain `ingest`.
    #[test]
    fn a_mid_ingest_read_is_a_pre_ingest_read() {
        // The corpus, and the corpus after an empty first batch.
        let feeds = [corpus(), [rel(&[])].into_iter().chain(corpus()).collect()];
        for (strategy, sources) in strategies()
            .into_iter()
            .flat_map(|s| [(s.clone(), &feeds[0]), (s, &feeds[1])])
        {
            for exact in [true, false] {
                let label = format!(
                    "{} {}",
                    strategy.name(),
                    ["bounded", "exact"][exact as usize]
                );
                let pipeline = if exact {
                    builder(strategy.clone())
                } else {
                    DedupPipeline::builder()
                        .comparators(AttributeComparators::uniform(
                            &schema(),
                            NormalizedHamming::new(),
                        ))
                        .classify_only(
                            WeightedSum::new([0.8, 0.2]).unwrap(),
                            Thresholds::new(0.6, 0.8).unwrap(),
                        )
                        .reduction(strategy.clone())
                        .build()
                };
                let (mut phased, mut plain) = (pipeline.session(), pipeline.session());
                for (n, src) in sources.iter().enumerate() {
                    let label = format!("{label}, batch {n} of {}", sources.len());
                    let seq = n as u64 + 1;
                    let before = ReadView::of(&plain);
                    let mut staged = phased.stage(src).unwrap();
                    staged.journaled_as(seq);
                    phased.grow(&mut staged);
                    assert_eq!(
                        phased.relation.as_ref().map(XRelation::len),
                        Some(staged.starts[0] + src.len()),
                        "{label}: grow appends the rows"
                    );
                    // The last read cached the ordered candidates; the
                    // first read of a generation regenerates them, here
                    // over the grown state.
                    phased.order.take();
                    assert_eq!(ReadView::of(&phased), before, "{label}: grown");
                    phased.classify_arrived(&mut staged);
                    phased.order.take();
                    assert_eq!(ReadView::of(&phased), before, "{label}: classified");
                    let classified = staged.decisions.clone();
                    let step = phased.publish(staged);
                    assert_eq!(
                        classified, step.new_decisions,
                        "{label}: publish classified"
                    );

                    let want = plain.ingest(src).unwrap();
                    plain.set_journal_seq(seq);
                    assert_eq!(step.source, want.source, "{label}");
                    assert_eq!(step.new_rows, want.new_rows, "{label}");
                    assert_eq!(step.candidates, want.candidates, "{label}");
                    assert_eq!(step.new_decisions, want.new_decisions, "{label}");
                    assert_eq!(
                        phased.to_snapshot_bytes(),
                        plain.to_snapshot_bytes(),
                        "{label}: published"
                    );
                    assert_eq!(
                        ReadView::of(&phased),
                        ReadView::of(&plain),
                        "{label}: published"
                    );
                }
            }
        }
    }

    #[test]
    fn run_over_no_sources_resets_resident_rows() {
        let sources = corpus();
        let mut session = builder(ReductionStrategy::Full).session();
        session.ingest(&sources[0]).unwrap();
        assert!(!session.is_empty());
        // Running over zero sources empties the corpus — the return value
        // and the resident view must agree on that.
        let empty = session.run(&[]).unwrap();
        assert_eq!(empty.candidates, 0);
        assert!(session.is_empty());
        assert_eq!(session.candidate_count(), 0);
        assert_eq!(session.source_count(), 0);
        assert!(session.result().decisions.is_empty());
        // The warm pools survive, and the session remains usable.
        let again = session.ingest(&sources[0]).unwrap();
        assert_eq!(again.new_rows, 0..2);
    }
}
