//! A CDCL SAT solver with native cardinality / weighted-sum constraints.
//!
//! This is the `clasp` analogue of the reproduction: the search algorithm follows the
//! DPLL lineage with the modern extensions the paper names (Section IV-E) — watched
//! literals, conflict-driven clause learning with 1-UIP learning, activity-based (VSIDS)
//! decision heuristics, phase saving, Luby restarts, and activity-driven deletion of
//! learned clauses. In addition to clauses, the solver propagates *linear constraints*
//! (weighted sums of literals with lower/upper bounds, optionally guarded by a condition
//! literal), which implement choice-rule cardinality bounds and the objective bounds
//! used during optimization.
//!
//! # Propagation invariants (the hot path)
//!
//! Nothing on the propagate/assign/unassign path clones clause bodies or occurrence
//! lists:
//!
//! * Conflicts are reported as `Conflict` — a clause *index* (resolved lazily during
//!   analysis) or the literal list a linear constraint materialises anyway.
//! * Every linear constraint maintains two counters, `sum_true` (weight of counted
//!   literals currently true) and `sum_false` (weight currently false). They are
//!   updated **incrementally**: each variable's occurrence list (`LinOcc`) stores the
//!   constraint index *and the slot* of the counted literal, so `enqueue`/`unassign`
//!   adjust exactly the affected counters in O(occurrences) — no per-assignment rescan
//!   of the constraint's literal list. Guard (condition) occurrences use a sentinel
//!   slot and never touch the counters.
//! * The invariant maintained is: after `propagate` returns without conflict, for every
//!   linear with an active guard, `sum_true ≤ upper` and `total − sum_false ≥ lower`,
//!   and no unassigned counted literal could violate either bound by itself.
//! * Conflict analysis reuses persistent buffers (`analyze_buf`, `seen`) instead of
//!   allocating per resolution step.
//! * A binary clause's watches carry the `BINARY` flag, and each one's blocker is
//!   the clause's other literal. Propagating through such a watch reads only the
//!   blocker's value: the blocker is enqueued with the clause as its reason, and the
//!   arena is never read. The clause's orientation in the arena is written only on a
//!   conflict, as `[other, falsified]`, right before conflict analysis reads it in
//!   that order; a binary reason expands to one literal whatever its orientation, and
//!   final-conflict analysis and watch rebuilds do not depend on it either.
//!
//! # Memory layout
//!
//! A solver's lists are flat, like its clauses. The clauses live back to back in a
//! [`ClauseArena`]; the watch lists (two per variable) share one buffer, and so do the
//! linear occurrences (one list per variable). Each list owns a segment of its
//! buffer: its entries, then room for more. Building a solver over tens of
//! thousands of variables therefore makes a handful of allocations instead of one
//! or two per list, and dropping it frees them at once.
//!
//! * Before a bulk load, the watch lists are laid out once, in literal order, each
//!   with room for every loaded clause that could come to watch it.
//! * A push into a full list grows it in place when its segment ends the buffer,
//!   and otherwise moves it to the end of the buffer with doubled room. The segment
//!   it leaves is dead space. Because room doubles, the segments a list has left
//!   behind hold less than its current room, so dead space stays below half the
//!   buffer without a compaction pass; the next layout drops it.
//! * Relocation and layout copy a list's entries in order, and a push or removal
//!   changes a list exactly as `Vec::push` and `Vec::swap_remove` would. Watch lists
//!   are visited in that order, so the flat layout visits clauses, propagates,
//!   conflicts and learns exactly as a vector per list did.
//!
//! # What outlives a solver
//!
//! Learned clauses live and die with their solver: they may rest on per-solve units
//! (`#external` truths), objective bounds or blocking clauses, so none is exported.
//! Only *loop nogoods* — clauses the stability check proves hold in every stable
//! model of the ground program — are kept beyond one solver. A [`ClauseCache`]
//! collects them and replays them into newly built solvers: a solver rebuilt between
//! optimization levels starts from every loop nogood the solve found so far.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::hasher::FxHashSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A propositional variable (0-based).
pub type Var = u32;

/// A literal: a variable with a sign. Internally `2*var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// The variable of this literal.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Is this the positive literal?
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "~x{}", self.var())
        }
    }
}

/// Clause storage: every clause's literals back to back in one `Vec<Lit>`, plus one
/// `(start, len)` span per clause — a region allocator in the style of MiniSat's
/// `ClauseAllocator`. Pushing a clause is an `extend` of the shared buffer, and
/// dropping the arena frees two allocations instead of one per clause. Clause `i` is
/// addressed as `arena[i]` (a `[Lit]` slice).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClauseArena {
    lits: Vec<Lit>,
    spans: Vec<(u32, u32)>,
}

impl ClauseArena {
    /// An empty arena.
    pub fn new() -> Self {
        ClauseArena::default()
    }

    /// Reserve room for `clauses` more clauses holding `lits` more literals.
    pub(crate) fn reserve(&mut self, clauses: usize, lits: usize) {
        self.spans.reserve(clauses);
        self.lits.reserve(lits);
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the arena holds no clause.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total number of literals over all clauses.
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Append a clause verbatim; returns its index.
    pub(crate) fn push(&mut self, clause: &[Lit]) -> usize {
        self.push_iter(clause.iter().copied())
    }

    /// Append a clause from its literals, in order; returns its index.
    pub(crate) fn push_iter(&mut self, clause: impl IntoIterator<Item = Lit>) -> usize {
        let start = self.lits.len();
        self.lits.extend(clause);
        self.close(start)
    }

    /// Append a clause in canonical form — literals sorted and deduplicated — unless
    /// it is a tautology (complementary literals of one variable sort adjacently).
    /// Returns whether the clause was kept.
    pub(crate) fn push_canonical(&mut self, clause: impl IntoIterator<Item = Lit>) -> bool {
        let start = self.lits.len();
        self.lits.extend(clause);
        let tail = &mut self.lits[start..];
        tail.sort_unstable();
        let mut len = usize::from(!tail.is_empty());
        for i in 1..tail.len() {
            if tail[i] != tail[len - 1] {
                tail[len] = tail[i];
                len += 1;
            }
        }
        if tail[..len].windows(2).any(|w| w[0] == w[1].negate()) {
            self.lits.truncate(start);
            return false;
        }
        self.lits.truncate(start + len);
        self.close(start);
        true
    }

    /// Record the literals from `start` to the end of the buffer as one clause.
    fn close(&mut self, start: usize) -> usize {
        let end = u32::try_from(self.lits.len()).expect("clause arena exceeds u32::MAX literals");
        let start = start as u32; // start <= end
        self.spans.push((start, end - start));
        self.spans.len() - 1
    }

    /// Drop every clause from index `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        if let Some(&(start, _)) = self.spans.get(len) {
            self.lits.truncate(start as usize);
            self.spans.truncate(len);
        }
    }

    /// Keep only the clauses for which `keep(index)` holds, preserving their order.
    /// The kept literals slide down over the dropped ones, so the buffer holds
    /// exactly the live clauses afterwards.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut write_lit = 0usize;
        let mut write_clause = 0usize;
        for ci in 0..self.spans.len() {
            if !keep(ci) {
                continue;
            }
            let (start, len) = self.spans[ci];
            self.lits.copy_within(start as usize..(start + len) as usize, write_lit);
            self.spans[write_clause] = (write_lit as u32, len);
            write_lit += len as usize;
            write_clause += 1;
        }
        self.lits.truncate(write_lit);
        self.spans.truncate(write_clause);
    }

    /// The clauses in index order.
    pub fn iter(&self) -> ClauseIter<'_> {
        ClauseIter { lits: &self.lits, spans: self.spans.iter() }
    }
}

impl std::ops::Index<usize> for ClauseArena {
    type Output = [Lit];

    fn index(&self, ci: usize) -> &[Lit] {
        let (start, len) = self.spans[ci];
        &self.lits[start as usize..(start + len) as usize]
    }
}

impl std::ops::IndexMut<usize> for ClauseArena {
    fn index_mut(&mut self, ci: usize) -> &mut [Lit] {
        let (start, len) = self.spans[ci];
        &mut self.lits[start as usize..(start + len) as usize]
    }
}

impl<'a> IntoIterator for &'a ClauseArena {
    type Item = &'a [Lit];
    type IntoIter = ClauseIter<'a>;

    fn into_iter(self) -> ClauseIter<'a> {
        self.iter()
    }
}

/// Iterator over the clauses of a [`ClauseArena`], as literal slices.
#[derive(Debug, Clone)]
pub struct ClauseIter<'a> {
    lits: &'a [Lit],
    spans: std::slice::Iter<'a, (u32, u32)>,
}

impl<'a> Iterator for ClauseIter<'a> {
    type Item = &'a [Lit];

    fn next(&mut self) -> Option<&'a [Lit]> {
        let &(start, len) = self.spans.next()?;
        Some(&self.lits[start as usize..(start + len) as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl ExactSizeIterator for ClauseIter<'_> {}

/// Truth value of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Unassigned,
    True,
    False,
}

/// Why a literal was assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// A decision (no reason).
    Decision,
    /// Unit propagation from a clause (its index in the clause arena).
    Clause(u32),
    /// Propagation from a linear constraint; the explicit reason clause is stored (its
    /// index in the reason arena).
    Stored(u32),
}

/// Result of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchResult {
    /// A satisfying assignment was found.
    Sat,
    /// The formula (with all added clauses/constraints) is unsatisfiable.
    Unsat,
    /// The search was stopped by an expired [`SolveBudgetState`] (see
    /// [`Solver::set_budget`]) before reaching a verdict. The solver remains reusable
    /// — the partial assignment is undone by the next operation.
    Interrupted,
}

/// Shared budget accounting for one logical solve (the solvers of every descent step
/// of one `Control::solve*` call, or the probe of one `Control::minimize_core` call,
/// point at the same instance).
///
/// The search loop checks the budget once per propagation/conflict round, so an
/// expired budget is observed within one round — the "one solver check interval" of
/// the deadline contract.
///
/// The wall-deadline half lives outside this type: a monitor thread owned by the
/// caller calls [`SolveBudgetState::arm`] when the deadline passes. The conflict
/// half is counted here, by every solver sharing the budget, into one shared
/// counter — the limit bounds the *total* conflict work of the solve, not the
/// effort of any one solver.
#[derive(Debug, Default)]
pub struct SolveBudgetState {
    expired: AtomicBool,
    conflicts: AtomicU64,
    /// Total conflict ceiling; `u64::MAX` means no conflict limit.
    conflict_limit: u64,
}

impl SolveBudgetState {
    /// A budget with an optional total-conflict ceiling (`None` = unlimited).
    pub fn new(conflict_limit: Option<u64>) -> Self {
        SolveBudgetState {
            expired: AtomicBool::new(false),
            conflicts: AtomicU64::new(0),
            conflict_limit: conflict_limit.unwrap_or(u64::MAX),
        }
    }

    /// Mark the budget as spent; every solver sharing it returns
    /// [`SearchResult::Interrupted`] at its next check.
    pub fn arm(&self) {
        self.expired.store(true, Ordering::SeqCst);
    }

    /// Has the budget expired (deadline passed or conflict limit crossed)?
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }

    /// Record one conflict; arms the budget once the shared total crosses the limit.
    fn note_conflict(&self) {
        let seen = self.conflicts.fetch_add(1, Ordering::Relaxed) + 1;
        if seen >= self.conflict_limit {
            self.arm();
        }
    }

    /// Total conflicts recorded against this budget so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }
}

/// A conflict found during propagation. Clause conflicts are passed by *index* so the
/// hot path never clones a clause body; linear-constraint conflicts carry the literal
/// list their explanation materialises anyway.
#[derive(Debug)]
enum Conflict {
    /// The clause at this index is falsified.
    Clause(usize),
    /// An explicit list of (currently false) literals.
    Lits(Vec<Lit>),
}

/// One occurrence of a variable inside a linear constraint: the constraint index plus
/// the slot of the counted literal (or [`GUARD_SLOT`] for the guard/condition literal,
/// which participates in propagation wake-up but not in the counters).
#[derive(Debug, Clone, Copy, Default)]
struct LinOcc {
    idx: u32,
    slot: u32,
}

/// Sentinel slot marking a guard (condition) occurrence.
const GUARD_SLOT: u32 = u32::MAX;

/// A watch-list entry: the watching clause plus a *blocker* literal (some other
/// literal of the clause, usually the second watch). If the blocker is already true
/// the clause is satisfied and the visit costs one probe — the clause body is never
/// touched (MiniSat's blocker optimization). A binary clause's watch has the
/// [`BINARY`] flag set in `ci`, and its blocker is always the other literal.
#[derive(Debug, Clone, Copy)]
struct Watch {
    ci: u32,
    blocker: Lit,
}

/// The filler of a [`Lists`] buffer's unused room; never read as a watch.
impl Default for Watch {
    fn default() -> Self {
        Watch { ci: 0, blocker: Lit(0) }
    }
}

/// Flag bit of [`Watch::ci`] marking a binary clause. The bit is free: every stored
/// clause has at least two literals and the arena caps literals at `u32::MAX`, so a
/// clause index is always below `2^31`.
const BINARY: u32 = 1 << 31;

/// Watch the first two literals of clause `ci` (each watch's blocker is the other
/// one), flagging the watches of a binary clause.
fn watch_clause(watches: &mut Lists<Watch>, ci: usize, clause: &[Lit]) {
    debug_assert!(clause.len() >= 2 && ci < BINARY as usize);
    let ci = ci as u32 | if clause.len() == 2 { BINARY } else { 0 };
    watches.push(clause[0].negate().index(), Watch { ci, blocker: clause[1] });
    watches.push(clause[1].negate().index(), Watch { ci, blocker: clause[0] });
}

/// Many short lists in one flat buffer (see "Memory layout" in the module docs).
/// Each list owns a segment of the buffer: `len` entries followed by room for
/// `cap - len` more. Buffer slots outside every segment are dead space, left behind
/// by relocated lists; it stays below half the buffer because room doubles.
#[derive(Debug)]
struct Lists<T> {
    data: Vec<T>,
    segs: Vec<Segment>,
}

/// Where one list of a [`Lists`] lives in its buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    start: u32,
    len: u32,
    cap: u32,
}

impl<T: Copy + Default> Lists<T> {
    /// Room a list gets on its first push when it has none.
    const MIN_ROOM: usize = 4;

    /// `lists` empty lists, with no buffer yet.
    fn new(lists: usize) -> Self {
        Lists { data: Vec::new(), segs: vec![Segment::default(); lists] }
    }

    fn len(&self, list: usize) -> usize {
        self.segs[list].len as usize
    }

    fn slice(&self, list: usize) -> &[T] {
        let Segment { start, len, .. } = self.segs[list];
        &self.data[start as usize..(start + len) as usize]
    }

    fn slice_mut(&mut self, list: usize) -> &mut [T] {
        let Segment { start, len, .. } = self.segs[list];
        &mut self.data[start as usize..(start + len) as usize]
    }

    fn get(&self, list: usize, i: usize) -> T {
        self.slice(list)[i]
    }

    fn set(&mut self, list: usize, i: usize, value: T) {
        self.slice_mut(list)[i] = value;
    }

    fn push(&mut self, list: usize, value: T) {
        if self.segs[list].len == self.segs[list].cap {
            self.grow(list);
        }
        let seg = &mut self.segs[list];
        self.data[(seg.start + seg.len) as usize] = value;
        seg.len += 1;
    }

    /// Remove entry `i` of `list`, moving the list's last entry into its place.
    fn swap_remove(&mut self, list: usize, i: usize) -> T {
        let entries = self.slice_mut(list);
        let removed = entries[i];
        entries[i] = entries[entries.len() - 1];
        self.segs[list].len -= 1;
        removed
    }

    /// Empty every list, keeping its room.
    fn clear_all(&mut self) {
        for seg in &mut self.segs {
            seg.len = 0;
        }
    }

    /// Double the room of a full list: in place when its segment ends the buffer,
    /// else by moving it to the end of the buffer, leaving its old segment dead.
    fn grow(&mut self, list: usize) {
        let Segment { start, len, cap } = self.segs[list];
        let (start, len, cap) = (start as usize, len as usize, cap as usize);
        let new_cap = (2 * cap).max(Self::MIN_ROOM);
        if start + cap == self.data.len() {
            self.resize(start + new_cap);
        } else {
            let new_start = self.data.len();
            self.resize(new_start + new_cap);
            self.data.copy_within(start..start + len, new_start);
            self.segs[list].start = new_start as u32;
        }
        self.segs[list].cap = new_cap as u32;
    }

    fn resize(&mut self, len: usize) {
        assert!(len < u32::MAX as usize, "flat list buffer reaches u32::MAX entries");
        self.data.resize(len, T::default());
    }

    /// Copy every list into a fresh buffer in list order, each keeping its room and
    /// getting room for at least `room(list)` entries beyond its length; the new
    /// buffer has no dead space.
    fn lay_out(&mut self, room: impl Fn(usize) -> usize) {
        let cap =
            |(list, seg): (usize, &Segment)| (seg.cap as usize).max(seg.len as usize + room(list));
        let total: usize = self.segs.iter().enumerate().map(cap).sum();
        assert!(total < u32::MAX as usize, "flat list buffer reaches u32::MAX entries");
        let mut data = Vec::with_capacity(total);
        for (list, seg) in self.segs.iter_mut().enumerate() {
            let new_cap = cap((list, seg));
            let start = data.len();
            data.extend_from_slice(&self.data[seg.start as usize..(seg.start + seg.len) as usize]);
            data.resize(start + new_cap, T::default());
            seg.start = start as u32;
            seg.cap = new_cap as u32;
        }
        self.data = data;
    }
}

/// A linear constraint over literals: `lower <= sum(weight_i * lit_i) <= upper`,
/// active only when `condition` (if any) is true.
#[derive(Debug, Clone)]
pub struct LinearSpec {
    /// Guard literal; the constraint is enforced only when it is true.
    pub condition: Option<Lit>,
    /// The counted literals.
    pub lits: Vec<Lit>,
    /// Per-literal weights (same length as `lits`).
    pub weights: Vec<u64>,
    /// Lower bound on the weighted count of true literals (0 = no bound).
    pub lower: u64,
    /// Upper bound on the weighted count of true literals (`u64::MAX` = no bound).
    pub upper: u64,
}

impl LinearSpec {
    /// A cardinality constraint: `lower <= #true <= upper`.
    pub fn cardinality(condition: Option<Lit>, lits: Vec<Lit>, lower: u64, upper: u64) -> Self {
        let weights = vec![1; lits.len()];
        LinearSpec { condition, lits, weights, lower, upper }
    }
}

/// A linear constraint inside the solver. Its literals and weights are the segment
/// [`Linear::range`] of the solver's `linear_lits` and `linear_weights`.
#[derive(Debug, Clone)]
struct Linear {
    condition: Option<Lit>,
    start: u32,
    len: u32,
    lower: u64,
    upper: u64,
    total: u64,
    sum_true: u64,
    sum_false: u64,
    /// Largest single weight. No literal can overflow the upper bound unless
    /// `sum_true + wmax > upper`, and none can be forced true unless
    /// `total - sum_false - wmax < lower` (the heaviest literal triggers first on
    /// both bounds), so slack constraints skip the literal scan.
    wmax: u64,
}

impl Linear {
    /// The constraint's segment of the solver's literal and weight buffers.
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Heuristic configuration of the solver (the analogue of clingo's configuration
/// presets; see [`crate::control::SolverConfig`]).
#[derive(Debug, Clone)]
pub struct SatConfig {
    /// Variable activity decay factor (0 < decay < 1); smaller decays faster.
    pub var_decay: f64,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Default polarity for unseen variables.
    pub default_phase: bool,
    /// Probability of choosing a random polarity at a decision.
    pub random_polarity: f64,
    /// Seed for the solver's private RNG.
    pub seed: u64,
    /// Soft cap on live learned clauses: when exceeded (checked at restarts), the
    /// lower-activity half of the deletable learned clauses is removed. Grows
    /// geometrically after every reduction, by half and at least by one.
    pub learned_limit: usize,
    /// Learned-clause activity decay factor (0 < decay < 1); the clause analogue of
    /// `var_decay`.
    pub clause_decay: f64,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            var_decay: 0.95,
            restart_base: 128,
            default_phase: false,
            random_polarity: 0.02,
            seed: 0x5eed,
            learned_limit: 4000,
            clause_decay: 0.999,
        }
    }
}

/// Statistics kept by the solver.
#[derive(Debug, Clone, Default)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses.
    pub learned: u64,
    /// Number of learned clauses deleted again by the reduction policy.
    pub deleted: u64,
}

impl SatStats {
    /// Accumulate another solver run's statistics into this one.
    pub fn absorb(&mut self, other: &SatStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.deleted += other.deleted;
    }
}

/// The CDCL solver.
pub struct Solver {
    num_vars: usize,
    clauses: ClauseArena,
    /// Parallel to `clauses`: learned (deletable) flag.
    clause_learned: Vec<bool>,
    /// Parallel to `clauses`: conflict-analysis activity (only meaningful for learned).
    clause_activity: Vec<f64>,
    clause_inc: f64,
    /// Live learned-clause cap; grows geometrically after each reduction.
    max_learned: usize,
    /// Watch lists: for each literal index, the watching clauses (with blockers).
    watches: Lists<Watch>,
    linears: Vec<Linear>,
    /// The counted literals of every linear constraint, one segment per constraint in
    /// the order they were added.
    linear_lits: Vec<Lit>,
    /// Parallel to `linear_lits`: the literals' weights.
    linear_weights: Vec<u64>,
    /// For each variable, its occurrences in linear constraints (constraint + slot).
    linear_occ: Lists<LinOcc>,
    assignment: Vec<Value>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    /// Explicit reason clauses of literals forced by linear constraints; truncated
    /// on backtracking.
    stored_reasons: ClauseArena,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Parallel to `trail_lim`: `stored_reasons.len()` when each level was opened, so
    /// backtracking can reclaim the reasons of unassigned literals.
    stored_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    heap: VarHeap,
    config: SatConfig,
    rng: StdRng,
    /// Statistics.
    pub stats: SatStats,
    /// Set when the problem is already unsatisfiable at level 0.
    root_conflict: bool,
    /// Persistent scratch for conflict analysis (the literals being resolved).
    analyze_buf: Vec<Lit>,
    /// Persistent buffer for the clause learned by the last conflict analysis
    /// (asserting literal first).
    learn_buf: Vec<Lit>,
    /// Persistent "seen" marker per variable for conflict analysis.
    seen: Vec<bool>,
    /// The unsat core of the last [`Solver::search_with_assumptions`] call that returned
    /// [`SearchResult::Unsat`]: the subset of the assumption literals whose conjunction
    /// is refuted. Empty when the problem is unsatisfiable without any assumptions.
    conflict_core: Vec<Lit>,
    /// Budget shared by one logical solve (deadline + total conflict limit): once it
    /// expires, the search loop exits with [`SearchResult::Interrupted`] at its next
    /// iteration — see [`SolveBudgetState`].
    budget: Option<Arc<SolveBudgetState>>,
}

impl Solver {
    /// Create a solver for `num_vars` variables.
    pub fn new(num_vars: usize, config: SatConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Solver {
            num_vars,
            clauses: ClauseArena::new(),
            clause_learned: Vec::new(),
            clause_activity: Vec::new(),
            clause_inc: 1.0,
            max_learned: config.learned_limit,
            watches: Lists::new(num_vars * 2),
            linears: Vec::new(),
            linear_lits: Vec::new(),
            linear_weights: Vec::new(),
            linear_occ: Lists::new(num_vars),
            assignment: vec![Value::Unassigned; num_vars],
            level: vec![0; num_vars],
            reason: vec![Reason::Decision; num_vars],
            stored_reasons: ClauseArena::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            stored_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            phase: vec![config.default_phase; num_vars],
            heap: VarHeap::new(num_vars),
            config,
            rng,
            stats: SatStats::default(),
            root_conflict: false,
            analyze_buf: Vec::new(),
            learn_buf: Vec::new(),
            seen: vec![false; num_vars],
            conflict_core: Vec::new(),
            budget: None,
        }
    }

    /// Install (or clear) the shared solve budget. Once it has expired, every search
    /// on this solver returns [`SearchResult::Interrupted`] until the budget is
    /// cleared.
    pub fn set_budget(&mut self, budget: Option<Arc<SolveBudgetState>>) {
        self.budget = budget;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The stored clauses (problem and learned ones of two or more literals).
    #[cfg(test)]
    pub(crate) fn stored_clauses(&self) -> &ClauseArena {
        &self.clauses
    }

    /// The current decision level.
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn value_lit(&self, lit: Lit) -> Value {
        lit_value(&self.assignment, lit)
    }

    /// Is the literal currently true?
    pub fn lit_is_true(&self, lit: Lit) -> bool {
        self.value_lit(lit) == Value::True
    }

    /// Add a clause. Returns `false` when the clause makes the problem unsatisfiable at
    /// the root level. Must be called at decision level 0 (the solver backtracks
    /// automatically when necessary). Takes a slice: the solver copies only the
    /// literals that survive level-0 simplification.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if self.root_conflict {
            return false;
        }
        self.cancel_until(0);
        // Remove literals already false at level 0; satisfied clauses are dropped.
        let mut filtered = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.value_lit(l) {
                Value::True => return true,
                Value::False => {}
                Value::Unassigned => filtered.push(l),
            }
        }
        filtered.sort_unstable();
        filtered.dedup();
        // Tautology? (positive/negative literals of a variable sort adjacently)
        if filtered.windows(2).any(|w| w[0] == w[1].negate()) {
            return true;
        }
        match filtered.len() {
            0 => {
                self.root_conflict = true;
                false
            }
            1 => {
                self.enqueue(filtered[0], Reason::Decision);
                if self.propagate().is_some() {
                    self.root_conflict = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                watch_clause(&mut self.watches, self.clauses.len(), &filtered);
                self.clauses.push(&filtered);
                self.clause_learned.push(false);
                self.clause_activity.push(0.0);
                true
            }
        }
    }

    /// Bulk-load clauses that are already in *trusted canonical form*: strictly sorted
    /// literals (which implies no duplicates and — since the two literals of a variable
    /// sort adjacently — no complementary pair) over in-range variables. Skips the
    /// per-clause sort/dedup/tautology scan and backtrack that [`Solver::add_clause`]
    /// pays, so per-level solver rebuilds in the optimizer ingest their own clause
    /// streams (translation clauses canonicalized once at translate time, and
    /// [`ClauseCache`] contents, canonical by construction) in one linear pass.
    /// Level-0 simplification is byte-identical to [`Solver::add_clause`]; the
    /// canonical-form contract is checked by a debug assertion, so a corrupted clause
    /// (e.g. a bit flip in a shared store) fails loudly in debug builds.
    ///
    /// Returns `false` when some clause makes the problem unsatisfiable at the root.
    pub fn load_trusted_clauses<'a, I>(&mut self, clauses: I) -> bool
    where
        I: IntoIterator<Item = &'a [Lit]>,
    {
        if self.root_conflict {
            return false;
        }
        self.cancel_until(0);
        let mut filtered: Vec<Lit> = Vec::new();
        for lits in clauses {
            debug_assert!(
                self.is_trusted_canonical(lits),
                "load_trusted_clauses: clause violates the canonical-form contract: {lits:?}"
            );
            filtered.clear();
            let mut satisfied = false;
            for &l in lits {
                match self.value_lit(l) {
                    Value::True => {
                        satisfied = true;
                        break;
                    }
                    Value::False => {}
                    Value::Unassigned => filtered.push(l),
                }
            }
            if satisfied {
                continue;
            }
            match filtered.len() {
                0 => {
                    self.root_conflict = true;
                    return false;
                }
                1 => {
                    self.enqueue(filtered[0], Reason::Decision);
                    if self.propagate().is_some() {
                        self.root_conflict = true;
                        return false;
                    }
                }
                _ => {
                    watch_clause(&mut self.watches, self.clauses.len(), &filtered);
                    self.clauses.push(&filtered);
                    self.clause_learned.push(false);
                    self.clause_activity.push(0.0);
                }
            }
        }
        true
    }

    /// Make room for a bulk load of the clauses of `arenas`: in the clause arena, and
    /// in every watch list, which is laid out once with room for each loaded clause
    /// that could come to watch it. A clause of two or more literals containing `l`
    /// can put a watch in the list of `¬l` only (level-0 simplification drops
    /// literals, and a search moves watches within the clause), so the occurrences
    /// of `¬l` over such clauses bound the list of `l`.
    pub(crate) fn reserve_clauses(&mut self, arenas: &[&ClauseArena]) {
        let clauses: usize = arenas.iter().map(|a| a.len()).sum();
        let lits: usize = arenas.iter().map(|a| a.num_lits()).sum();
        self.clauses.reserve(clauses, lits);
        self.clause_learned.reserve(clauses);
        self.clause_activity.reserve(clauses);
        let mut room = vec![0u32; 2 * self.num_vars];
        for clause in arenas.iter().flat_map(|a| a.iter()).filter(|c| c.len() >= 2) {
            for &l in clause {
                room[l.negate().index()] += 1;
            }
        }
        self.watches.lay_out(|list| room[list] as usize);
    }

    /// The [`Solver::load_trusted_clauses`] contract check (debug builds only).
    fn is_trusted_canonical(&self, lits: &[Lit]) -> bool {
        lits.iter().all(|l| (l.var() as usize) < self.num_vars)
            && lits.windows(2).all(|w| w[0] < w[1] && w[0] != w[1].negate())
    }

    /// Add a linear constraint. Its literals and weights are copied into the solver's
    /// flat constraint buffers.
    pub fn add_linear(&mut self, spec: &LinearSpec) {
        assert_eq!(spec.lits.len(), spec.weights.len());
        self.cancel_until(0);
        let total: u64 = spec.weights.iter().sum();
        let idx = self.linears.len() as u32;
        for (slot, &l) in spec.lits.iter().enumerate() {
            self.linear_occ.push(l.var() as usize, LinOcc { idx, slot: slot as u32 });
        }
        if let Some(c) = spec.condition {
            self.linear_occ.push(c.var() as usize, LinOcc { idx, slot: GUARD_SLOT });
        }
        let wmax = spec.weights.iter().copied().max().unwrap_or(0);
        let start = self.linear_lits.len() as u32;
        self.linear_lits.extend_from_slice(&spec.lits);
        self.linear_weights.extend_from_slice(&spec.weights);
        u32::try_from(self.linear_lits.len()).expect("linear constraints exceed u32::MAX literals");
        let mut lin = Linear {
            condition: spec.condition,
            start,
            len: spec.lits.len() as u32,
            lower: spec.lower,
            upper: spec.upper,
            total,
            sum_true: 0,
            sum_false: 0,
            wmax,
        };
        // Account for assignments already made at level 0.
        for (&l, &w) in spec.lits.iter().zip(&spec.weights) {
            match self.value_lit(l) {
                Value::True => lin.sum_true += w,
                Value::False => lin.sum_false += w,
                Value::Unassigned => {}
            }
        }
        self.linears.push(lin);
        // The constraint may already be violated (or unit) under the level-0 assignment;
        // check it right away — later propagation only triggers on new assignments.
        if self.propagate_linear(idx as usize).is_some() || self.propagate().is_some() {
            self.root_conflict = true;
        }
    }

    /// Number of linear constraints added so far (the next `add_linear` gets this
    /// index); lets callers address a constraint for in-place tightening.
    pub fn num_linears(&self) -> usize {
        self.linears.len()
    }

    /// Tighten an existing linear constraint's upper bound in place. The new bound
    /// must not be looser than the current one — used by the optimizer to descend an
    /// objective without stacking superseded constraints (and their occurrence-list
    /// entries) in the live solver.
    pub fn tighten_linear_upper(&mut self, idx: usize, upper: u64) {
        if self.root_conflict {
            return;
        }
        self.cancel_until(0);
        debug_assert!(upper <= self.linears[idx].upper);
        self.linears[idx].upper = upper;
        if self.propagate_linear(idx).is_some() || self.propagate().is_some() {
            self.root_conflict = true;
        }
    }

    /// Bump a variable's activity so the heuristic prefers it early (used to focus the
    /// search on atoms that matter, e.g. objective atoms).
    pub fn bump_variable(&mut self, v: Var, amount: f64) {
        self.activity[v as usize] += amount;
        self.heap.update(v, &self.activity);
    }

    /// Seed the saved phase of a variable. Used to warm-start a solver from an
    /// incumbent model so the search re-enters the neighbourhood of a known-good
    /// assignment first (the optimizer seeds each lexicographic level this way).
    pub fn set_phase(&mut self, v: Var, phase: bool) {
        self.phase[v as usize] = phase;
    }

    /// Run the CDCL search until a model is found or the problem is proved unsatisfiable.
    pub fn search(&mut self) -> SearchResult {
        self.search_with_assumptions(&[])
    }

    /// Run the CDCL search under a set of *assumption literals* (MiniSat-style
    /// incremental interface): every assumption is decided, in order, at its own
    /// decision level before any free decision is taken, so the search explores only
    /// assignments where all assumptions hold. On [`SearchResult::Unsat`] the subset of
    /// assumptions responsible is available from [`Solver::failed_assumptions`] — the
    /// *unsat core* extracted by final-conflict analysis over the assumption prefix.
    ///
    /// The solver is reusable afterwards: assumptions are plain decisions, undone by
    /// backtracking, never added as clauses.
    pub fn search_with_assumptions(&mut self, assumptions: &[Lit]) -> SearchResult {
        self.conflict_core.clear();
        if self.root_conflict {
            return SearchResult::Unsat;
        }
        self.cancel_until(0);
        let mut conflicts_until_restart = self.luby_interval();
        loop {
            if let Some(budget) = &self.budget {
                if budget.expired() {
                    return SearchResult::Interrupted;
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if let Some(budget) = &self.budget {
                    budget.note_conflict();
                }
                if self.decision_level() == 0 {
                    self.root_conflict = true;
                    return SearchResult::Unsat;
                }
                let backtrack_level = self.analyze(confl);
                self.cancel_until(backtrack_level);
                self.record_learned();
                self.decay_activities();
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                continue;
            }
            if conflicts_until_restart == 0 {
                self.stats.restarts += 1;
                self.cancel_until(0);
                self.reduce_learned();
                conflicts_until_restart = self.luby_interval();
            }
            // Re-establish the assumption prefix: assumption `i` owns decision level
            // `i + 1` (an empty level when it is already implied), so a backtrack below
            // the prefix is repaired here before any free decision is taken.
            let mut propagate_assumption = false;
            while (self.decision_level() as usize) < assumptions.len() {
                let p = assumptions[self.decision_level() as usize];
                match self.value_lit(p) {
                    Value::True => {
                        self.trail_lim.push(self.trail.len());
                        self.stored_lim.push(self.stored_reasons.len());
                    }
                    Value::False => {
                        self.conflict_core = self.analyze_final(p);
                        return SearchResult::Unsat;
                    }
                    Value::Unassigned => {
                        self.trail_lim.push(self.trail.len());
                        self.stored_lim.push(self.stored_reasons.len());
                        self.enqueue(p, Reason::Decision);
                        propagate_assumption = true;
                        break;
                    }
                }
            }
            if propagate_assumption {
                continue;
            }
            // All constraints propagated without conflict: check for completeness.
            match self.pick_branch_variable() {
                None => return SearchResult::Sat,
                Some(var) => {
                    self.stats.decisions += 1;
                    let phase = if self.rng.gen_bool(self.config.random_polarity) {
                        self.rng.gen_bool(0.5)
                    } else {
                        self.phase[var as usize]
                    };
                    let lit = if phase { Lit::pos(var) } else { Lit::neg(var) };
                    self.trail_lim.push(self.trail.len());
                    self.stored_lim.push(self.stored_reasons.len());
                    self.enqueue(lit, Reason::Decision);
                }
            }
        }
    }

    /// The unsat core of the last failed [`Solver::search_with_assumptions`] call: the
    /// subset of its assumption literals whose conjunction is refuted by the formula.
    /// Empty when the formula is unsatisfiable on its own (no assumption needed).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): `failed` is an assumption
    /// found false while re-establishing the prefix. Walk the trail backwards from the
    /// implied `¬failed`, expanding propagation reasons; every *decision* reached below
    /// the assumption prefix is itself an assumption, and together with `failed` they
    /// form an unsat core.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            // ¬failed is forced at the root: the assumption alone is refuted.
            return core;
        }
        let start = self.trail_lim[0];
        self.seen[failed.var() as usize] = true;
        for i in (start..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var() as usize;
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // Only assumptions are decisions below the assumption prefix.
                Reason::Decision => core.push(x),
                Reason::Clause(ci) => {
                    for &l in &self.clauses[ci as usize] {
                        if l.var() as usize != v && self.level[l.var() as usize] > 0 {
                            self.seen[l.var() as usize] = true;
                        }
                    }
                }
                Reason::Stored(ri) => {
                    for &l in &self.stored_reasons[ri as usize] {
                        if l.var() as usize != v && self.level[l.var() as usize] > 0 {
                            self.seen[l.var() as usize] = true;
                        }
                    }
                }
            }
        }
        self.seen[failed.var() as usize] = false;
        core
    }

    /// The current (total) model; only meaningful after [`Solver::search`] returned
    /// [`SearchResult::Sat`].
    pub fn model(&self) -> Vec<bool> {
        self.assignment.iter().map(|v| matches!(v, Value::True)).collect()
    }

    // ---- internal: propagation -------------------------------------------------------

    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(lit), Value::Unassigned);
        let var = lit.var() as usize;
        self.assignment[var] = if lit.is_pos() { Value::True } else { Value::False };
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        self.phase[var] = lit.is_pos();
        self.trail.push(lit);
        self.stats.propagations += 1;
        // Update linear-constraint counters incrementally: each occurrence names the
        // exact slot of this variable's literal, so no literal list is scanned.
        for occ in self.linear_occ.slice(var) {
            if occ.slot == GUARD_SLOT {
                continue;
            }
            let lin = &mut self.linears[occ.idx as usize];
            let k = (lin.start + occ.slot) as usize;
            let (l, w) = (self.linear_lits[k], self.linear_weights[k]);
            if l.is_pos() == lit.is_pos() {
                lin.sum_true += w;
            } else {
                lin.sum_false += w;
            }
        }
    }

    fn unassign(&mut self, lit: Lit) {
        let var = lit.var() as usize;
        for occ in self.linear_occ.slice(var) {
            if occ.slot == GUARD_SLOT {
                continue;
            }
            let lin = &mut self.linears[occ.idx as usize];
            let k = (lin.start + occ.slot) as usize;
            let (l, w) = (self.linear_lits[k], self.linear_weights[k]);
            if l.is_pos() == lit.is_pos() {
                lin.sum_true -= w;
            } else {
                lin.sum_false -= w;
            }
        }
        self.assignment[var] = Value::Unassigned;
        if !self.heap.contains(var as Var) {
            self.heap.insert(var as Var, &self.activity);
        }
    }

    fn cancel_until(&mut self, level: u32) {
        let mut stored_mark = None;
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().unwrap();
            stored_mark = self.stored_lim.pop();
            while self.trail.len() > lim {
                let lit = self.trail.pop().unwrap();
                self.unassign(lit);
            }
        }
        // Reasons are pushed in enqueue order, so every still-assigned literal's
        // stored reason predates the earliest cancelled level — the tail is garbage.
        if let Some(mark) = stored_mark {
            self.stored_reasons.truncate(mark);
        }
        self.prop_head = self.prop_head.min(self.trail.len());
    }

    /// Propagate all pending assignments. Returns the conflict if one is found. The
    /// occurrence lists are iterated in place (indexed, since `propagate_linear` may
    /// enqueue further literals) — never cloned.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            // Clause propagation: clauses watching ¬lit.
            if let Some(ci) = self.propagate_clauses(lit) {
                return Some(Conflict::Clause(ci));
            }
            // Linear constraints containing this variable.
            let var = lit.var() as usize;
            for k in 0..self.linear_occ.len(var) {
                let occ = self.linear_occ.get(var, k);
                if let Some(confl) = self.propagate_linear(occ.idx as usize) {
                    return Some(Conflict::Lits(confl));
                }
            }
        }
        None
    }

    fn propagate_clauses(&mut self, lit: Lit) -> Option<usize> {
        let watch_idx = lit.index();
        let mut i = 0;
        while i < self.watches.len(watch_idx) {
            // Blocker probe: a satisfied clause costs one value lookup.
            let Watch { ci, blocker } = self.watches.get(watch_idx, i);
            let blocker_value = self.value_lit(blocker);
            if blocker_value == Value::True {
                i += 1;
                continue;
            }
            // The falsified literal is lit.negate().
            let false_lit = lit.negate();
            if ci & BINARY != 0 {
                // A binary clause is unit or conflicting on its blocker alone.
                let ci = ci & !BINARY;
                if blocker_value == Value::False {
                    // Conflict analysis reads the clause in the order a long-clause
                    // visit leaves it: the other literal first.
                    let clause = &mut self.clauses[ci as usize];
                    clause[0] = blocker;
                    clause[1] = false_lit;
                    return Some(ci as usize);
                }
                self.enqueue(blocker, Reason::Clause(ci));
                i += 1;
                continue;
            }
            let ci = ci as usize;
            // Make sure the falsified literal is at position 1.
            let clause = &mut self.clauses[ci];
            if clause[0] == false_lit {
                clause.swap(0, 1);
            }
            // If the first watch is true, the clause is satisfied: remember it as the
            // blocker for the next visit.
            let first = clause[0];
            if lit_value(&self.assignment, first) == Value::True {
                self.watches.set(watch_idx, i, Watch { ci: ci as u32, blocker: first });
                i += 1;
                continue;
            }
            // Look for a new literal to watch.
            let mut new_watch = None;
            for k in 2..clause.len() {
                if lit_value(&self.assignment, clause[k]) != Value::False {
                    clause.swap(1, k);
                    new_watch = Some(clause[1].negate().index());
                    break;
                }
            }
            if let Some(w) = new_watch {
                self.watches.push(w, Watch { ci: ci as u32, blocker: first });
                self.watches.swap_remove(watch_idx, i);
                continue;
            }
            // Clause is unit or conflicting.
            match self.value_lit(first) {
                Value::False => {
                    return Some(ci);
                }
                Value::Unassigned => {
                    self.enqueue(first, Reason::Clause(ci as u32));
                    i += 1;
                }
                Value::True => {
                    i += 1;
                }
            }
        }
        None
    }

    fn propagate_linear(&mut self, idx: usize) -> Option<Vec<Lit>> {
        let (upper_violated, lower_violated) = {
            let lin = &self.linears[idx];
            (lin.sum_true > lin.upper, lin.total - lin.sum_false < lin.lower)
        };
        let condition = self.linears[idx].condition;
        let cond_value = condition.map(|c| self.value_lit(c));

        // If the guard is false the constraint is inert.
        if cond_value == Some(Value::False) {
            return None;
        }

        if upper_violated || lower_violated {
            match cond_value {
                Some(Value::Unassigned) => {
                    // Force the guard false.
                    let c = condition.unwrap();
                    let rid = self.store_linear_reason(idx, upper_violated, [c.negate()]);
                    self.enqueue(c.negate(), Reason::Stored(rid));
                    return None;
                }
                _ => {
                    // Guard true (or absent): conflict.
                    let lits = &self.linear_lits[self.linears[idx].range()];
                    let clause = bound_explanation(lits, &self.assignment, upper_violated)
                        .chain(condition.map(Lit::negate))
                        .collect();
                    return Some(clause);
                }
            }
        }

        // Only propagate individual literals when the guard is definitely active.
        if cond_value == Some(Value::Unassigned) {
            return None;
        }

        // Slack check: when even the heaviest literal can neither overflow the upper
        // bound (if set true) nor undershoot the lower bound (if set false), no
        // literal can be forced — skip the O(lits) scan entirely. This keeps the
        // per-assignment cost of slack constraints at O(1).
        {
            let lin = &self.linears[idx];
            let upper_tight = lin.sum_true.saturating_add(lin.wmax) > lin.upper;
            let lower_tight = (lin.total - lin.sum_false).saturating_sub(lin.wmax) < lin.lower;
            if !upper_tight && !lower_tight {
                return None;
            }
        }

        // Upper-bound propagation: literal would overflow the bound -> must be false.
        for k in self.linears[idx].range() {
            let (lit, weight, sum_true, upper, total, sum_false, lower) = {
                let lin = &self.linears[idx];
                (
                    self.linear_lits[k],
                    self.linear_weights[k],
                    lin.sum_true,
                    lin.upper,
                    lin.total,
                    lin.sum_false,
                    lin.lower,
                )
            };
            if self.value_lit(lit) != Value::Unassigned || weight == 0 {
                continue;
            }
            let guard = condition.map(Lit::negate);
            if sum_true + weight > upper {
                let rid =
                    self.store_linear_reason(idx, true, guard.into_iter().chain([lit.negate()]));
                self.enqueue(lit.negate(), Reason::Stored(rid));
                if let Some(confl) = self.propagate_linear(idx) {
                    return Some(confl);
                }
            } else if total - sum_false - weight < lower {
                let rid = self.store_linear_reason(idx, false, guard.into_iter().chain([lit]));
                self.enqueue(lit, Reason::Stored(rid));
                if let Some(confl) = self.propagate_linear(idx) {
                    return Some(confl);
                }
            }
        }
        None
    }

    /// Store the reason clause of a literal forced by linear constraint `idx`: the
    /// [`bound_explanation`] of the bound at stake followed by `tail`, written
    /// straight into the reason arena. Returns the reason's index.
    fn store_linear_reason(
        &mut self,
        idx: usize,
        upper: bool,
        tail: impl IntoIterator<Item = Lit>,
    ) -> u32 {
        let lits = &self.linear_lits[self.linears[idx].range()];
        let explanation = bound_explanation(lits, &self.assignment, upper);
        // Every stored reason holds at least one literal (the tail), and the arena caps
        // literals at `u32::MAX`, so the index fits.
        self.stored_reasons.push_iter(explanation.chain(tail)) as u32
    }

    // ---- internal: conflict analysis ---------------------------------------------------

    /// First-UIP conflict analysis. Leaves the learned clause (with the asserting
    /// literal first) in `learn_buf` and returns the backtrack level.
    ///
    /// Clause-typed conflicts and reasons are resolved by *reference*; the working set
    /// of literals lives in the persistent `analyze_buf`, the learned clause in the
    /// persistent `learn_buf`, and the per-variable `seen` markers are cleared
    /// incrementally on exit — no allocation per conflict.
    fn analyze(&mut self, conflict: Conflict) -> u32 {
        let current_level = self.decision_level();
        // Slot 0 is reserved for the asserting literal, filled in at the end.
        let mut learned = std::mem::take(&mut self.learn_buf);
        learned.clear();
        learned.push(Lit(0));
        let mut counter = 0usize;
        let mut trail_index = self.trail.len();
        let mut expand: Vec<Lit> = std::mem::take(&mut self.analyze_buf);
        expand.clear();
        match conflict {
            Conflict::Clause(ci) => {
                self.bump_clause(ci);
                expand.extend_from_slice(&self.clauses[ci]);
            }
            Conflict::Lits(lits) => expand.extend_from_slice(&lits),
        }
        let asserting;

        loop {
            #[allow(clippy::needless_range_loop)] // `self.bump` below needs `&mut self`
            for i in 0..expand.len() {
                let lit = expand[i];
                let v = lit.var() as usize;
                if self.level[v] == 0 || self.seen[v] {
                    continue;
                }
                self.seen[v] = true;
                self.bump(lit.var());
                if self.level[v] == current_level {
                    counter += 1;
                } else {
                    learned.push(lit);
                }
            }
            // Find the next literal on the trail (at the current level) that is seen.
            let lit = loop {
                trail_index -= 1;
                let lit = self.trail[trail_index];
                if self.seen[lit.var() as usize] {
                    break lit;
                }
            };
            counter -= 1;
            if counter == 0 {
                asserting = lit.negate();
                break;
            }
            // Expand the reason of `lit`, skipping its own variable.
            expand.clear();
            let var = lit.var();
            match self.reason[var as usize] {
                Reason::Decision => {}
                Reason::Clause(ci) => {
                    self.bump_clause(ci as usize);
                    expand.extend(self.clauses[ci as usize].iter().filter(|l| l.var() != var));
                }
                Reason::Stored(ri) => {
                    let reason = &self.stored_reasons[ri as usize];
                    expand.extend(reason.iter().filter(|l| l.var() != var));
                }
            }
        }

        // Clear the seen markers we set (asserting var + learned lits + resolved-away
        // vars are all on the trail suffix we walked, plus the learned literals).
        for k in trail_index..self.trail.len() {
            self.seen[self.trail[k].var() as usize] = false;
        }
        for l in &learned[1..] {
            self.seen[l.var() as usize] = false;
        }
        self.analyze_buf = expand;
        learned[0] = asserting;

        // Backtrack level: second-highest level in the clause.
        let backtrack_level =
            learned[1..].iter().map(|l| self.level[l.var() as usize]).max().unwrap_or(0);
        self.learn_buf = learned;
        backtrack_level
    }

    /// Store the clause [`Solver::analyze`] left in `learn_buf` and assert it.
    fn record_learned(&mut self) {
        self.stats.learned += 1;
        let clause = &mut self.learn_buf;
        debug_assert!(!clause.is_empty());
        if clause.len() == 1 {
            // Asserting unit clause: enqueue at the (already backtracked-to) level.
            let unit = clause[0];
            if self.value_lit(unit) == Value::Unassigned {
                self.enqueue(unit, Reason::Decision);
            }
            return;
        }
        // Put a literal of the backtrack level second so the watches are correct.
        let idx = self.clauses.len();
        let mut max_level_pos = 1;
        for (i, l) in clause.iter().enumerate().skip(1) {
            if self.level[l.var() as usize] > self.level[clause[max_level_pos].var() as usize] {
                max_level_pos = i;
            }
        }
        clause.swap(1, max_level_pos);
        watch_clause(&mut self.watches, idx, clause);
        let asserting = clause[0];
        self.clauses.push(clause);
        self.clause_learned.push(true);
        self.clause_activity.push(self.clause_inc);
        if self.value_lit(asserting) == Value::Unassigned {
            self.enqueue(asserting, Reason::Clause(idx as u32));
        }
    }

    /// Delete low-activity learned clauses once their number exceeds the cap. Runs at
    /// restarts (decision level 0): clauses locked as reasons of level-0 assignments
    /// and binary clauses are kept; of the rest, everything below the median activity
    /// goes. The arena is compacted in clause order, watches are rebuilt and
    /// clause-typed reasons remapped.
    fn reduce_learned(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let live = self.clause_learned.iter().filter(|&&l| l).count();
        if live <= self.max_learned {
            return;
        }
        let mut locked = vec![false; self.clauses.len()];
        for &lit in &self.trail {
            if let Reason::Clause(ci) = self.reason[lit.var() as usize] {
                locked[ci as usize] = true;
            }
        }
        // Median activity of learned clauses as the deletion threshold.
        let mut acts: Vec<f64> = (0..self.clauses.len())
            .filter(|&ci| self.clause_learned[ci])
            .map(|ci| self.clause_activity[ci])
            .collect();
        acts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let threshold = acts[acts.len() / 2];

        let mut remap: Vec<u32> = vec![u32::MAX; self.clauses.len()];
        let mut kept = 0usize;
        for ci in 0..self.clauses.len() {
            let deletable = self.clause_learned[ci]
                && !locked[ci]
                && self.clauses[ci].len() > 2
                && self.clause_activity[ci] <= threshold;
            if deletable {
                continue;
            }
            remap[ci] = kept as u32;
            self.clause_learned[kept] = self.clause_learned[ci];
            self.clause_activity[kept] = self.clause_activity[ci];
            kept += 1;
        }
        self.stats.deleted += (self.clauses.len() - kept) as u64;
        self.clauses.retain(|ci| remap[ci] != u32::MAX);
        self.clause_learned.truncate(kept);
        self.clause_activity.truncate(kept);
        // Grow the cap geometrically so reduction stays amortised (by at least one, so
        // a cap of 0 or 1 grows too).
        self.max_learned += (self.max_learned / 2).max(1);

        // Remap clause-typed reasons: only assigned variables hold live reasons.
        for v in 0..self.num_vars {
            if let Reason::Clause(ci) = self.reason[v] {
                if self.assignment[v] == Value::Unassigned {
                    self.reason[v] = Reason::Decision;
                } else {
                    self.reason[v] = Reason::Clause(remap[ci as usize]);
                }
            }
        }
        // Rebuild the watch lists (positions 0/1 of every clause were watched before,
        // and clause contents did not change, so the watch invariant is preserved; a
        // binary clause is watched on both literals whatever its orientation).
        self.watches.clear_all();
        for (ci, c) in self.clauses.iter().enumerate() {
            watch_clause(&mut self.watches, ci, c);
        }
    }

    fn bump(&mut self, var: Var) {
        self.activity[var as usize] += self.var_inc;
        if self.activity[var as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(var, &self.activity);
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clause_learned[ci] {
            return;
        }
        self.clause_activity[ci] += self.clause_inc;
        if self.clause_activity[ci] > 1e20 {
            for a in &mut self.clause_activity {
                *a *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.clause_inc /= self.config.clause_decay;
    }

    fn pick_branch_variable(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assignment[v as usize] == Value::Unassigned {
                return Some(v);
            }
        }
        // Fall back to a linear scan (heap may have dropped re-inserted vars).
        (0..self.num_vars as Var).find(|&v| self.assignment[v as usize] == Value::Unassigned)
    }

    fn luby_interval(&self) -> u64 {
        // Luby sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        fn luby(mut x: u64) -> u64 {
            loop {
                let mut k = 1u32;
                while (1u64 << k) - 1 < x {
                    k += 1;
                }
                if (1u64 << k) - 1 == x {
                    return 1u64 << (k - 1);
                }
                x -= (1u64 << (k - 1)) - 1;
            }
        }
        luby(self.stats.restarts + 1) * self.config.restart_base
    }
}

/// The value of `lit` under `assignment` (a free function so the propagation loop
/// can read the assignment while it holds a clause of the arena mutably).
fn lit_value(assignment: &[Value], lit: Lit) -> Value {
    match (assignment[lit.var() as usize], lit.is_pos()) {
        (Value::Unassigned, _) => Value::Unassigned,
        (Value::True, true) | (Value::False, false) => Value::True,
        (Value::True, false) | (Value::False, true) => Value::False,
    }
}

/// The counted literals `lits` of a linear constraint explaining its upper bound
/// (negations of its true literals) or its lower bound (its false literals) under
/// `assignment`.
fn bound_explanation<'a>(
    lits: &'a [Lit],
    assignment: &'a [Value],
    upper: bool,
) -> impl Iterator<Item = Lit> + 'a {
    let wanted = if upper { Value::True } else { Value::False };
    lits.iter().filter(move |&&l| lit_value(assignment, l) == wanted).map(move |&l| {
        if upper {
            l.negate()
        } else {
            l
        }
    })
}

/// A cache of the loop nogoods of *one ground program*: clauses the stability check
/// proved hold in every stable model. One optimizing solve keeps a cache of its own,
/// which the solvers it rebuilds between optimization levels load once each; at the
/// end it is merged into the session's cache for that grounding, which warm-starts
/// core-minimization probes (they consume only SAT/UNSAT verdicts, so a warm start
/// cannot change an answer) and is shared across requests through the
/// [`SharedClauseStore`]. Invalidated (by the owner) whenever the grounding changes.
#[derive(Debug, Default, Clone)]
pub struct ClauseCache {
    clauses: ClauseArena,
    seen: FxHashSet<u64>,
}

impl ClauseCache {
    /// Cap on cached clauses: beyond this the marginal clause is unlikely to pay for
    /// its replay cost, and the cache must not grow without bound over a long session.
    pub const MAX_CLAUSES: usize = 8192;

    /// Add one loop nogood (deduplicated; ignored once full or empty).
    pub fn add(&mut self, clause: &[Lit]) {
        if clause.is_empty() || self.clauses.len() >= Self::MAX_CLAUSES {
            return;
        }
        // Canonicalize in place at the arena's tail, dropping tautologies, so every
        // cached clause satisfies the trusted canonical form required by
        // `Solver::load_trusted_clauses` (replay skips re-validation).
        if !self.clauses.push_canonical(clause.iter().copied()) {
            return;
        }
        use std::hash::{Hash, Hasher};
        let last = self.clauses.len() - 1;
        let mut hasher = crate::hasher::FxHasher::default();
        self.clauses[last].hash(&mut hasher);
        if !self.seen.insert(hasher.finish()) {
            self.clauses.truncate(last);
        }
    }

    /// Move every clause of `other` into this cache (deduplicated, capped). Into an
    /// empty cache the clauses move raw: they are canonical by construction, and
    /// re-canonicalizing them through [`ClauseCache::add`] would cost a sort per
    /// clause (and mask a corrupted entry that the trusted-load assertion in debug
    /// builds is meant to catch).
    pub fn merge(&mut self, other: ClauseCache) {
        if self.is_empty() {
            *self = other;
        } else {
            for clause in &other.clauses {
                self.add(clause);
            }
        }
    }

    /// The cached clauses, for replay into a new solver.
    pub fn clauses(&self) -> &ClauseArena {
        &self.clauses
    }

    /// Number of cached clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

/// A thread-safe store of loop nogoods shared *across requests*, keyed by the
/// closure digest of each request's translation (see `Translation::digest`). Two
/// requests with the same digest solve the identical formula — same variables,
/// clauses, and linear constraints by construction — so the loop nogoods one request
/// found hold verbatim in the other, and a session can warm-start repeated or
/// re-issued requests from every loop nogood earlier ones found. Entries are whole [`ClauseCache`]s (deduplicated, capped at
/// [`ClauseCache::MAX_CLAUSES`] per key); access is a single `RwLock` around the map
/// plus relaxed counters, so concurrent session requests (the batch path) share it
/// freely.
#[derive(Debug, Default)]
pub struct SharedClauseStore {
    shelves: RwLock<HashMap<u64, ClauseCache>>,
    hits: AtomicU64,
    misses: AtomicU64,
    transferred: AtomicU64,
}

impl SharedClauseStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedClauseStore::default()
    }

    /// Copy the clauses stored under `key` into `cache` (the per-request warm-start
    /// cache), returning how many were transferred. Counts a hit when the key has a
    /// non-empty entry, a miss otherwise.
    pub fn fetch_into(&self, key: u64, cache: &mut ClauseCache) -> usize {
        let shelves = self.shelves.read().unwrap();
        let transferred = match shelves.get(&key) {
            Some(shelf) if !shelf.is_empty() => {
                let before = cache.len();
                cache.merge(shelf.clone());
                cache.len() - before
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.transferred.fetch_add(transferred as u64, Ordering::Relaxed);
        transferred
    }

    /// Merge a finished request's cache into the store under `key` (deduplicated
    /// against what is already shelved, capped per key).
    pub fn publish(&self, key: u64, cache: &ClauseCache) {
        if cache.is_empty() {
            return;
        }
        let mut shelves = self.shelves.write().unwrap();
        let shelf = shelves.entry(key).or_default();
        for clause in cache.clauses() {
            shelf.add(clause);
        }
    }

    /// Number of fetches that found a non-empty entry for their key.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of fetches that found nothing for their key.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total clauses copied out of the store into request caches.
    pub fn transferred(&self) -> u64 {
        self.transferred.load(Ordering::Relaxed)
    }

    /// Test-only corruption hook: shelve a raw clause under `key`, bypassing
    /// [`ClauseCache::add`]'s canonicalization. Exists so mutation tests can prove
    /// that a corrupted transferred clause is caught by the debug-mode
    /// canonical-form assertion in [`Solver::load_trusted_clauses`]; never call it
    /// from production code.
    #[doc(hidden)]
    pub fn inject_raw_for_tests(&self, key: u64, clause: Vec<Lit>) {
        let mut shelves = self.shelves.write().unwrap();
        shelves.entry(key).or_default().clauses.push(&clause);
    }
}

/// A max-heap of variables ordered by the solver's activity scores, with lazy
/// updates. The heap keeps no copy of the scores: every operation reads the solver's
/// `activity` slice, so a rescale of all activities leaves the order valid.
struct VarHeap {
    heap: Vec<Var>,
    /// Each variable's index in `heap`, or [`VarHeap::ABSENT`].
    position: Vec<u32>,
}

impl VarHeap {
    /// Position of a variable that is not in the heap.
    const ABSENT: u32 = u32::MAX;

    /// A heap holding every variable of `n`, in index order: every activity starts at
    /// zero, and index order is what inserting them one by one would give.
    fn new(n: usize) -> Self {
        VarHeap { heap: (0..n as Var).collect(), position: (0..n as u32).collect() }
    }

    fn contains(&self, v: Var) -> bool {
        self.position[v as usize] != Self::ABSENT
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        debug_assert!(!self.contains(v));
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restore the order after `v`'s activity grew.
    fn update(&mut self, v: Var, activity: &[f64]) {
        let pos = self.position[v as usize];
        if pos != Self::ABSENT {
            self.sift_up(pos as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        self.position[top as usize] = Self::ABSENT;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Move the variable at `pos` up past every parent of lower activity, shifting
    /// those parents down into the hole it leaves.
    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        let v = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if activity[v as usize] <= activity[p as usize] {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, v);
    }

    /// Move the variable at `pos` down below every child of higher activity (the
    /// larger child first; the left one on a tie), shifting them up into the hole.
    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        let v = self.heap[pos];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            let right = left + 1;
            let mut child = pos;
            let mut best = activity[v as usize];
            if left < len && activity[self.heap[left] as usize] > best {
                child = left;
                best = activity[self.heap[left] as usize];
            }
            if right < len && activity[self.heap[right] as usize] > best {
                child = right;
            }
            if child == pos {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, v);
    }

    fn place(&mut self, pos: usize, v: Var) {
        self.heap[pos] = v;
        self.position[v as usize] = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        if v > 0 {
            Lit::pos((v - 1) as Var)
        } else {
            Lit::neg((-v - 1) as Var)
        }
    }

    #[test]
    fn simple_sat_and_unsat() {
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        assert!(s.add_clause(&[lit(-1), lit(2)]));
        assert_eq!(s.search(), SearchResult::Sat);
        let m = s.model();
        assert!(m[1], "x2 must be true");

        let mut s = Solver::new(1, SatConfig::default());
        assert!(s.add_clause(&[lit(1)]));
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.search(), SearchResult::Unsat);
    }

    #[test]
    fn pigeonhole_unsat() {
        // 4 pigeons, 3 holes: classic small UNSAT instance exercising conflict analysis.
        let pigeons = 4;
        let holes = 3;
        let var = |p: usize, h: usize| (p * holes + h) as Var;
        let mut s = Solver::new(pigeons * holes, SatConfig::default());
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            assert!(s.add_clause(&clause));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]));
                }
            }
        }
        assert_eq!(s.search(), SearchResult::Unsat);
        assert!(s.stats.conflicts > 0);
    }

    #[test]
    fn learned_clause_deletion_preserves_answers() {
        // A tight learned-clause cap plus a small restart interval forces the
        // reduction policy to run mid-search; the UNSAT proof must survive it.
        let config = SatConfig { restart_base: 4, learned_limit: 1, ..SatConfig::default() };
        let pigeons = 6;
        let holes = 5;
        let var = |p: usize, h: usize| (p * holes + h) as Var;
        let mut s = Solver::new(pigeons * holes, config.clone());
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            assert!(s.add_clause(&clause));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]));
                }
            }
        }
        assert_eq!(s.search(), SearchResult::Unsat);
        assert!(s.stats.deleted > 0, "the reduction policy must have fired");
        // Each reduction grows the cap, by at least one even from a cap of 1.
        assert!(s.max_learned > 1, "the learned-clause cap must grow after a reduction");
        // Compaction reclaims the deleted clauses' space: the arena holds exactly the
        // live clauses' literals, one span per live clause.
        let live_lits: usize = s.clauses.iter().map(<[Lit]>::len).sum();
        assert_eq!(s.clauses.num_lits(), live_lits, "deleted literals left in the arena");
        assert_eq!(s.clauses.len(), s.clause_learned.len());

        // And a satisfiable instance under the same aggressive policy.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40;
        let mut s = Solver::new(n, config);
        let mut cls = Vec::new();
        for _ in 0..120 {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    let v = rng.gen_range(0..n) as Var;
                    if rng.gen_bool(0.5) {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            cls.push(c.clone());
            s.add_clause(&c);
        }
        if s.search() == SearchResult::Sat {
            let m = s.model();
            for c in &cls {
                assert!(c.iter().any(|l| m[l.var() as usize] == l.is_pos()));
            }
        }
    }

    #[test]
    fn random_3sat_instances_solved() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for instance in 0..20 {
            let n = 30;
            let clauses = 90 + instance; // below the phase transition: usually SAT
            let mut s = Solver::new(n, SatConfig::default());
            let mut cls = Vec::new();
            for _ in 0..clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = rng.gen_range(0..n) as Var;
                    let l = if rng.gen_bool(0.5) { Lit::pos(v) } else { Lit::neg(v) };
                    c.push(l);
                }
                cls.push(c.clone());
                s.add_clause(&c);
            }
            if s.search() == SearchResult::Sat {
                let m = s.model();
                for c in &cls {
                    assert!(
                        c.iter().any(|l| m[l.var() as usize] == l.is_pos()),
                        "model does not satisfy a clause"
                    );
                }
            }
        }
    }

    #[test]
    fn cardinality_exactly_one() {
        let mut s = Solver::new(4, SatConfig::default());
        s.add_linear(&LinearSpec::cardinality(None, vec![lit(1), lit(2), lit(3), lit(4)], 1, 1));
        assert_eq!(s.search(), SearchResult::Sat);
        let m = s.model();
        assert_eq!(m.iter().filter(|&&b| b).count(), 1);

        // Forcing two of them true must be unsatisfiable.
        let mut s = Solver::new(4, SatConfig::default());
        s.add_linear(&LinearSpec::cardinality(None, vec![lit(1), lit(2), lit(3), lit(4)], 1, 1));
        assert!(s.add_clause(&[lit(1)]));
        let ok = s.add_clause(&[lit(2)]);
        assert!(!ok || s.search() == SearchResult::Unsat);
    }

    #[test]
    fn cardinality_lower_bound_propagates() {
        // x1..x4, at least 3 true, x1 and x2 false -> unsat.
        let mut s = Solver::new(4, SatConfig::default());
        s.add_linear(&LinearSpec::cardinality(
            None,
            vec![lit(1), lit(2), lit(3), lit(4)],
            3,
            u64::MAX,
        ));
        assert!(s.add_clause(&[lit(-1)]));
        let ok = s.add_clause(&[lit(-2)]);
        assert!(!ok || s.search() == SearchResult::Unsat);
    }

    #[test]
    fn conditional_cardinality_inert_when_guard_false() {
        // guard -> exactly one of x2,x3; guard is false, so both may be true.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(&LinearSpec::cardinality(Some(lit(1)), vec![lit(2), lit(3)], 1, 1));
        assert!(s.add_clause(&[lit(-1)]));
        assert!(s.add_clause(&[lit(2)]));
        assert!(s.add_clause(&[lit(3)]));
        assert_eq!(s.search(), SearchResult::Sat);
    }

    #[test]
    fn conditional_cardinality_forces_guard_false() {
        // guard -> at most one of x2,x3; x2 and x3 forced true -> guard must be false.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(&LinearSpec::cardinality(Some(lit(1)), vec![lit(2), lit(3)], 0, 1));
        assert!(s.add_clause(&[lit(2)]));
        assert!(s.add_clause(&[lit(3)]));
        assert_eq!(s.search(), SearchResult::Sat);
        assert!(!s.model()[0], "guard must be false");
    }

    #[test]
    fn weighted_lower_bound_forces_heavy_literal() {
        // total=10, lower=5: losing the weight-9 literal would undershoot, so it must
        // be forced true by propagation alone (the slack check must use wmax on the
        // lower side too, not the lightest weight).
        let mut s = Solver::new(2, SatConfig::default());
        s.add_linear(&LinearSpec {
            condition: None,
            lits: vec![lit(1), lit(2)],
            weights: vec![9, 1],
            lower: 5,
            upper: u64::MAX,
        });
        assert!(s.lit_is_true(lit(1)), "weight-9 literal must be propagated, not searched");
        assert_eq!(s.search(), SearchResult::Sat);
    }

    #[test]
    fn weighted_upper_bound() {
        // weights 5,3,2 over x1,x2,x3 with sum <= 5: at most x1 alone, or x2+x3.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(&LinearSpec {
            condition: None,
            lits: vec![lit(1), lit(2), lit(3)],
            weights: vec![5, 3, 2],
            lower: 0,
            upper: 5,
        });
        assert!(s.add_clause(&[lit(1)]));
        assert_eq!(s.search(), SearchResult::Sat);
        let m = s.model();
        assert!(m[0] && !m[1] && !m[2]);
    }

    #[test]
    fn blocking_clauses_enumerate_models() {
        // x1 xor-ish: (x1 | x2), enumerate all models of 2 vars.
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        let mut count = 0;
        loop {
            match s.search() {
                SearchResult::Unsat => break,
                SearchResult::Interrupted => unreachable!("no solve budget installed"),
                SearchResult::Sat => {
                    count += 1;
                    assert!(count <= 3, "only 3 models exist");
                    let m = s.model();
                    let blocking: Vec<Lit> = (0..2)
                        .map(|v| if m[v] { Lit::neg(v as Var) } else { Lit::pos(v as Var) })
                        .collect();
                    if !s.add_clause(&blocking) {
                        break;
                    }
                }
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn assumptions_restrict_the_search() {
        // (x1 | x2) with assumption ~x1 forces x2; the solver stays reusable.
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        assert_eq!(s.search_with_assumptions(&[lit(-1)]), SearchResult::Sat);
        let m = s.model();
        assert!(!m[0] && m[1]);
        // Same solver, opposite assumption.
        assert_eq!(s.search_with_assumptions(&[lit(1), lit(-2)]), SearchResult::Sat);
        let m = s.model();
        assert!(m[0] && !m[1]);
    }

    #[test]
    fn failed_assumptions_form_a_core() {
        // x1 -> x2, x2 -> x3: assuming x1 and ~x3 is unsat; x2-related assumptions are
        // irrelevant and must not appear in the core.
        let mut s = Solver::new(4, SatConfig::default());
        assert!(s.add_clause(&[lit(-1), lit(2)]));
        assert!(s.add_clause(&[lit(-2), lit(3)]));
        assert_eq!(s.search_with_assumptions(&[lit(4), lit(1), lit(-3)]), SearchResult::Unsat);
        let core: Vec<Lit> = s.failed_assumptions().to_vec();
        assert!(core.contains(&lit(1)), "{core:?}");
        assert!(core.contains(&lit(-3)), "{core:?}");
        assert!(!core.contains(&lit(4)), "irrelevant assumption in core: {core:?}");
        // Without the contradictory assumptions the formula is satisfiable again.
        assert_eq!(s.search_with_assumptions(&[lit(4)]), SearchResult::Sat);
    }

    #[test]
    fn contradictory_assumption_pair_is_its_own_core() {
        let mut s = Solver::new(3, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2), lit(3)]));
        assert_eq!(s.search_with_assumptions(&[lit(2), lit(-2)]), SearchResult::Unsat);
        let core = s.failed_assumptions();
        assert!(core.contains(&lit(2)) && core.contains(&lit(-2)), "{core:?}");
    }

    #[test]
    fn root_unsat_yields_an_empty_core() {
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1)]));
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.search_with_assumptions(&[lit(2)]), SearchResult::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn assumptions_with_linear_constraints() {
        // exactly-one over x1..x3; assuming x1 and x2 must fail with both in the core.
        let mut s = Solver::new(3, SatConfig::default());
        s.add_linear(&LinearSpec::cardinality(None, vec![lit(1), lit(2), lit(3)], 1, 1));
        assert_eq!(s.search_with_assumptions(&[lit(1), lit(2)]), SearchResult::Unsat);
        let core = s.failed_assumptions();
        assert!(core.contains(&lit(1)) && core.contains(&lit(2)), "{core:?}");
        assert_eq!(s.search_with_assumptions(&[lit(2)]), SearchResult::Sat);
        assert!(s.model()[1]);
    }

    #[test]
    fn clause_arena_canonicalizes_truncates_and_compacts() {
        let mut arena = ClauseArena::new();
        assert!(arena.push_canonical([lit(3), lit(1), lit(3)]));
        assert!(!arena.push_canonical([lit(2), lit(-2)]), "tautology kept");
        assert_eq!(arena.push(&[lit(-4), lit(2)]), 1);
        assert!(arena.push_canonical([]));
        arena.push_iter([lit(5), lit(-1)]);
        let clauses: Vec<&[Lit]> = arena.iter().collect();
        assert_eq!(clauses, [&[lit(1), lit(3)][..], &[lit(-4), lit(2)], &[], &[lit(5), lit(-1)]]);
        arena.retain(|ci| ci != 1);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.num_lits(), 4);
        assert_eq!(&arena[2], &[lit(5), lit(-1)]);
        arena.truncate(1);
        assert_eq!(arena.num_lits(), 2);
        assert_eq!(arena.iter().collect::<Vec<_>>(), [&[lit(1), lit(3)][..]]);
    }

    /// Buffer slots of `lists` that no segment owns.
    fn dead_space(lists: &Lists<u32>) -> usize {
        lists.data.len() - lists.segs.iter().map(|s| s.cap as usize).sum::<usize>()
    }

    /// Check `lists` against a `Vec` per list: every list's entries in order,
    /// segments disjoint and inside the buffer, and dead space at most half of it.
    fn assert_lists_match(lists: &Lists<u32>, oracle: &[Vec<u32>]) {
        for (list, entries) in oracle.iter().enumerate() {
            assert_eq!(lists.slice(list), &entries[..], "entries of list {list}");
        }
        let mut owned: Vec<(u32, u32)> =
            lists.segs.iter().filter(|s| s.cap > 0).map(|s| (s.start, s.start + s.cap)).collect();
        owned.sort_unstable();
        assert!(owned.windows(2).all(|w| w[0].1 <= w[1].0), "segments overlap: {owned:?}");
        assert!(owned.last().is_none_or(|&(_, end)| end as usize <= lists.data.len()));
        let dead = dead_space(lists);
        assert!(dead <= lists.data.len() / 2, "dead space {dead} of {}", lists.data.len());
    }

    #[test]
    fn flat_lists_match_a_vec_per_list() {
        let mut rng = StdRng::seed_from_u64(23);
        let (mut relocations, mut compactions) = (0, 0);
        for _ in 0..60 {
            let n = rng.gen_range(1..9);
            let mut lists = Lists::<u32>::new(n);
            let mut oracle: Vec<Vec<u32>> = vec![Vec::new(); n];
            for step in 0..400u32 {
                let list = rng.gen_range(0..n);
                let dead = dead_space(&lists);
                let len = oracle[list].len();
                match rng.gen_range(0..100) {
                    0..=59 => {
                        lists.push(list, step);
                        oracle[list].push(step);
                        relocations += usize::from(dead_space(&lists) > dead);
                    }
                    60..=79 if len > 0 => {
                        let i = rng.gen_range(0..len);
                        assert_eq!(lists.swap_remove(list, i), oracle[list].swap_remove(i));
                    }
                    80..=94 if len > 0 => {
                        let i = rng.gen_range(0..len);
                        lists.set(list, i, step);
                        oracle[list][i] = step;
                        assert_eq!(lists.get(list, i), step);
                    }
                    95..=96 => {
                        lists.clear_all();
                        oracle.iter_mut().for_each(Vec::clear);
                    }
                    97..=99 => {
                        // Pre-sized layout: a compaction in list order that gives
                        // every list its room at once; filling that room relocates
                        // nothing.
                        let room: Vec<usize> = (0..n).map(|_| rng.gen_range(0..6)).collect();
                        compactions += usize::from(dead > 0);
                        lists.lay_out(|l| room[l]);
                        assert_eq!(dead_space(&lists), 0);
                        assert_lists_match(&lists, &oracle);
                        let buffer = lists.data.len();
                        for (l, &r) in room.iter().enumerate() {
                            for k in 0..r as u32 {
                                lists.push(l, step + k);
                                oracle[l].push(step + k);
                            }
                        }
                        assert_eq!(lists.data.len(), buffer, "the room fell short");
                    }
                    _ => {}
                }
                assert_lists_match(&lists, &oracle);
            }
        }
        assert!(relocations > 0 && compactions > 0, "{relocations} relocations, {compactions}");
    }

    #[test]
    fn clause_cache_deduplicates() {
        let mut cache = ClauseCache::default();
        cache.add(&[lit(1), lit(2)]);
        cache.add(&[lit(2), lit(1)]); // same clause, different order
        cache.add(&[lit(1)]);
        cache.add(&[]); // ignored
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn trusted_load_matches_add_clause() {
        // The same canonical clause stream, loaded both ways, must produce solvers
        // with identical stored clauses and identical level-0 assignments.
        let clauses: Vec<Vec<Lit>> = vec![
            vec![lit(1), lit(2)],
            vec![lit(-1), lit(3)],
            vec![lit(-2), lit(-3), lit(4)],
            vec![lit(5)],
            vec![lit(-5), lit(2)],
        ];
        let canonical: Vec<Vec<Lit>> = clauses
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        let mut a = Solver::new(5, SatConfig::default());
        for c in &canonical {
            assert!(a.add_clause(c));
        }
        let mut b = Solver::new(5, SatConfig::default());
        assert!(b.load_trusted_clauses(canonical.iter().map(|c| c.as_slice())));
        assert_eq!(a.clauses, b.clauses);
        assert_eq!(a.assignment.len(), b.assignment.len());
        for v in 0..5 {
            assert_eq!(a.assignment[v], b.assignment[v], "level-0 assignment of x{v}");
        }
        assert_eq!(a.search(), SearchResult::Sat);
        assert_eq!(b.search(), SearchResult::Sat);
        assert_eq!(a.model(), b.model());
    }

    #[test]
    fn trusted_load_detects_root_conflict() {
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.load_trusted_clauses([&[lit(1)][..]]));
        assert!(!s.load_trusted_clauses([&[lit(-1)][..]]));
        assert_eq!(s.search(), SearchResult::Unsat);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical-form contract")]
    fn trusted_load_catches_corrupted_clause_in_debug() {
        // An unsorted (corrupted) clause must trip the debug validation assert —
        // the backstop for bit flips in clauses transferred via a shared store.
        let mut s = Solver::new(3, SatConfig::default());
        s.load_trusted_clauses([&[lit(3), lit(1)][..]]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical-form contract")]
    fn trusted_load_catches_out_of_range_variable_in_debug() {
        let mut s = Solver::new(2, SatConfig::default());
        s.load_trusted_clauses([&[lit(1), lit(7)][..]]);
    }

    #[test]
    fn expired_budget_interrupts_the_search() {
        use std::sync::Arc;
        // An armed budget interrupts before any verdict; clearing it restores the
        // solver.
        let mut s = Solver::new(2, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        let budget = Arc::new(SolveBudgetState::new(None));
        budget.arm();
        s.set_budget(Some(budget));
        assert_eq!(s.search(), SearchResult::Interrupted);
        s.set_budget(None);
        assert_eq!(s.search(), SearchResult::Sat);
    }

    #[test]
    fn conflict_limit_arms_the_budget() {
        use std::sync::Arc;
        // An unsatisfiable pigeonhole-style core needs conflicts to refute; a
        // one-conflict ceiling interrupts the proof instead.
        let mut s = Solver::new(4, SatConfig::default());
        assert!(s.add_clause(&[lit(1), lit(2)]));
        assert!(s.add_clause(&[lit(1), lit(-2)]));
        assert!(s.add_clause(&[lit(-1), lit(3)]));
        assert!(s.add_clause(&[lit(-1), lit(-3)]));
        let budget = Arc::new(SolveBudgetState::new(Some(1)));
        s.set_budget(Some(budget.clone()));
        assert_eq!(s.search(), SearchResult::Interrupted);
        assert!(budget.expired());
        assert!(budget.conflicts() >= 1);
    }

    #[test]
    fn clause_cache_drops_tautologies() {
        let mut cache = ClauseCache::default();
        cache.add(&[lit(1), lit(-1)]); // tautology: not canonical, must not be shelved
        cache.add(&[lit(1), lit(2)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_store_transfers_and_counts() {
        let store = SharedClauseStore::new();
        let mut cache = ClauseCache::default();
        cache.add(&[lit(1), lit(2)]);
        cache.add(&[lit(-2), lit(3)]);
        store.publish(7, &cache);
        store.publish(7, &cache); // idempotent: deduplicated against the shelf

        let mut warm = ClauseCache::default();
        assert_eq!(store.fetch_into(7, &mut warm), 2);
        assert_eq!(warm.len(), 2);
        // Fetching into a warm cache deduplicates instead of double-counting.
        assert_eq!(store.fetch_into(7, &mut warm), 0);
        // An unknown key is a miss.
        let mut other = ClauseCache::default();
        assert_eq!(store.fetch_into(99, &mut other), 0);
        assert!(other.is_empty());

        assert_eq!(store.hits(), 2);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.transferred(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical-form contract")]
    fn corrupted_store_clause_is_caught_on_trusted_load() {
        // Mutation-style soundness check: corrupt a shelved clause behind the store's
        // back; the fetch hands it through raw and the trusted-load assert fires.
        let store = SharedClauseStore::new();
        store.inject_raw_for_tests(1, vec![lit(2), lit(2), lit(1)]);
        let mut warm = ClauseCache::default();
        store.fetch_into(1, &mut warm);
        let mut s = Solver::new(3, SatConfig::default());
        s.load_trusted_clauses(warm.clauses());
    }

    #[test]
    fn heap_orders_by_activity_after_a_rescale() {
        // Distinct activities, then one bump that crosses the rescale threshold: every
        // activity shrinks by 1e-100 and the bumped variable now leads by far. The
        // decision heap must pop variables in non-increasing activity order.
        let n = 8;
        let mut s = Solver::new(n, SatConfig::default());
        for v in 0..n as Var {
            s.bump_variable(v, f64::from(v));
        }
        s.var_inc = 2e100;
        s.bump(3);
        assert!(s.activity[7] < 1e-90, "the bump must rescale every activity");
        let mut order = Vec::new();
        while let Some(v) = s.pick_branch_variable() {
            order.push(v);
            s.enqueue(Lit::pos(v), Reason::Decision);
        }
        assert_eq!(order.len(), n);
        assert_eq!(order[0], 3, "the bumped variable has the highest activity");
        let activities: Vec<f64> = order.iter().map(|&v| s.activity[v as usize]).collect();
        assert!(activities.windows(2).all(|w| w[0] >= w[1]), "{order:?}: {activities:?}");
    }

    fn random_lit(rng: &mut StdRng, n: usize) -> Lit {
        let v = rng.gen_range(0..n) as Var;
        if rng.gen_bool(0.5) {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// A random CNF over `n` variables, mostly binary clauses (the shape of Clark
    /// completion), with some ternary clauses and units.
    fn random_binary_heavy_cnf(rng: &mut StdRng, n: usize) -> Vec<Vec<Lit>> {
        let clauses = rng.gen_range(n..3 * n + 1);
        (0..clauses)
            .map(|_| {
                let len = match rng.gen_range(0..20) {
                    0 => 1,
                    1..=6 => 3,
                    _ => 2,
                };
                (0..len).map(|_| random_lit(rng, n)).collect()
            })
            .collect()
    }

    /// The number of assignments of `n` variables that satisfy every clause and every
    /// unit.
    fn brute_force_models(n: usize, clauses: &[Vec<Lit>], units: &[Lit]) -> usize {
        let holds = |bits: u32, l: &Lit| (bits >> l.var() & 1 == 1) == l.is_pos();
        (0..1u32 << n)
            .filter(|&bits| {
                units.iter().all(|l| holds(bits, l))
                    && clauses.iter().all(|c| c.iter().any(|l| holds(bits, l)))
            })
            .count()
    }

    /// Check the solver against exhaustive enumeration on random binary-heavy
    /// formulas: the verdict and model of plain searches and of searches under random
    /// assumptions, the unsat core of every failed one, and finally the number of
    /// models found by blocking each model until the formula is refuted. Returns the
    /// number of learned clauses the reduction policy deleted over all instances.
    fn check_against_brute_force(config: &SatConfig, seed: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deleted = 0;
        for _ in 0..300 {
            let n = rng.gen_range(1..13);
            let clauses = random_binary_heavy_cnf(&mut rng, n);
            let models = brute_force_models(n, &clauses, &[]);
            let mut s = Solver::new(n, config.clone());
            let added = clauses.iter().all(|c| s.add_clause(c));
            assert!(added || models == 0, "a satisfiable formula was refuted while loading");
            for round in 0..8 {
                let k = if round == 0 { 0 } else { rng.gen_range(1..5) };
                let assumptions: Vec<Lit> = (0..k).map(|_| random_lit(&mut rng, n)).collect();
                let expected = brute_force_models(n, &clauses, &assumptions) > 0;
                match s.search_with_assumptions(&assumptions) {
                    SearchResult::Sat => {
                        assert!(expected, "SAT claimed for an unsatisfiable case: {clauses:?}");
                        let m = s.model();
                        let holds = |l: &Lit| m[l.var() as usize] == l.is_pos();
                        assert!(clauses.iter().all(|c| c.iter().any(holds)), "bad model");
                        assert!(assumptions.iter().all(holds), "model breaks an assumption");
                    }
                    SearchResult::Unsat => {
                        assert!(!expected, "UNSAT claimed for a satisfiable case: {clauses:?}");
                        let core = s.failed_assumptions();
                        assert!(core.iter().all(|l| assumptions.contains(l)), "{core:?}");
                        assert_eq!(brute_force_models(n, &clauses, core), 0, "SAT core {core:?}");
                    }
                    SearchResult::Interrupted => unreachable!("no solve budget installed"),
                }
            }
            // Enumerate: every model satisfies the formula, and blocking each one in
            // turn finds exactly as many as there are.
            let mut found = 0;
            while s.search() == SearchResult::Sat {
                found += 1;
                assert!(found <= models, "more models than exist: {clauses:?}");
                let m = s.model();
                assert!(clauses
                    .iter()
                    .all(|c| c.iter().any(|l| m[l.var() as usize] == l.is_pos())));
                let blocking: Vec<Lit> = (0..n as Var)
                    .map(|v| if m[v as usize] { Lit::neg(v) } else { Lit::pos(v) })
                    .collect();
                if !s.add_clause(&blocking) {
                    break;
                }
            }
            assert_eq!(found, models, "models enumerated vs brute force: {clauses:?}");
            deleted += s.stats.deleted;
        }
        deleted
    }

    #[test]
    fn binary_heavy_formulas_agree_with_brute_force() {
        check_against_brute_force(&SatConfig::default(), 11);
    }

    #[test]
    fn binary_heavy_formulas_agree_with_brute_force_under_reduction() {
        // A learned-clause cap of 1 and a restart after every conflict make
        // `reduce_learned` compact the arena, clear every watch list and rebuild the
        // binary watches in the middle of a search, from the first restarts on. The
        // cap then grows 1, 2, 3, 4, 6, 9, ..., so reduction keeps firing, ever less
        // often.
        let config = SatConfig { learned_limit: 1, restart_base: 1, ..SatConfig::default() };
        let deleted = check_against_brute_force(&config, 12);
        assert!(deleted > 0, "the reduction policy must have fired");
    }

    #[test]
    fn phase_saving_respects_config() {
        let mut s = Solver::new(
            5,
            SatConfig { default_phase: true, random_polarity: 0.0, ..SatConfig::default() },
        );
        assert_eq!(s.search(), SearchResult::Sat);
        assert!(s.model().iter().all(|&b| b), "default phase true => all-true model");
        let mut s = Solver::new(
            5,
            SatConfig { default_phase: false, random_polarity: 0.0, ..SatConfig::default() },
        );
        assert_eq!(s.search(), SearchResult::Sat);
        assert!(s.model().iter().all(|&b| !b));
    }
}
