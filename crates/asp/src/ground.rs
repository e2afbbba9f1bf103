//! The grounder: instantiates a first-order program into a propositional (ground) one.
//!
//! This is the `gringo` analogue of the reproduction. Grounding proceeds in two phases:
//!
//! 1. **Possible-atom fixpoint.** Starting from the input facts, rules are instantiated
//!    over positive body literals only (an over-approximation that ignores negation),
//!    semi-naively, until no new head atoms appear. This discovers every atom that could
//!    possibly be true in a stable model.
//! 2. **Rule instantiation.** With the possible-atom set fixed, every rule is instantiated
//!    once more and simplified exactly as the paper describes for gringo (Fig. 3): body
//!    literals on input facts are dropped, negative literals on impossible atoms are
//!    dropped, instances contradicted by facts are discarded.
//!
//! The dialect restrictions (documented in the crate root) are: conditions of conditional
//! literals and of choice elements must be input facts, and every rule must be *safe*
//! (every variable appears in a positive, non-conditional body literal, or in the
//! conditions of its own conditional element).
//!
//! # Hot-path engineering
//!
//! Grounding time is dominated by joining the positive body literals of every rule
//! against the atom database, so this module mirrors the engineering gringo applies to
//! the same problem:
//!
//! * **Join planning.** Body literals are not joined in textual order. At every join
//!   depth the planner picks the *most selective* remaining literal — the one with the
//!   fewest candidate atoms under the bindings accumulated so far — re-evaluated per
//!   partial substitution (sideways information passing). Selectivity is measured
//!   directly as candidate-list length after index selection, which subsumes the
//!   "bound-argument count first" heuristic: more bound arguments select sharper
//!   indexes and hence shorter lists (see `best_key` and `Grounder::join_ordered`).
//! * **Index-driven candidate lists.** Every lookup goes through the
//!   [`crate::symbols::AtomTable`] indexes (predicate / one bound argument /
//!   two bound arguments); candidate lists are iterated in place — the join never
//!   copies them and never clones atoms. Index lists are append-only, so interning new
//!   head atoms mid-join is safe: the iteration snapshots the length and re-fetches
//!   the slice (see `key_slice`).
//! * **Semi-naive delta evaluation.** After the first fixpoint round, a rule is
//!   re-instantiated only *once per delta occurrence*: for each body literal whose
//!   predicate gained atoms in the previous round, each new atom is matched against
//!   that literal and only the remaining literals are joined. Literals left of the
//!   delta literal are restricted to *old* atoms, which makes every derivation happen
//!   exactly once. The delta membership test is a persistent bitset
//!   (`AtomBitSet`) cleared incrementally — no per-round O(atoms) rebuild.
//! * **Nothing per request that does not depend on the request.** A session
//!   request's atom table is a view of the frozen base's ([`AtomTable::view`]), not a
//!   copy, and indexes only the predicates its joins probe; minimize tuple keys are
//!   ranked once per freeze ([`BaseProgram`]), so a request groups its conditions by
//!   sorting integers. The auxiliary `__opt_tuple` atoms, made after the last join,
//!   are never indexed, in one-shot groundings too.
//!
//! # Memory layout
//!
//! A ground program is flat, like a solver's clauses. [`GroundProgram::rules`] is a
//! [`Rules`]: every rule's positive and negative body lie back to back in one
//! `Vec<AtomId>`, and each rule is a fixed-size row of its head (a sentinel for a
//! constraint), where its body starts and the two lengths. [`Choices`] does the same
//! for choice rules, with the heads first and the bounds in the row. Readers get
//! [`GroundRule`] and [`GroundChoice`] views whose bodies are slices of that buffer.
//!
//! * Emitting a rule (a simplified instance, a frozen record re-simplified for a
//!   session request, a minimize auxiliary rule) appends to the buffer and allocates
//!   nothing of its own, and the deduplication index compares against the buffer.
//! * A grounding of thousands of rules therefore makes a handful of allocations for
//!   them, and dropping it frees them at once.
//! * [`crate::translate`] keys shared bodies by these slices, so translation copies
//!   no body either.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ast::{ArithOp, Atom, BodyElem, ChoiceElement, CmpOp, Head, Literal, Program, Term};
use crate::hasher::FxHashMap;
use crate::symbols::{AtomId, AtomTable, GroundAtom, SymbolId, SymbolTable, Val};

/// Upper bound on atom arity, so the join can keep its binding-undo buffer in a
/// fixed-size stack array instead of allocating per candidate.
const MAX_ARITY: usize = 16;

/// A growable bitset over atom ids: the persistent delta marker of the semi-naive
/// fixpoint. It is allocated once, grown as atoms are interned, and cleared
/// *incrementally* (only the bits set in the previous round), so no round pays an
/// O(total atoms) rebuild.
#[derive(Debug, Default)]
struct AtomBitSet {
    words: Vec<u64>,
}

impl AtomBitSet {
    /// Ensure capacity for `n_atoms` ids.
    fn grow(&mut self, n_atoms: usize) {
        let words = n_atoms.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    fn set(&mut self, id: AtomId) {
        self.words[id as usize / 64] |= 1u64 << (id % 64);
    }

    fn clear(&mut self, id: AtomId) {
        self.words[id as usize / 64] &= !(1u64 << (id % 64));
    }

    fn contains(&self, id: AtomId) -> bool {
        self.words.get(id as usize / 64).is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }
}

/// An error produced during grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for GroundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grounding error: {}", self.message)
    }
}

impl std::error::Error for GroundError {}

/// A ground normal rule or integrity constraint: a view of one row of [`Rules`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroundRule<'a> {
    /// Head atom; `None` for integrity constraints.
    pub head: Option<AtomId>,
    /// Positive body atoms.
    pub pos: &'a [AtomId],
    /// Negative body atoms (`not a`).
    pub neg: &'a [AtomId],
}

/// A ground choice rule with optional cardinality bounds: a view of one row of
/// [`Choices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundChoice<'a> {
    /// The choosable head atoms.
    pub heads: &'a [AtomId],
    /// Lower cardinality bound.
    pub lower: Option<i64>,
    /// Upper cardinality bound.
    pub upper: Option<i64>,
    /// Positive body atoms.
    pub pos: &'a [AtomId],
    /// Negative body atoms.
    pub neg: &'a [AtomId],
}

/// The head of a constraint's row in [`Rules`]: no atom.
const NO_HEAD: AtomId = AtomId::MAX;

/// Append `parts` to a body buffer; returns where they start. The buffer is indexed
/// by `u32`, so it must stay below `u32::MAX` atoms.
fn push_body<const N: usize>(atoms: &mut Vec<AtomId>, parts: [&[AtomId]; N]) -> u32 {
    let start = atoms.len();
    let len: usize = parts.iter().map(|p| p.len()).sum();
    assert!(start + len < u32::MAX as usize, "ground program body buffer overflows u32");
    for part in parts {
        atoms.extend_from_slice(part);
    }
    start as u32
}

/// One rule of [`Rules`]: its head ([`NO_HEAD`] for a constraint) and where its
/// positive body, then its negative body, lie in the shared buffer.
#[derive(Debug, Clone, Copy)]
struct RuleRow {
    head: AtomId,
    start: u32,
    npos: u32,
    nneg: u32,
}

/// The ground rules and integrity constraints of a program, in emission order. Every
/// body lives in one buffer, so a program makes a few allocations however many rules
/// it holds; [`Rules::get`] and iteration hand out [`GroundRule`] views into it.
#[derive(Debug, Clone, Default)]
pub struct Rules {
    atoms: Vec<AtomId>,
    rows: Vec<RuleRow>,
}

impl Rules {
    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rule at index `i`. Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> GroundRule<'_> {
        self.view(&self.rows[i])
    }

    /// The rules in emission order.
    pub fn iter(&self) -> RulesIter<'_> {
        RulesIter { rules: self, rows: self.rows.iter() }
    }

    fn view(&self, row: &RuleRow) -> GroundRule<'_> {
        let (start, npos) = (row.start as usize, row.npos as usize);
        let (pos, rest) = self.atoms[start..start + npos + row.nneg as usize].split_at(npos);
        let head = (row.head != NO_HEAD).then_some(row.head);
        GroundRule { head, pos, neg: rest }
    }

    fn push(&mut self, rule: GroundRule<'_>) {
        let head = rule.head.unwrap_or(NO_HEAD);
        debug_assert_ne!(rule.head, Some(NO_HEAD), "atom id reserved for constraints");
        let start = push_body(&mut self.atoms, [rule.pos, rule.neg]);
        let (npos, nneg) = (rule.pos.len() as u32, rule.neg.len() as u32);
        self.rows.push(RuleRow { head, start, npos, nneg });
    }
}

/// Iterator over the [`GroundRule`] views of a [`Rules`].
#[derive(Debug, Clone)]
pub struct RulesIter<'a> {
    rules: &'a Rules,
    rows: std::slice::Iter<'a, RuleRow>,
}

impl<'a> Iterator for RulesIter<'a> {
    type Item = GroundRule<'a>;

    fn next(&mut self) -> Option<GroundRule<'a>> {
        self.rows.next().map(|row| self.rules.view(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for RulesIter<'_> {}

impl<'a> IntoIterator for &'a Rules {
    type Item = GroundRule<'a>;
    type IntoIter = RulesIter<'a>;

    fn into_iter(self) -> RulesIter<'a> {
        self.iter()
    }
}

/// One choice rule of [`Choices`]: its bounds and where its heads, positive body and
/// negative body lie, in that order, in the shared buffer.
#[derive(Debug, Clone, Copy)]
struct ChoiceRow {
    start: u32,
    nheads: u32,
    npos: u32,
    nneg: u32,
    lower: Option<i64>,
    upper: Option<i64>,
}

/// The ground choice rules of a program, in emission order, laid out like [`Rules`]:
/// heads and bodies in one buffer, handed out as [`GroundChoice`] views.
#[derive(Debug, Clone, Default)]
pub struct Choices {
    atoms: Vec<AtomId>,
    rows: Vec<ChoiceRow>,
}

impl Choices {
    /// Number of choice rules.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no choice rules.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The choice rule at index `i`. Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> GroundChoice<'_> {
        self.view(&self.rows[i])
    }

    /// The choice rules in emission order.
    pub fn iter(&self) -> ChoicesIter<'_> {
        ChoicesIter { choices: self, rows: self.rows.iter() }
    }

    fn view(&self, row: &ChoiceRow) -> GroundChoice<'_> {
        let start = row.start as usize;
        let (nheads, npos) = (row.nheads as usize, row.npos as usize);
        let all = &self.atoms[start..start + nheads + npos + row.nneg as usize];
        let (heads, rest) = all.split_at(nheads);
        let (pos, neg) = rest.split_at(npos);
        GroundChoice { heads, lower: row.lower, upper: row.upper, pos, neg }
    }

    fn push(&mut self, choice: GroundChoice<'_>) {
        let start = push_body(&mut self.atoms, [choice.heads, choice.pos, choice.neg]);
        self.rows.push(ChoiceRow {
            start,
            nheads: choice.heads.len() as u32,
            npos: choice.pos.len() as u32,
            nneg: choice.neg.len() as u32,
            lower: choice.lower,
            upper: choice.upper,
        });
    }
}

/// Iterator over the [`GroundChoice`] views of a [`Choices`].
#[derive(Debug, Clone)]
pub struct ChoicesIter<'a> {
    choices: &'a Choices,
    rows: std::slice::Iter<'a, ChoiceRow>,
}

impl<'a> Iterator for ChoicesIter<'a> {
    type Item = GroundChoice<'a>;

    fn next(&mut self) -> Option<GroundChoice<'a>> {
        self.rows.next().map(|row| self.choices.view(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for ChoicesIter<'_> {}

impl<'a> IntoIterator for &'a Choices {
    type Item = GroundChoice<'a>;
    type IntoIter = ChoicesIter<'a>;

    fn into_iter(self) -> ChoicesIter<'a> {
        self.iter()
    }
}

/// Deduplication index for ground rules: maps a rule's hash to the index of the first
/// rule emitted with that hash (further rules sharing the hash — genuine collisions —
/// in `more`), comparing in full only on a hash match. The emitted [`Rules`] are the
/// only copy of a rule, so this allocates nothing per rule.
#[derive(Debug, Default)]
struct RuleDedup {
    first: FxHashMap<u64, u32>,
    more: FxHashMap<u64, Vec<u32>>,
}

impl RuleDedup {
    /// Append `rule` to `rules` unless an identical rule was already emitted. Rules
    /// are equal when their heads, positive bodies and negative bodies are.
    fn push_if_new(&mut self, rule: GroundRule<'_>, rules: &mut Rules) {
        use std::collections::hash_map::Entry;
        use std::hash::{Hash, Hasher};
        let mut hasher = crate::hasher::FxHasher::default();
        rule.hash(&mut hasher);
        let hash = hasher.finish();
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(rules.len() as u32);
            }
            Entry::Occupied(slot) => {
                if rules.get(*slot.get() as usize) == rule {
                    return;
                }
                let more = self.more.entry(hash).or_default();
                if more.iter().any(|&i| rules.get(i as usize) == rule) {
                    return;
                }
                more.push(rules.len() as u32);
            }
        }
        rules.push(rule);
    }
}

/// One ground minimize entry: `weight@priority` is paid whenever `condition` is true
/// (`condition == None` means the weight is always paid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundMinimize {
    /// Priority level (higher = more significant).
    pub priority: i64,
    /// Weight contributed at that level.
    pub weight: i64,
    /// The atom whose truth triggers the weight, if any.
    pub condition: Option<AtomId>,
}

/// Statistics describing the grounding step.
#[derive(Debug, Clone, Default)]
pub struct GroundStats {
    /// Number of possible atoms discovered.
    pub atoms: usize,
    /// Number of ground normal rules / constraints.
    pub rules: usize,
    /// Number of ground choice rules.
    pub choices: usize,
    /// Number of ground minimize entries.
    pub minimize: usize,
    /// Number of fixpoint rounds in phase 1.
    pub rounds: usize,
    /// Wall-clock time spent in phase 1 (possible-atom fixpoint).
    pub phase1: Duration,
    /// Wall-clock time spent in phase 2 (rule instantiation + minimize).
    pub phase2: Duration,
    /// Wall-clock time spent grounding.
    pub duration: Duration,
    /// True when this grounding was derived incrementally from a frozen
    /// [`BaseProgram`] (multi-shot sessions): phase 1 continued semi-naively from the
    /// request's delta facts and only touched rules were re-instantiated.
    pub delta: bool,
    /// Frozen base instances re-simplified into this grounding instead of being
    /// re-instantiated (delta groundings only).
    pub reused_rules: usize,
    /// Rules re-instantiated because a delta atom touched one of their literals
    /// (delta groundings only).
    pub delta_rules: usize,
    /// Where a delta grounding's time went (zero for other groundings).
    pub split: DeltaSplit,
}

/// The stages of a delta grounding ([`Grounder::ground_delta`]), timed. They add up to
/// [`GroundStats::duration`]: `restrict + continuation` is its phase 1, `phase2 +
/// minimize` its phase 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaSplit {
    /// Restricting the frozen base to the atoms the request keeps.
    pub restrict: Duration,
    /// Continuing the phase-1 fixpoint from the request's facts.
    pub continuation: Duration,
    /// Re-instantiating touched rules and re-simplifying frozen instances.
    pub phase2: Duration,
    /// Grounding, simplifying and emitting minimize conditions.
    pub minimize: Duration,
}

impl std::ops::AddAssign for DeltaSplit {
    fn add_assign(&mut self, other: DeltaSplit) {
        self.restrict += other.restrict;
        self.continuation += other.continuation;
        self.phase2 += other.phase2;
        self.minimize += other.minimize;
    }
}

/// Statistics of one in-place base patch ([`Grounder::patch_base`]).
#[derive(Debug, Clone, Default)]
pub struct PatchStats {
    /// Distinct input facts present after the patch but not before.
    pub added_facts: usize,
    /// Distinct input facts present before the patch but not after.
    pub removed_facts: usize,
    /// Possible atoms before the patch.
    pub atoms_before: usize,
    /// Possible atoms after the patch.
    pub atoms_after: usize,
    /// Possible atoms the patch added to the closure.
    pub atoms_added: usize,
    /// Possible atoms the patch retracted from the closure (rebuild path only).
    pub atoms_removed: usize,
    /// Source rules re-instantiated because the delta touched them.
    pub rules_reinstantiated: usize,
    /// Frozen instances (rules + choices) kept without re-instantiation.
    pub rules_reused: usize,
    /// True when a removed fact forced the closure to be rebuilt from scratch;
    /// false for the cheaper additions-only semi-naive continuation.
    pub rebuilt: bool,
    /// Wall-clock time of the patch.
    pub duration: Duration,
}

/// The ground (propositional) program.
#[derive(Debug, Clone, Default)]
pub struct GroundProgram {
    /// Table of all possible atoms.
    pub atoms: crate::symbols::AtomTable,
    /// Ground rules and integrity constraints.
    pub rules: Rules,
    /// Ground choice rules.
    pub choices: Choices,
    /// Ground minimize entries.
    pub minimize: Vec<GroundMinimize>,
    /// True when grounding already proved the program unsatisfiable (a constraint with an
    /// empty body was derived).
    pub trivially_unsat: bool,
    /// Grounding statistics.
    pub stats: GroundStats,
    /// [`GroundProgram::is_tight`], decided on first use.
    tight: std::sync::OnceLock<bool>,
}

impl GroundProgram {
    /// Is the program tight (no positive loop among its non-fact atoms, see
    /// [`crate::stable::is_tight`])? Decided by one linear pass on the first call and
    /// kept, so every solve on this grounding shares the answer; the program must not
    /// change after the first call.
    pub fn is_tight(&self) -> bool {
        *self.tight.get_or_init(|| crate::stable::is_tight(self))
    }
}

/// A literal's *delta signature*: the predicate plus the first argument when it is a
/// constant. This is the granularity at which delta grounding decides whether a new
/// atom can affect a rule — coarse enough to be a couple of hash probes per literal,
/// fine enough to tell `attr3("version", ..)` apart from `attr3("depends_on", ..)` in
/// programs (like the concretizer's) that discriminate one wide predicate by its first
/// argument.
#[derive(Debug, Clone, Copy)]
struct SigLit {
    pred: SymbolId,
    arg0: Option<Val>,
}

fn atom_sig(atom: &CAtom) -> SigLit {
    let arg0 = match atom.args.first() {
        Some(CTerm::Val(v)) => Some(*v),
        _ => None,
    };
    SigLit { pred: atom.pred, arg0 }
}

/// Every literal of a rule whose matched atoms (or their certainty) can change the
/// rule's ground instances: positive and negative body literals, conditional literals
/// (the atom and its conditions), and choice elements (the atom and its conditions).
/// Head atoms of normal rules are deliberately absent: a rule derives new head atoms
/// only when its body matches a delta atom, and a frozen record whose head turns
/// certain is dropped when it is simplified against the request's view.
fn rule_signature(rule: &CRule) -> Vec<SigLit> {
    let mut sigs = Vec::new();
    sigs.extend(rule.pos.iter().map(atom_sig));
    sigs.extend(rule.neg.iter().map(atom_sig));
    for cond in &rule.conds {
        sigs.push(atom_sig(&cond.atom));
        sigs.extend(cond.conditions.iter().map(atom_sig));
    }
    if let CHead::Choice { elements, .. } = &rule.head {
        for elem in elements {
            sigs.push(atom_sig(&elem.atom));
            sigs.extend(elem.conditions.iter().map(atom_sig));
        }
    }
    sigs
}

/// The subset of a rule's signature that participates in *phase-1 head derivation*
/// beyond the positive body: choice-element conditions. (Negative literals and the
/// conditions of body conditional literals are ignored by the phase-1
/// over-approximation, so they cannot gate which atoms become possible.)
fn rule_phase1_condition_signature(rule: &CRule) -> Vec<SigLit> {
    let mut sigs = Vec::new();
    if let CHead::Choice { elements, .. } = &rule.head {
        for elem in elements {
            sigs.extend(elem.conditions.iter().map(atom_sig));
        }
    }
    sigs
}

fn minimize_signature(m: &CMinimize) -> Vec<SigLit> {
    m.pos.iter().chain(m.neg.iter()).map(atom_sig).collect()
}

/// The set of `(predicate, first-argument)` discriminators touched by a delta
/// grounding's new (or newly-certain) atoms. A literal whose first argument is a
/// constant matches only its exact key; any other literal shape falls back to the
/// predicate-level set.
#[derive(Debug, Default)]
struct TouchSet {
    preds: crate::hasher::FxHashSet<SymbolId>,
    keys: crate::hasher::FxHashSet<(SymbolId, Val)>,
}

impl TouchSet {
    fn touch(&mut self, atom: &GroundAtom) {
        self.preds.insert(atom.pred);
        if let Some(&v) = atom.args.first() {
            self.keys.insert((atom.pred, v));
        }
    }

    fn clear(&mut self) {
        self.preds.clear();
        self.keys.clear();
    }

    fn absorb(&mut self, other: &TouchSet) {
        self.preds.extend(other.preds.iter().copied());
        self.keys.extend(other.keys.iter().copied());
    }

    fn matches(&self, sig: &SigLit) -> bool {
        match sig.arg0 {
            Some(v) => self.keys.contains(&(sig.pred, v)),
            None => self.preds.contains(&sig.pred),
        }
    }

    fn matches_any(&self, sigs: &[SigLit]) -> bool {
        sigs.iter().any(|s| self.matches(s))
    }
}

/// Everything compiled once from a program's text: the rules and minimize statements
/// plus the per-rule delta signatures. Owned by a [`BaseProgram`] so per-request delta
/// groundings never re-parse or re-compile.
#[derive(Debug)]
pub struct CompiledProgram {
    crules: Vec<CRule>,
    cminimize: Vec<CMinimize>,
    /// Parallel to `crules`: the full literal signature (phase-2 affectedness).
    rule_sigs: Vec<Vec<SigLit>>,
    /// Parallel to `crules`: choice-element condition signatures (phase-1 re-joins).
    rule_p1_sigs: Vec<Vec<SigLit>>,
    /// Parallel to `cminimize`.
    minimize_sigs: Vec<Vec<SigLit>>,
    /// The `#external` guard atoms of the program text, in declaration order —
    /// replayed by [`Grounder::patch_base`] when it rebuilds the closure in the
    /// exact interning order of a fresh freeze.
    externals: Vec<GroundAtom>,
    /// Ground facts from the program text (`node("hdf5").`), in source order —
    /// replayed together with `externals` on the rebuild path.
    text_facts: Vec<GroundAtom>,
    /// The predicate of the auxiliary minimize atoms (`__opt_tuple`), interned with
    /// the program so that a request's copy of a base's symbols already holds it.
    aux_pred: SymbolId,
}

impl CompiledProgram {
    fn is_choice(&self, rule: u32) -> bool {
        matches!(self.crules[rule as usize].head, CHead::Choice { .. })
    }
}

/// Sentinel atom id: no atom — a constraint's head, or a conditional-literal atom
/// that is not possible.
const NO_ATOM: AtomId = AtomId::MAX;
/// Sentinel for a conditional-literal atom that could not be instantiated: the
/// instance is discarded whenever that element's conditions hold.
const BAD_ATOM: AtomId = AtomId::MAX - 1;
/// Header bit of a negated conditional-literal element in a record body.
const NEGATED: u32 = 1 << 31;

/// A set of owner symbols, sorted and deduplicated. The empty set means *global*.
pub type OwnerSet = Box<[SymbolId]>;

/// Input facts, each emission under an owner set (see
/// [`crate::Control::set_fact_owners`]): a request that excludes an owner drops the
/// emissions naming it, and keeps a fact when any one of its emissions survives.
#[derive(Debug, Clone)]
pub struct Facts {
    /// The facts, one entry per emission (duplicates allowed).
    pub atoms: Vec<GroundAtom>,
    /// Parallel to `atoms`: the emission's index into `sets`.
    owners: Vec<u32>,
    /// Owner sets, each sorted; index 0 is the empty (global) set.
    sets: Vec<OwnerSet>,
    /// Interning index over `sets`.
    ids: FxHashMap<OwnerSet, u32>,
    /// The owner set of the facts pushed from now on.
    current: u32,
}

impl Default for Facts {
    fn default() -> Self {
        let sets = vec![OwnerSet::default()];
        let ids = sets.iter().map(|s| (s.clone(), 0)).collect();
        Facts { atoms: Vec::new(), owners: Vec::new(), sets, ids, current: 0 }
    }
}

impl Facts {
    /// Facts without owners: every emission is global.
    pub fn global(atoms: Vec<GroundAtom>) -> Self {
        Facts { owners: vec![0; atoms.len()], atoms, ..Facts::default() }
    }

    /// Emit the facts pushed from now on under `owners` (empty: global).
    pub fn set_owners(&mut self, mut owners: Vec<SymbolId>) {
        owners.sort_unstable();
        owners.dedup();
        let next = self.sets.len() as u32;
        self.current = *self.ids.entry(owners.as_slice().into()).or_insert(next);
        if self.current == next {
            self.sets.push(owners.into());
        }
    }

    /// Add one fact emission under the current owners.
    pub fn push(&mut self, atom: GroundAtom) {
        self.atoms.push(atom);
        self.owners.push(self.current);
    }
}

/// One frozen rule instance in full. The body in [`Frozen::arena`] keeps everything
/// phase 2 would simplify away against the whole base, because a request that
/// excludes part of the base simplifies it differently:
///
/// `npos pos.. nneg neg.. nconj (hdr cond.. atom).. nelem (n cond.. head)..`
///
/// — every matched positive atom (certain ones included), every possible candidate of
/// every negative literal, each conditional-literal element over certain conditions
/// (`hdr` = condition count, [`NEGATED`] bit; `atom` may be [`NO_ATOM`] or
/// [`BAD_ATOM`]), and the heads: each choice element over *possible* conditions
/// (those are the phase-1 derivations of the element atoms), or a normal rule's head
/// as one element without conditions (none for a constraint).
#[derive(Debug, Clone, Copy)]
struct Record {
    rule: u32,
    /// Choice rules: the index of the instance's bounds in [`Frozen::bounds`].
    bounds: u32,
    off: u32,
}

/// The frozen instances of a base: rule records and minimize conditions (a record
/// body without conditional literals and elements, keyed by statement and tuple),
/// over one arena.
#[derive(Debug, Default)]
struct Frozen {
    records: Vec<Record>,
    arena: Vec<u32>,
    bounds: Vec<(Option<i64>, Option<i64>)>,
    /// Minimize conditions: `(statement, key, arena offset)`. The key indexes `keys`.
    tuples: Vec<(u32, u32, u32)>,
    /// Tuple keys. After [`Frozen::rank_keys`] they are sorted and distinct, so a
    /// tuple's key index is its rank: the order its group is emitted in.
    keys: Vec<TupleKey>,
    /// While recording: the hash of each normal record → its index, so an instance
    /// recorded twice in full is kept once (see [`Frozen::push_record`]).
    seen: FxHashMap<u64, u32>,
}

/// Walk the record body starting at `body[0]`, calling `f(section, slots)` with the
/// index range of the positive atoms (section 0), of the negative candidates (1), of
/// each conditional-literal element's conditions and atom (2), and of each choice
/// element's conditions and head (3). Returns the body's length.
fn walk(body: &[u32], mut f: impl FnMut(u8, std::ops::Range<usize>)) -> usize {
    let mut i = 0;
    for section in 0..2 {
        let n = body[i] as usize;
        f(section, i + 1..i + 1 + n);
        i += 1 + n;
    }
    for section in 2..4 {
        let count = body[i];
        i += 1;
        for _ in 0..count {
            let n = (body[i] & !NEGATED) as usize;
            f(section, i + 1..i + 2 + n);
            i += 2 + n;
        }
    }
    i
}

impl Frozen {
    /// Record one instance. The positive and negative sections are sorted first, and
    /// a normal rule instance identical in full to one already recorded for the same
    /// rule is dropped: it simplifies identically in every view (a symmetric join,
    /// like `:- p(X), p(Y), X != Y` matched both ways, is recorded once). Choice
    /// instances are all kept, as phase 2 keeps them.
    fn push_record(
        &mut self,
        rule: usize,
        bounds: Option<(Option<i64>, Option<i64>)>,
        body: &mut [u32],
    ) {
        let npos = body[0] as usize;
        body[1..1 + npos].sort_unstable();
        let nneg = body[1 + npos] as usize;
        body[2 + npos..2 + npos + nneg].sort_unstable();
        if bounds.is_none() {
            use std::collections::hash_map::Entry;
            use std::hash::{Hash, Hasher};
            let mut hasher = crate::hasher::FxHasher::default();
            (rule, &*body).hash(&mut hasher);
            match self.seen.entry(hasher.finish()) {
                Entry::Vacant(slot) => {
                    slot.insert(self.records.len() as u32);
                }
                Entry::Occupied(slot) => {
                    let first = self.records[*slot.get() as usize];
                    let recorded = &self.arena[first.off as usize..];
                    if first.rule as usize == rule && recorded.get(..body.len()) == Some(&*body) {
                        return;
                    }
                }
            }
        }
        let bounds = bounds.map_or(0, |b| {
            self.bounds.push(b);
            self.bounds.len() as u32 - 1
        });
        self.records.push(Record { rule: rule as u32, bounds, off: self.arena.len() as u32 });
        self.arena.extend_from_slice(body);
    }

    fn push_tuple(&mut self, stmt: usize, key: TupleKey, pos: &[AtomId], neg: &[AtomId]) {
        self.keys.push(key);
        self.tuples.push((stmt as u32, self.keys.len() as u32 - 1, self.arena.len() as u32));
        self.arena.push(pos.len() as u32);
        self.arena.extend_from_slice(pos);
        self.arena.push(neg.len() as u32);
        self.arena.extend_from_slice(neg);
        self.arena.extend_from_slice(&[0, 0]);
    }

    /// Move the records and tuples the filters keep into `out`, renaming atoms
    /// through `remap` when given. Returns the number of records kept.
    fn transfer(
        self,
        out: &mut Frozen,
        compiled: &CompiledProgram,
        keep_rule: &[bool],
        keep_stmt: &[bool],
        remap: Option<&[AtomId]>,
    ) -> usize {
        let Frozen { records, arena, bounds, tuples, keys, .. } = self;
        // Every atom of an unaffected instance is untouched by the patch, so it has an
        // image; an instance that does miss one is dropped, as a fresh freeze would.
        let copy = |out: &mut Frozen, off: u32| {
            let body = &arena[off as usize..];
            let start = out.arena.len();
            out.arena.extend_from_slice(&body[..walk(body, |_, _| {})]);
            let mut renamed = true;
            if let Some(remap) = remap {
                walk(body, |_, slots| {
                    for slot in &mut out.arena[start + slots.start..start + slots.end] {
                        if *slot < BAD_ATOM {
                            *slot = remap[*slot as usize];
                            renamed &= *slot != NO_ATOM;
                        }
                    }
                });
            }
            debug_assert!(renamed, "an unaffected instance references a retracted atom");
            if !renamed {
                out.arena.truncate(start);
                return None;
            }
            Some(start as u32)
        };
        let mut kept = 0;
        for rec in records.into_iter().filter(|r| keep_rule[r.rule as usize]) {
            if let Some(off) = copy(out, rec.off) {
                let bounds = match compiled.is_choice(rec.rule) {
                    true => {
                        out.bounds.push(bounds[rec.bounds as usize]);
                        out.bounds.len() as u32 - 1
                    }
                    false => 0,
                };
                out.records.push(Record { rule: rec.rule, bounds, off });
                kept += 1;
            }
        }
        let shift = out.keys.len() as u32;
        out.keys.extend(keys);
        for (stmt, key, off) in tuples.into_iter().filter(|t| keep_stmt[t.0 as usize]) {
            if let Some(off) = copy(out, off) {
                out.tuples.push((stmt, key + shift, off));
            }
        }
        kept
    }

    /// Sort the keys the tuples use, drop duplicates and unused ones, and point every
    /// tuple at its key's rank.
    fn rank_keys(&mut self) {
        let mut used = vec![false; self.keys.len()];
        for t in &self.tuples {
            used[t.1 as usize] = true;
        }
        let keys = std::mem::take(&mut self.keys).into_iter().zip(0u32..);
        let mut order: Vec<(TupleKey, u32)> = keys.filter(|k| used[k.1 as usize]).collect();
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rank = vec![0u32; used.len()];
        for (key, k) in order {
            if self.keys.last() != Some(&key) {
                self.keys.push(key);
            }
            rank[k as usize] = self.keys.len() as u32 - 1;
        }
        for t in &mut self.tuples {
            t.1 = rank[t.1 as usize];
        }
    }
}

/// The owner structure of a frozen base, derived from the fact owners and the
/// frozen instances ([`BaseProgram::reindex`]).
#[derive(Debug, Default)]
struct OwnerIndex {
    /// Atom → the owner sets (indexes) of its fact emissions, CSR like `occ`;
    /// program-text facts count as one global emission.
    fact_start: Vec<u32>,
    fact_owners: Vec<u32>,
    /// Owner → the facts, records and tuples filed under it.
    buckets: FxHashMap<SymbolId, Bucket>,
    /// Everything no owner is known to be required for: visited by every request.
    global: Bucket,
    /// Derivation units, one per normal rule record and per choice element: the
    /// number of distinct atoms each needs, and the atom it derives.
    unit_need: Vec<u32>,
    unit_head: Vec<AtomId>,
    /// Atom → the units it occurs in (CSR: `occ[occ_start[a]..occ_start[a + 1]]`).
    occ_start: Vec<u32>,
    occ: Vec<u32>,
    /// Units that need no atom at all.
    zero_units: Vec<u32>,
}

impl OwnerIndex {
    fn emissions(&self, a: AtomId) -> &[u32] {
        &self.fact_owners
            [self.fact_start[a as usize] as usize..self.fact_start[a as usize + 1] as usize]
    }

    fn bucket(&mut self, owner: Option<SymbolId>) -> &mut Bucket {
        match owner {
            Some(o) => self.buckets.entry(o).or_default(),
            None => &mut self.global,
        }
    }
}

#[derive(Debug, Default)]
struct Bucket {
    facts: Vec<AtomId>,
    records: Vec<u32>,
    tuples: Vec<u32>,
}

/// Compressed rows: `list[start[r]..start[r + 1]]` holds the values paired with row
/// `r`, in `pairs` order (`pairs` is called twice: to count, then to fill).
fn csr<I: Iterator<Item = (AtomId, u32)>>(
    rows: usize,
    pairs: impl Fn() -> I,
) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; rows + 1];
    for (r, _) in pairs() {
        start[r as usize + 1] += 1;
    }
    for r in 0..rows {
        start[r + 1] += start[r];
    }
    let mut fill = start.clone();
    let mut list = vec![0u32; start[rows] as usize];
    for (r, v) in pairs() {
        list[fill[r as usize] as usize] = v;
        fill[r as usize] += 1;
    }
    (start, list)
}

/// A program ground once against its *base* facts — the frozen half of a multi-shot
/// session. Holds the complete base atom table plus every rule instance and minimize
/// condition in full. Immutable and `Sync`: many concurrent [`Grounder::ground_delta`]
/// calls may borrow one base, and the atom table sits behind an `Arc` so each
/// request's table can be a view of it ([`AtomTable::view`]) rather than a copy.
///
/// The distinct minimize tuple keys are sorted once, when the base is indexed (by
/// every freeze and every patch), and each frozen minimize condition carries its key's
/// rank. A request groups its conditions by sorting those
/// ranks; only keys that a re-ground statement produces are compared as values.
///
/// # Owners
///
/// Every input fact emission carries an owner set ([`Facts`]). A request that
/// excludes some owners keeps exactly the facts with at least one emission whose
/// owners are all kept, and everything those facts derive — the program a fresh
/// grounding of the kept facts would produce. To keep that per-request work
/// proportional to the kept part of the base, the base labels every atom with the
/// owners *all* of its derivations need, and files facts, instances and minimize
/// conditions under one owner their positive body needs (or as global). A
/// request visits the global bucket and the buckets of kept owners only: anything
/// filed under an excluded owner needs an underivable atom.
#[derive(Debug)]
pub struct BaseProgram {
    compiled: CompiledProgram,
    atoms: Arc<AtomTable>,
    frozen: Frozen,
    index: OwnerIndex,
    /// The input facts the base was ground from — the diff target of
    /// [`Grounder::patch_base`].
    input: Facts,
    /// Statistics of the base grounding.
    pub stats: GroundStats,
}

impl BaseProgram {
    /// The base atom table (all possible atoms derivable without any request facts).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Total frozen ground instances (rules + choices) available for reuse.
    pub fn frozen_instances(&self) -> usize {
        self.frozen.records.len()
    }

    /// Rebuild the [`OwnerIndex`] from the fact owners, the atoms and the frozen
    /// instances.
    ///
    /// An atom's *label* is the set of owners every derivation of it needs: the
    /// intersection, over its fact emissions and derivation units, of the owners
    /// each one needs (an emission: its owner set; a unit: the union of its atoms'
    /// labels; program-text facts and `#external` atoms: none). This is a greatest
    /// fixpoint, computed by chaotic iteration from "every owner" downwards. It is
    /// sound — by induction over derivations, an atom derivable from kept facts has
    /// only kept owners in its label — so a request may skip everything whose label
    /// names an excluded owner.
    ///
    /// It also ranks the minimize tuple keys ([`Frozen::rank_keys`]).
    fn reindex(&mut self) {
        self.frozen.seen = FxHashMap::default(); // recording is over
        self.frozen.rank_keys();
        let n = self.atoms.len();
        let records = &self.frozen.records;
        let arena = &self.frozen.arena;
        let mut index = OwnerIndex::default();

        let input = &self.input;
        let emissions = || {
            let facts = input.atoms.iter().zip(input.owners.iter().copied());
            let text = self.compiled.text_facts.iter().map(|f| (f, 0));
            facts.chain(text).map(|(f, s)| (self.atoms.get(f).expect("facts are atoms"), s))
        };
        (index.fact_start, index.fact_owners) = csr(n, emissions);

        // Derivation units and their atoms.
        let mut unit_start: Vec<u32> = vec![0];
        let mut unit_atoms: Vec<AtomId> = Vec::new();
        let mut buf: Vec<AtomId> = Vec::new();
        let mut push_unit = |buf: &mut Vec<AtomId>, head: AtomId, index: &mut OwnerIndex| {
            buf.sort_unstable();
            buf.dedup();
            if buf.is_empty() {
                index.zero_units.push(index.unit_head.len() as u32);
            }
            index.unit_need.push(buf.len() as u32);
            index.unit_head.push(head);
            unit_atoms.extend_from_slice(buf);
            unit_start.push(unit_atoms.len() as u32);
        };
        for rec in records {
            let body = &arena[rec.off as usize..];
            let pos = &body[1..1 + body[0] as usize];
            walk(body, |section, slots| {
                if section == 3 {
                    buf.clear();
                    buf.extend_from_slice(pos);
                    buf.extend_from_slice(&body[slots.start..slots.end - 1]);
                    push_unit(&mut buf, body[slots.end - 1], &mut index);
                }
            });
        }
        let unit_rows = |u: usize| &unit_atoms[unit_start[u] as usize..unit_start[u + 1] as usize];
        let units = index.unit_head.len();
        let (occ_start, occ) =
            csr(n, || (0..units).flat_map(|u| unit_rows(u).iter().map(move |&a| (a, u as u32))));
        let (head_start, head_units) =
            csr(n, || index.unit_head.iter().enumerate().map(|(u, &h)| (h, u as u32)));

        // Labels: the greatest fixpoint, by chaotic iteration in atom order. `None`
        // is "every owner", the start.
        let mut label: Vec<Option<OwnerSet>> = vec![None; n];
        let mut queued = vec![true; n];
        let mut queue: std::collections::VecDeque<AtomId> = (0..n as AtomId).collect();
        let mut acc: Vec<SymbolId> = Vec::new();
        while let Some(a) = queue.pop_front() {
            let ai = a as usize;
            queued[ai] = false;
            // `top`: nothing constrains the atom yet, so it needs every owner.
            let mut top = true;
            acc.clear();
            let sets = index.emissions(a).iter().map(|&s| &*input.sets[s as usize]);
            for set in sets.chain(self.atoms.is_external(a).then_some(&[][..])) {
                if std::mem::take(&mut top) {
                    acc.extend_from_slice(set);
                } else {
                    acc.retain(|o| set.binary_search(o).is_ok());
                }
            }
            for &u in &head_units[head_start[ai] as usize..head_start[ai + 1] as usize] {
                let atoms = unit_rows(u as usize);
                if !top && acc.is_empty() {
                    break;
                } else if atoms.iter().any(|&b| label[b as usize].is_none()) {
                    continue; // needs every owner so far: constrains nothing yet
                }
                let owners = |b: &AtomId| label[*b as usize].as_deref().unwrap_or_default();
                if std::mem::take(&mut top) {
                    acc.extend(atoms.iter().flat_map(|b| owners(b).iter().copied()));
                    acc.sort_unstable();
                    acc.dedup();
                } else {
                    acc.retain(|o| atoms.iter().any(|b| owners(b).binary_search(o).is_ok()));
                }
            }
            let new = (!top).then_some(acc.as_slice());
            if label[ai].as_deref() != new {
                label[ai] = new.map(Into::into);
                for &u in &occ[occ_start[ai] as usize..occ_start[ai + 1] as usize] {
                    let h = index.unit_head[u as usize];
                    if !std::mem::replace(&mut queued[h as usize], true) {
                        queue.push_back(h);
                    }
                }
            }
        }
        // File everything under its smallest required owner.
        let owner = |a: AtomId| label[a as usize].as_ref().and_then(|l| l.first().copied());
        let body_owner = |off: u32| {
            let body = &arena[off as usize..];
            body[1..1 + body[0] as usize].iter().filter_map(|&a| owner(a)).min()
        };
        for a in 0..n as AtomId {
            if !index.emissions(a).is_empty() {
                index.bucket(owner(a)).facts.push(a);
            }
        }
        for (r, rec) in records.iter().enumerate() {
            index.bucket(body_owner(rec.off)).records.push(r as u32);
        }
        for (t, (_, _, off)) in self.frozen.tuples.iter().enumerate() {
            index.bucket(body_owner(*off)).tuples.push(t as u32);
        }
        index.occ_start = occ_start;
        index.occ = occ;
        self.index = index;
        self.stats.atoms = n;
        self.stats.choices = records.iter().filter(|r| self.compiled.is_choice(r.rule)).count();
        self.stats.rules = records.len() - self.stats.choices;
    }
}

/// Compiled term: variables resolved to slot indices.
#[derive(Debug, Clone)]
enum CTerm {
    Val(Val),
    Var(usize),
    Wildcard,
    BinOp(ArithOp, Box<CTerm>, Box<CTerm>),
}

/// Compiled atom.
#[derive(Debug, Clone)]
struct CAtom {
    pred: SymbolId,
    args: Vec<CTerm>,
}

#[derive(Debug, Clone)]
struct CCmp {
    op: CmpOp,
    lhs: CTerm,
    rhs: CTerm,
}

#[derive(Debug, Clone)]
struct CCond {
    negated: bool,
    atom: CAtom,
    conditions: Vec<CAtom>,
}

#[derive(Debug, Clone)]
struct CChoiceElem {
    atom: CAtom,
    conditions: Vec<CAtom>,
}

#[derive(Debug, Clone)]
enum CHead {
    None,
    Atom(CAtom),
    Choice { lower: Option<CTerm>, upper: Option<CTerm>, elements: Vec<CChoiceElem> },
}

/// A rule compiled for grounding.
#[derive(Debug, Clone)]
struct CRule {
    head: CHead,
    /// Positive predicate body literals, in join order.
    pos: Vec<CAtom>,
    /// Parallel to `pos`: does the literal carry an arithmetic argument? (Precomputed
    /// so the join planner's readiness check is free for the common case.)
    pos_binop: Vec<bool>,
    /// Negative predicate body literals.
    neg: Vec<CAtom>,
    /// Comparison literals.
    cmps: Vec<CCmp>,
    /// Conditional literals.
    conds: Vec<CCond>,
    /// Number of variable slots.
    nvars: usize,
}

#[derive(Debug, Clone)]
struct CMinimize {
    weight: CTerm,
    priority: CTerm,
    terms: Vec<CTerm>,
    pos: Vec<CAtom>,
    neg: Vec<CAtom>,
    cmps: Vec<CCmp>,
    nvars: usize,
}

/// A minimize tuple key: `(priority, weight, terms)`.
type TupleKey = (i64, i64, Vec<Val>);

/// Callback invoked for every complete substitution of a rule's positive body. The
/// final slice holds, for each positive literal (by its original index), the atom id it
/// was matched against — so downstream processing never re-instantiates or re-hashes
/// body atoms.
type OnJoinMatch<'cb, 's> = dyn FnMut(
        &mut Grounder<'s>,
        &mut GroundProgram,
        &[Option<Val>],
        &[AtomId],
    ) -> Result<(), GroundError>
    + 'cb;

/// Callback invoked for every complete assignment of a condition list's variables,
/// with the matched condition atoms.
type OnConditionMatch<'cb> =
    dyn FnMut(&mut GroundProgram, &[Option<Val>], &[AtomId]) -> Result<(), GroundError> + 'cb;

/// Receives each minimize condition instance in full: `(key, positive atoms,
/// possible negative atoms)`.
type MinimizeSink<'cb> = dyn FnMut(TupleKey, &[AtomId], &[AtomId]) + 'cb;

/// Where phase 2 sends an instance: simplified into the ground program (deduplicated
/// through the given index), or recorded in full into a frozen base.
enum Sink<'s> {
    Emit(&'s mut RuleDedup),
    Freeze(&'s mut Frozen),
}

/// The grounder.
pub struct Grounder<'a> {
    symbols: &'a mut SymbolTable,
    /// Reusable atom buffer for instantiate-then-lookup on the derive path, so
    /// re-deriving an existing atom allocates nothing (see [`AtomTable::intern_ref`]).
    scratch_atom: GroundAtom,
    /// Reusable record body of the phase-2 instance being processed.
    record: Vec<u32>,
    /// Reusable positive / negative / choice-head buffers for simplification.
    buffers: (Vec<AtomId>, Vec<AtomId>, Vec<AtomId>),
}

impl<'a> Grounder<'a> {
    /// Create a grounder that interns into the given symbol table.
    pub fn new(symbols: &'a mut SymbolTable) -> Self {
        Grounder {
            symbols,
            scratch_atom: GroundAtom::new(0, Vec::new()),
            record: Vec::new(),
            buffers: Default::default(),
        }
    }

    /// Ground `program` together with externally supplied input `facts`.
    pub fn ground(
        mut self,
        program: &Program,
        facts: &[GroundAtom],
    ) -> Result<GroundProgram, GroundError> {
        let start = Instant::now();
        let mut ground = GroundProgram::default();
        let compiled = self.compile(program, facts, &mut ground)?;

        // ---- Phase 1: possible-atom fixpoint -----------------------------------------
        let seeds: Vec<AtomId> = ground.atoms.iter().map(|(id, _)| id).collect();
        let rounds = self.fixpoint(&compiled, &mut ground, seeds, true, None)?;
        let phase1_time = start.elapsed();

        // ---- Phase 2: rule instantiation ----------------------------------------------
        let mut seen_rules: RuleDedup = RuleDedup::default();
        for (ri, rule) in compiled.crules.iter().enumerate() {
            self.phase2_rule(ri, rule, &mut ground, &mut Sink::Emit(&mut seen_rules))?;
        }
        // Minimize statements.
        let mut conds = MinimizeConditions::default();
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for m in &compiled.cminimize {
            let atoms = &ground.atoms;
            let view = |a: AtomId| Some((a, atoms.is_certain(a)));
            self.ground_minimize(m, &ground, &mut |key, p, n| {
                if simplify_condition(p, n, &view, &mut pos, &mut neg) {
                    conds.push_keyed(key, &pos, &neg);
                }
            })?;
        }
        conds.emit(&[], compiled.aux_pred, &mut ground);

        let duration = start.elapsed();
        ground.stats = GroundStats {
            atoms: ground.atoms.len(),
            rules: ground.rules.len(),
            choices: ground.choices.len(),
            minimize: ground.minimize.len(),
            rounds,
            phase1: phase1_time,
            phase2: duration - phase1_time,
            duration,
            ..GroundStats::default()
        };
        Ok(ground)
    }

    /// Ground `program` against the *base* facts only, producing a frozen
    /// [`BaseProgram`] from which many per-request [`Grounder::ground_delta`] calls can
    /// be answered. Phase 1 runs to completion; phase 2 records every instance and
    /// minimize condition in full instead of simplifying it — everything a request
    /// that excludes part of the base may simplify differently — and files them by
    /// owner (see [`BaseProgram`]).
    pub fn ground_base(
        mut self,
        program: &Program,
        input: Facts,
    ) -> Result<BaseProgram, GroundError> {
        let start = Instant::now();
        let mut ground = GroundProgram::default();
        let compiled = self.compile(program, &input.atoms, &mut ground)?;

        let seeds: Vec<AtomId> = ground.atoms.iter().map(|(id, _)| id).collect();
        let rounds = self.fixpoint(&compiled, &mut ground, seeds, true, None)?;
        let phase1_time = start.elapsed();

        let mut frozen = Frozen::default();
        for (ri, rule) in compiled.crules.iter().enumerate() {
            self.phase2_rule(ri, rule, &mut ground, &mut Sink::Freeze(&mut frozen))?;
        }
        for (mi, m) in compiled.cminimize.iter().enumerate() {
            self.ground_minimize(m, &ground, &mut |key, pos, neg| {
                frozen.push_tuple(mi, key, pos, neg)
            })?;
        }
        let mut base = BaseProgram {
            compiled,
            atoms: Arc::new(ground.atoms),
            frozen,
            index: OwnerIndex::default(),
            input,
            stats: GroundStats { rounds, phase1: phase1_time, ..GroundStats::default() },
        };
        base.reindex();
        base.stats.minimize = base.frozen.tuples.len();
        base.stats.duration = start.elapsed();
        base.stats.phase2 = base.stats.duration - phase1_time;
        Ok(base)
    }

    /// Ground one request's *delta* facts on top of a frozen [`BaseProgram`],
    /// producing exactly the program a from-scratch grounding of the kept base facts
    /// plus the delta facts would produce:
    ///
    /// 1. **Restriction.** A base fact is kept when one of its emissions names no
    ///    owner in `excluded` (an atom whose first argument is an integer in an
    ///    `excluded_ints` range is dropped). One counter-based forward pass over the
    ///    derivation units of the visited buckets (see [`BaseProgram`]) finds what
    ///    the kept facts derive. The request's atom table is a *view* of the base's
    ///    ([`AtomTable::view`]): the kept atoms keep their base order and are read
    ///    from the base, not copied, and a predicate's join indexes over them are
    ///    built only if a join below probes it.
    /// 2. **Semi-naive continuation.** Phase 1 continues from the delta facts only;
    ///    what it derives (a base atom the restriction dropped included) goes into
    ///    the view's overlay.
    /// 3. **Touched-rule re-instantiation.** A rule with a literal matching the
    ///    `(predicate, first-argument)` discriminator of a new (or newly-certain)
    ///    atom is re-instantiated in full; every other rule's frozen records are
    ///    simplified against the restricted relation, exactly as phase 2 simplifies
    ///    a fresh grounding (rules deduplicated program-wide, as it does).
    /// 4. **Minimize.** Touched statements are re-ground; the kept frozen conditions
    ///    are simplified and grouped by their pre-computed key ranks.
    pub fn ground_delta(
        mut self,
        base: &BaseProgram,
        excluded: &crate::hasher::FxHashSet<SymbolId>,
        excluded_ints: &[(i64, i64)],
        delta: &Facts,
    ) -> Result<GroundProgram, GroundError> {
        let start = Instant::now();
        let index = &base.index;
        let dropped = |set: &[SymbolId]| set.iter().any(|o| excluded.contains(o));
        let set_out: Vec<bool> = base.input.sets.iter().map(|s| dropped(s)).collect();
        // Integer exclusion matches *first* arguments only.
        let blocked = |a: AtomId| {
            !excluded_ints.is_empty()
                && match base.atoms.atom(a).args.first() {
                    Some(Val::Int(i)) => excluded_ints.iter().any(|&(s, e)| s <= *i && *i < e),
                    _ => false,
                }
        };
        let mut owners: Vec<SymbolId> =
            index.buckets.keys().copied().filter(|s| !excluded.contains(s)).collect();
        owners.sort_unstable();
        let visited =
            || std::iter::once(&index.global).chain(owners.iter().map(|o| &index.buckets[o]));

        // Restriction: the forward pass.
        let (mut derived, mut certain) = (AtomBitSet::default(), AtomBitSet::default());
        derived.grow(base.atoms.len());
        certain.grow(base.atoms.len());
        let mut need = index.unit_need.clone();
        // Every derived atom, in derivation order; `kept[done..]` still propagates.
        let mut kept: Vec<AtomId> = Vec::new();
        let mut derive = |a: AtomId, kept: &mut Vec<AtomId>| {
            if !derived.contains(a) && !blocked(a) {
                derived.set(a);
                kept.push(a);
            }
        };
        for bucket in visited() {
            for &a in &bucket.facts {
                if index.emissions(a).iter().any(|&s| !set_out[s as usize]) && !blocked(a) {
                    certain.set(a);
                    derive(a, &mut kept);
                }
            }
        }
        for &a in base.atoms.externals() {
            derive(a, &mut kept);
        }
        for &u in &index.zero_units {
            derive(index.unit_head[u as usize], &mut kept);
        }
        let mut done = 0;
        while let Some(&a) = kept.get(done) {
            done += 1;
            let a = a as usize;
            for &u in &index.occ[index.occ_start[a] as usize..index.occ_start[a + 1] as usize] {
                need[u as usize] -= 1;
                if need[u as usize] == 0 {
                    derive(index.unit_head[u as usize], &mut kept);
                }
            }
        }
        kept.sort_unstable();
        let kept_certain = kept.iter().map(|&a| certain.contains(a)).collect();
        let mut ground = GroundProgram {
            atoms: AtomTable::view(Arc::clone(&base.atoms), kept, kept_certain),
            ..GroundProgram::default()
        };
        for &ext in base.atoms.externals() {
            if let Some(id) = ground.atoms.kept_id(ext) {
                ground.atoms.set_external(id);
            }
        }
        let restrict_time = start.elapsed();

        let mut touched = TouchSet::default();
        let mut seeds: Vec<AtomId> = Vec::new();
        for (fact, &owners) in delta.atoms.iter().zip(&delta.owners) {
            if dropped(&delta.sets[owners as usize]) {
                continue;
            }
            let (id, new) = ground.atoms.intern_ref(fact);
            if new {
                ground.atoms.set_certain(id);
                seeds.push(id); // touched by the fixpoint's first delta round
            } else if !ground.atoms.is_certain(id) {
                // A delta fact coinciding with a derived base atom: it becomes
                // certain, and every frozen instance mentioning it must re-simplify.
                ground.atoms.set_certain(id);
                touched.touch(ground.atoms.atom(id));
            }
        }
        let rounds =
            self.fixpoint(&base.compiled, &mut ground, seeds, false, Some(&mut touched))?;
        let phase1_time = start.elapsed();

        // Which rules did the delta touch? Affected rules are re-instantiated in full
        // against the restricted relation; everything else reuses frozen records.
        let affected: Vec<bool> =
            base.compiled.rule_sigs.iter().map(|sigs| touched.matches_any(sigs)).collect();
        let mut seen = RuleDedup::default();
        let mut delta_rules = 0usize;
        for (ri, rule) in base.compiled.crules.iter().enumerate() {
            if affected[ri] {
                delta_rules += 1;
                self.phase2_rule(ri, rule, &mut ground, &mut Sink::Emit(&mut seen))?;
            }
        }
        let mut reused_rules = 0usize;
        let (mut pos, mut neg, mut heads) = (Vec::new(), Vec::new(), Vec::new());
        for bucket in visited() {
            for &r in &bucket.records {
                let rec = base.frozen.records[r as usize];
                if affected[rec.rule as usize] {
                    continue; // re-instantiated above
                }
                let choice = base.compiled.is_choice(rec.rule);
                let atoms = &ground.atoms;
                let view = |a: AtomId| atoms.kept_id(a).map(|n| (n, atoms.is_certain(n)));
                let body = &base.frozen.arena[rec.off as usize..];
                let out = simplify(choice, body, view, &mut pos, &mut neg, &mut heads);
                if !matches!(out, Simplified::Discarded) {
                    reused_rules += 1;
                    let bounds = choice.then(|| base.frozen.bounds[rec.bounds as usize]);
                    emit(&mut ground, &mut seen, out, bounds, &pos, &neg, &heads);
                }
            }
        }
        let phase2_time = start.elapsed();

        let affected_min: Vec<bool> =
            base.compiled.minimize_sigs.iter().map(|sigs| touched.matches_any(sigs)).collect();
        let mut conds = MinimizeConditions::default();
        for (mi, m) in base.compiled.cminimize.iter().enumerate() {
            if affected_min[mi] {
                let atoms = &ground.atoms;
                let view = |a: AtomId| Some((a, atoms.is_certain(a)));
                self.ground_minimize(m, &ground, &mut |key, p, n| {
                    if simplify_condition(p, n, &view, &mut pos, &mut neg) {
                        conds.push_keyed(key, &pos, &neg);
                    }
                })?;
            }
        }
        for bucket in visited() {
            for &t in &bucket.tuples {
                let (mi, rank, off) = base.frozen.tuples[t as usize];
                if affected_min[mi as usize] {
                    continue; // re-ground above
                }
                let atoms = &ground.atoms;
                let view = |a: AtomId| atoms.kept_id(a).map(|n| (n, atoms.is_certain(n)));
                let body = &base.frozen.arena[off as usize..];
                let npos = body[0] as usize;
                let (p, rest) = body[1..].split_at(npos);
                if simplify_condition(p, &rest[1..1 + rest[0] as usize], &view, &mut pos, &mut neg)
                {
                    conds.push_ranked(rank, &pos, &neg);
                }
            }
        }
        conds.emit(&base.frozen.keys, base.compiled.aux_pred, &mut ground);

        let duration = start.elapsed();
        ground.stats = GroundStats {
            atoms: ground.atoms.len(),
            rules: ground.rules.len(),
            choices: ground.choices.len(),
            minimize: ground.minimize.len(),
            rounds,
            phase1: phase1_time,
            phase2: duration - phase1_time,
            duration,
            delta: true,
            reused_rules,
            delta_rules,
            split: DeltaSplit {
                restrict: restrict_time,
                continuation: phase1_time - restrict_time,
                phase2: phase2_time - phase1_time,
                minimize: duration - phase2_time,
            },
        };
        Ok(ground)
    }

    /// Patch a frozen [`BaseProgram`] **in place** so it becomes equivalent to a
    /// fresh [`Grounder::ground_base`] of `input` (the complete post-delta input
    /// facts, owners included). The streams are diffed as sets of distinct atoms
    /// (duplicates and owners are irrelevant to grounding) and the cheapest
    /// applicable strategy runs:
    ///
    /// * **Additions only** — the common buildcache-install churn. The semi-naive
    ///   phase-1 fixpoint *continues* from the added facts on top of the existing
    ///   closure (the same machinery as a per-request delta, pointed at the base
    ///   relation itself). Every rule whose literals match a touched discriminator
    ///   is re-recorded; all other records survive untouched — the relation only
    ///   grew, so their atom ids stay valid.
    /// * **Any removal** — a version yanked, a hash uninstalled. Derivations that
    ///   existed only because of the removed facts must be retracted, which an
    ///   append-only relation cannot express: the possible-atom closure is rebuilt
    ///   from scratch in the exact interning order of a fresh freeze (input facts,
    ///   `#external` guards, program-text facts — so every surviving atom id
    ///   coincides with a fresh [`Grounder::ground_base`] of the same stream), then
    ///   the records of *unaffected* rules are renamed onto the new ids while only
    ///   the rules the diff touched pay phase 2 again.
    ///
    /// Either way the owner index is rebuilt from the new owners, and the patched
    /// base answers every subsequent [`Grounder::ground_delta`] exactly like a fresh
    /// freeze of the stream would; only the record *order* (and, on the additions
    /// path, the ids of atoms interned after the original freeze) may differ.
    pub fn patch_base(
        mut self,
        base: &mut BaseProgram,
        input: Facts,
    ) -> Result<PatchStats, GroundError> {
        let start = Instant::now();
        let mut stats = PatchStats { atoms_before: base.atoms.len(), ..PatchStats::default() };
        // Distinct-atom diff of the two input streams.
        let mut presence: FxHashMap<&GroundAtom, (bool, bool)> = FxHashMap::default();
        for f in &base.input.atoms {
            presence.entry(f).or_default().0 = true;
        }
        for f in &input.atoms {
            presence.entry(f).or_default().1 = true;
        }
        stats.removed_facts = presence.values().filter(|&&(old, new)| old && !new).count();
        // Added facts in new-stream first-occurrence order, for determinism.
        let mut added: Vec<GroundAtom> = Vec::new();
        for f in &input.atoms {
            if let Some(flags) = presence.get_mut(f) {
                if !flags.0 {
                    flags.0 = true; // consume, so a duplicated new fact is added once
                    added.push(f.clone());
                }
            }
        }
        drop(presence);
        stats.added_facts = added.len();
        if stats.removed_facts > 0 {
            stats.rebuilt = true;
            self.patch_rebuild(base, &input.atoms, &mut stats)?;
        } else if !added.is_empty() {
            self.patch_additions(base, &added, &mut stats)?;
        }
        base.input = input;
        base.reindex();
        stats.atoms_after = base.atoms.len();
        stats.duration = start.elapsed();
        Ok(stats)
    }

    /// Re-record the rules and minimize statements a patch touched against the
    /// patched relation, and move every other record over (renamed through `remap`
    /// on the rebuild path).
    fn patch_records(
        &mut self,
        base: &mut BaseProgram,
        ground: &mut GroundProgram,
        touched: &TouchSet,
        remap: Option<&[AtomId]>,
        stats: &mut PatchStats,
    ) -> Result<(), GroundError> {
        let compiled = &base.compiled;
        let affected: Vec<bool> =
            compiled.rule_sigs.iter().map(|s| touched.matches_any(s)).collect();
        let affected_min: Vec<bool> =
            compiled.minimize_sigs.iter().map(|s| touched.matches_any(s)).collect();
        let mut frozen = Frozen::default();
        for (ri, rule) in compiled.crules.iter().enumerate() {
            if affected[ri] {
                stats.rules_reinstantiated += 1;
                self.phase2_rule(ri, rule, ground, &mut Sink::Freeze(&mut frozen))?;
            }
        }
        for (mi, m) in compiled.cminimize.iter().enumerate() {
            if affected_min[mi] {
                self.ground_minimize(m, ground, &mut |key, pos, neg| {
                    frozen.push_tuple(mi, key, pos, neg)
                })?;
            }
        }
        let keep: Vec<bool> = affected.iter().map(|a| !a).collect();
        let keep_min: Vec<bool> = affected_min.iter().map(|a| !a).collect();
        let old = std::mem::take(&mut base.frozen);
        stats.rules_reused = old.transfer(&mut frozen, compiled, &keep, &keep_min, remap);
        base.frozen = frozen;
        Ok(())
    }

    /// Additions-only in-place patch: continue the phase-1 fixpoint from the added
    /// facts, then re-record exactly the touched rules and minimize statements.
    fn patch_additions(
        &mut self,
        base: &mut BaseProgram,
        added: &[GroundAtom],
        stats: &mut PatchStats,
    ) -> Result<(), GroundError> {
        // Move the base relation into a scratch GroundProgram so the shared fixpoint
        // and phase-2 machinery can run against it; it moves back at the end. (A
        // ground program still holding a view of it keeps the old table.)
        let atoms = Arc::try_unwrap(std::mem::take(&mut base.atoms));
        let atoms = atoms.unwrap_or_else(|shared| AtomTable::clone(&shared));
        let mut ground = GroundProgram { atoms, ..GroundProgram::default() };
        let old_len = ground.atoms.len();
        let mut touched = TouchSet::default();
        let mut seeds: Vec<AtomId> = Vec::new();
        for fact in added {
            let (id, new) = ground.atoms.intern_ref(fact);
            if new {
                ground.atoms.set_certain(id);
                seeds.push(id); // touched by the fixpoint's first delta round
            } else if !ground.atoms.is_certain(id) {
                // The added fact coincides with a derived atom: it turns certain, and
                // every record expanding a conditional literal over it must change.
                ground.atoms.set_certain(id);
                touched.touch(ground.atoms.atom(id));
            }
        }
        self.fixpoint(&base.compiled, &mut ground, seeds, false, Some(&mut touched))?;
        stats.atoms_added = ground.atoms.len() - old_len;
        self.patch_records(base, &mut ground, &touched, None, stats)?;
        base.atoms = Arc::new(ground.atoms);
        Ok(())
    }

    /// Removal-capable patch: rebuild the possible-atom closure from scratch in the
    /// exact interning order of a fresh freeze, then rename the unaffected records
    /// onto the new ids and re-record only the rules the diff touched.
    fn patch_rebuild(
        &mut self,
        base: &mut BaseProgram,
        new_facts: &[GroundAtom],
        stats: &mut PatchStats,
    ) -> Result<(), GroundError> {
        // Mirror `compile()`'s interning order — input facts, `#external` guards,
        // program-text facts — so atom ids coincide with a fresh freeze.
        let mut ground = GroundProgram::default();
        for fact in new_facts {
            let (id, _) = ground.atoms.intern(fact.clone());
            ground.atoms.set_certain(id);
        }
        for ext in &base.compiled.externals {
            let (id, _) = ground.atoms.intern(ext.clone());
            ground.atoms.set_external(id);
        }
        for fact in &base.compiled.text_facts {
            let (id, _) = ground.atoms.intern(fact.clone());
            ground.atoms.set_certain(id);
        }
        let seeds: Vec<AtomId> = ground.atoms.iter().map(|(id, _)| id).collect();
        self.fixpoint(&base.compiled, &mut ground, seeds, true, None)?;

        // Diff the closures. Retracted atoms, new atoms, and atoms whose certainty
        // changed all mark their discriminator touched; `remap` carries old → new
        // ids for the survivors.
        let mut touched = TouchSet::default();
        let mut remap: Vec<AtomId> = vec![NO_ATOM; base.atoms.len()];
        for (old_id, atom) in base.atoms.iter() {
            match ground.atoms.get(atom) {
                Some(new_id) => {
                    remap[old_id as usize] = new_id;
                    if ground.atoms.is_certain(new_id) != base.atoms.is_certain(old_id) {
                        touched.touch(atom);
                    }
                }
                None => {
                    stats.atoms_removed += 1;
                    touched.touch(atom);
                }
            }
        }
        for (_, atom) in ground.atoms.iter() {
            if base.atoms.get(atom).is_none() {
                stats.atoms_added += 1;
                touched.touch(atom);
            }
        }
        // Every atom an unaffected record references matches one of its rule's
        // signature literals, so it is untouched — present in the new closure — and
        // the renaming cannot miss.
        self.patch_records(base, &mut ground, &touched, Some(&remap), stats)?;
        base.atoms = Arc::new(ground.atoms);
        Ok(())
    }

    /// Shared grounding prelude: intern the input facts (certain), the `#external`
    /// guard atoms (possible-but-uncertain — they seed the phase-1 fixpoint, yet
    /// nothing ever derives them; the translation and the stability check exempt them,
    /// so a per-solve assumption can fix their truth without regrounding), and the
    /// program-text ground facts (`node("hdf5").`), then compile the remaining rules
    /// and minimize statements together with their delta signatures.
    fn compile(
        &mut self,
        program: &Program,
        facts: &[GroundAtom],
        ground: &mut GroundProgram,
    ) -> Result<CompiledProgram, GroundError> {
        let consts: HashMap<String, Term> = program.consts.iter().cloned().collect();
        for fact in facts {
            let (id, _) = ground.atoms.intern(fact.clone());
            ground.atoms.set_certain(id);
        }
        let mut externals = Vec::with_capacity(program.externals.len());
        for atom in &program.externals {
            let ga = self.intern_ground_atom(atom, &consts)?;
            externals.push(ga.clone());
            let (id, _) = ground.atoms.intern(ga);
            ground.atoms.set_external(id);
        }
        let mut crules = Vec::with_capacity(program.rules.len());
        let mut text_facts = Vec::new();
        for rule in &program.rules {
            // Ground facts in the program text are handled directly.
            if rule.body.is_empty() {
                if let Head::Atom(atom) = &rule.head {
                    if atom.is_ground() {
                        let ga = self.intern_ground_atom(atom, &consts)?;
                        text_facts.push(ga.clone());
                        let (id, _) = ground.atoms.intern(ga);
                        ground.atoms.set_certain(id);
                        continue;
                    }
                }
            }
            crules.push(self.compile_rule(rule, &consts)?);
        }
        let cminimize: Vec<CMinimize> = program
            .minimize
            .iter()
            .map(|m| self.compile_minimize(m, &consts))
            .collect::<Result<_, _>>()?;
        let rule_sigs = crules.iter().map(rule_signature).collect();
        let rule_p1_sigs = crules.iter().map(rule_phase1_condition_signature).collect();
        let minimize_sigs = cminimize.iter().map(minimize_signature).collect();
        let aux_pred = self.symbols.intern("__opt_tuple");
        Ok(CompiledProgram {
            crules,
            cminimize,
            rule_sigs,
            rule_p1_sigs,
            minimize_sigs,
            externals,
            text_facts,
            aux_pred,
        })
    }

    /// The phase-1 possible-atom fixpoint. With `full_first_round` the first round
    /// joins every rule unrestricted (one-shot and base grounding); otherwise the
    /// fixpoint *continues* semi-naively from `seeds` on top of an already-complete
    /// base closure (delta grounding). `touched` (delta mode only) accumulates the
    /// discriminators of every delta atom; it also triggers full re-joins of rules
    /// whose choice-element conditions gained atoms this round — their new heads live
    /// in instances whose positive body did not change, which the occurrence-driven
    /// delta pass alone would miss.
    fn fixpoint(
        &mut self,
        compiled: &CompiledProgram,
        ground: &mut GroundProgram,
        seeds: Vec<AtomId>,
        full_first_round: bool,
        mut touched: Option<&mut TouchSet>,
    ) -> Result<usize, GroundError> {
        let mut rounds = 0;
        let mut delta: Vec<AtomId> = seeds;
        // Persistent delta structures, reused across rounds: the membership bitset and
        // the per-predicate delta lists driving the occurrence-based instantiation.
        let mut delta_set = AtomBitSet::default();
        let mut delta_by_pred: FxHashMap<SymbolId, Vec<AtomId>> = FxHashMap::default();
        let mut first_round = full_first_round;
        let mut round_touch = TouchSet::default();
        while !delta.is_empty() || first_round {
            rounds += 1;
            if rounds > 100_000 {
                return Err(GroundError { message: "grounding did not reach a fixpoint".into() });
            }
            if !first_round {
                delta_set.grow(ground.atoms.len());
                for &d in &delta {
                    delta_set.set(d);
                }
                for v in delta_by_pred.values_mut() {
                    v.clear();
                }
                for &d in &delta {
                    delta_by_pred.entry(ground.atoms.atom(d).pred).or_default().push(d);
                }
            }
            if let Some(t) = touched.as_deref_mut() {
                round_touch.clear();
                for &d in &delta {
                    round_touch.touch(ground.atoms.atom(d));
                }
                t.absorb(&round_touch);
            }
            let mut new_atoms: Vec<AtomId> = Vec::new();
            for (ri, rule) in compiled.crules.iter().enumerate() {
                let full = first_round
                    || (touched.is_some() && round_touch.matches_any(&compiled.rule_p1_sigs[ri]));
                self.phase1_rule(rule, ground, &delta_set, &delta_by_pred, full, &mut new_atoms)?;
            }
            if !first_round {
                for &d in &delta {
                    delta_set.clear(d);
                }
            }
            delta = new_atoms;
            first_round = false;
        }
        Ok(rounds)
    }

    // ---- compilation -----------------------------------------------------------------

    fn compile_term(
        &mut self,
        term: &Term,
        vars: &mut Vec<String>,
        consts: &HashMap<String, Term>,
    ) -> Result<CTerm, GroundError> {
        Ok(match term {
            Term::Sym(s) => {
                if let Some(def) = consts.get(s) {
                    // #const substitution (definitions must be ground).
                    self.compile_term(def, vars, consts)?
                } else {
                    CTerm::Val(Val::Sym(self.symbols.intern(s)))
                }
            }
            Term::Int(i) => CTerm::Val(Val::Int(*i)),
            Term::Var(v) if v == "_" => CTerm::Wildcard,
            Term::Var(v) => {
                let idx = match vars.iter().position(|x| x == v) {
                    Some(i) => i,
                    None => {
                        vars.push(v.clone());
                        vars.len() - 1
                    }
                };
                CTerm::Var(idx)
            }
            Term::BinOp(op, a, b) => CTerm::BinOp(
                *op,
                Box::new(self.compile_term(a, vars, consts)?),
                Box::new(self.compile_term(b, vars, consts)?),
            ),
        })
    }

    fn compile_atom(
        &mut self,
        atom: &Atom,
        vars: &mut Vec<String>,
        consts: &HashMap<String, Term>,
    ) -> Result<CAtom, GroundError> {
        let pred = self.symbols.intern(&atom.pred);
        if atom.args.len() > MAX_ARITY {
            return Err(GroundError {
                message: format!("atom {} exceeds the maximum arity of {MAX_ARITY}", atom.pred),
            });
        }
        let args = atom
            .args
            .iter()
            .map(|t| self.compile_term(t, vars, consts))
            .collect::<Result<_, _>>()?;
        Ok(CAtom { pred, args })
    }

    fn compile_rule(
        &mut self,
        rule: &crate::ast::Rule,
        consts: &HashMap<String, Term>,
    ) -> Result<CRule, GroundError> {
        let mut vars = Vec::new();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut cmps = Vec::new();
        let mut conds = Vec::new();
        for elem in &rule.body {
            match elem {
                BodyElem::Lit(Literal::Pred { negated: false, atom }) => {
                    pos.push(self.compile_atom(atom, &mut vars, consts)?);
                }
                BodyElem::Lit(Literal::Pred { negated: true, atom }) => {
                    neg.push(self.compile_atom(atom, &mut vars, consts)?);
                }
                BodyElem::Lit(Literal::Cmp { op, lhs, rhs }) => {
                    cmps.push(CCmp {
                        op: *op,
                        lhs: self.compile_term(lhs, &mut vars, consts)?,
                        rhs: self.compile_term(rhs, &mut vars, consts)?,
                    });
                }
                BodyElem::Cond { literal, conditions } => {
                    let (negated, atom) = match literal {
                        Literal::Pred { negated, atom } => (*negated, atom),
                        Literal::Cmp { .. } => {
                            return Err(GroundError {
                                message: "comparison literals cannot be conditional".into(),
                            })
                        }
                    };
                    let catom = self.compile_atom(atom, &mut vars, consts)?;
                    let cconds = conditions
                        .iter()
                        .map(|c| match c {
                            Literal::Pred { negated: false, atom } => {
                                self.compile_atom(atom, &mut vars, consts)
                            }
                            _ => Err(GroundError {
                                message:
                                    "conditions of conditional literals must be positive atoms"
                                        .into(),
                            }),
                        })
                        .collect::<Result<_, _>>()?;
                    conds.push(CCond { negated, atom: catom, conditions: cconds });
                }
            }
        }
        let head = match &rule.head {
            Head::None => CHead::None,
            Head::Atom(atom) => CHead::Atom(self.compile_atom(atom, &mut vars, consts)?),
            Head::Choice { lower, upper, elements } => {
                let lower =
                    lower.as_ref().map(|t| self.compile_term(t, &mut vars, consts)).transpose()?;
                let upper =
                    upper.as_ref().map(|t| self.compile_term(t, &mut vars, consts)).transpose()?;
                let elements = elements
                    .iter()
                    .map(|e| self.compile_choice_elem(e, &mut vars, consts))
                    .collect::<Result<_, _>>()?;
                CHead::Choice { lower, upper, elements }
            }
        };
        let pos_binop = pos.iter().map(has_binop_arg).collect();
        Ok(CRule { head, pos, pos_binop, neg, cmps, conds, nvars: vars.len() })
    }

    fn compile_choice_elem(
        &mut self,
        elem: &ChoiceElement,
        vars: &mut Vec<String>,
        consts: &HashMap<String, Term>,
    ) -> Result<CChoiceElem, GroundError> {
        let atom = self.compile_atom(&elem.atom, vars, consts)?;
        let conditions = elem
            .conditions
            .iter()
            .map(|c| match c {
                Literal::Pred { negated: false, atom } => self.compile_atom(atom, vars, consts),
                _ => Err(GroundError {
                    message: "choice element conditions must be positive atoms".into(),
                }),
            })
            .collect::<Result<_, _>>()?;
        Ok(CChoiceElem { atom, conditions })
    }

    fn compile_minimize(
        &mut self,
        m: &crate::ast::MinimizeElement,
        consts: &HashMap<String, Term>,
    ) -> Result<CMinimize, GroundError> {
        let mut vars = Vec::new();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut cmps = Vec::new();
        for c in &m.conditions {
            match c {
                Literal::Pred { negated: false, atom } => {
                    pos.push(self.compile_atom(atom, &mut vars, consts)?)
                }
                Literal::Pred { negated: true, atom } => {
                    neg.push(self.compile_atom(atom, &mut vars, consts)?)
                }
                Literal::Cmp { op, lhs, rhs } => cmps.push(CCmp {
                    op: *op,
                    lhs: self.compile_term(lhs, &mut vars, consts)?,
                    rhs: self.compile_term(rhs, &mut vars, consts)?,
                }),
            }
        }
        let weight = self.compile_term(&m.weight, &mut vars, consts)?;
        let priority = self.compile_term(&m.priority, &mut vars, consts)?;
        let terms = m
            .terms
            .iter()
            .map(|t| self.compile_term(t, &mut vars, consts))
            .collect::<Result<_, _>>()?;
        Ok(CMinimize { weight, priority, terms, pos, neg, cmps, nvars: vars.len() })
    }

    fn intern_ground_atom(
        &mut self,
        atom: &Atom,
        consts: &HashMap<String, Term>,
    ) -> Result<GroundAtom, GroundError> {
        let mut vars = Vec::new();
        let catom = self.compile_atom(atom, &mut vars, consts)?;
        if !vars.is_empty() {
            return Err(GroundError { message: format!("fact {atom} is not ground") });
        }
        let subst: Vec<Option<Val>> = Vec::new();
        instantiate_atom(&catom, &subst)
            .ok_or_else(|| GroundError { message: format!("cannot evaluate fact {atom}") })
    }

    // ---- phase 1 ----------------------------------------------------------------------

    fn phase1_rule(
        &mut self,
        rule: &CRule,
        ground: &mut GroundProgram,
        delta_set: &AtomBitSet,
        delta_by_pred: &FxHashMap<SymbolId, Vec<AtomId>>,
        first_round: bool,
        new_atoms: &mut Vec<AtomId>,
    ) -> Result<(), GroundError> {
        // Nothing to derive for constraints in phase 1.
        if matches!(rule.head, CHead::None) {
            return Ok(());
        }
        let mut subst = vec![None; rule.nvars];
        if first_round {
            // Every atom is "new": one unrestricted (planned) join covers everything.
            return self.join_all(
                rule,
                ground,
                &mut subst,
                &mut |this, ground, subst, _matched| {
                    for cmp in &rule.cmps {
                        if let Some(false) = eval_cmp(cmp, subst) {
                            return Ok(());
                        }
                    }
                    this.derive_head(rule, ground, subst, new_atoms)
                },
            );
        }
        // Body-less rules cannot fire anything new after the first round.
        if rule.pos.is_empty() {
            return Ok(());
        }
        // Semi-naive, occurrence-driven: for each body literal whose predicate gained
        // atoms last round, match each delta atom against that literal once, then join
        // only the remaining literals. Literals *left* of the delta literal are
        // restricted to old atoms so every derivation is produced exactly once.
        let mut order: Vec<usize> = Vec::with_capacity(rule.pos.len());
        let mut matched: Vec<AtomId> = vec![0; rule.pos.len()];
        let mut on_match = |this: &mut Grounder<'a>,
                            ground: &mut GroundProgram,
                            subst: &[Option<Val>],
                            _matched: &[AtomId]| {
            for cmp in &rule.cmps {
                if let Some(false) = eval_cmp(cmp, subst) {
                    return Ok(());
                }
            }
            this.derive_head(rule, ground, subst, new_atoms)
        };
        for i in 0..rule.pos.len() {
            let Some(datoms) = delta_by_pred.get(&rule.pos[i].pred) else { continue };
            if datoms.is_empty() {
                continue;
            }
            if rule.pos_binop[i] {
                // The delta literal has an arithmetic argument, so it cannot be bound
                // before the variables inside the term: run a full planned join with
                // this literal restricted to delta atoms instead.
                order.clear();
                order.extend(0..rule.pos.len());
                self.join_ordered(
                    rule,
                    &mut order,
                    0,
                    i,
                    i,
                    Some(delta_set),
                    ground,
                    &mut subst,
                    &mut matched,
                    &mut on_match,
                )?;
                continue;
            }
            for &cand in datoms {
                let mut touched = [0usize; MAX_ARITY];
                let Some(nb) =
                    match_into_subst(&ground.atoms, cand, &rule.pos[i], &mut subst, &mut touched)
                else {
                    continue;
                };
                if !rule.cmps.iter().any(|c| eval_cmp(c, &subst) == Some(false)) {
                    matched[i] = cand;
                    order.clear();
                    order.extend((0..rule.pos.len()).filter(|&j| j != i));
                    self.join_ordered(
                        rule,
                        &mut order,
                        0,
                        i,
                        usize::MAX,
                        Some(delta_set),
                        ground,
                        &mut subst,
                        &mut matched,
                        &mut on_match,
                    )?;
                }
                for &slot in &touched[..nb] {
                    subst[slot] = None;
                }
            }
        }
        Ok(())
    }

    fn derive_head(
        &mut self,
        rule: &CRule,
        ground: &mut GroundProgram,
        subst: &[Option<Val>],
        new_atoms: &mut Vec<AtomId>,
    ) -> Result<(), GroundError> {
        match &rule.head {
            CHead::None => {}
            CHead::Atom(atom) => {
                let mut scratch = std::mem::take(&mut self.scratch_atom);
                let ok = instantiate_into(atom, subst, &mut scratch);
                if !ok {
                    self.scratch_atom = scratch;
                    return Err(GroundError {
                        message: "unsafe rule: head variables not bound by positive body".into(),
                    });
                }
                let (id, new) = ground.atoms.intern_ref(&scratch);
                self.scratch_atom = scratch;
                if new {
                    new_atoms.push(id);
                }
            }
            CHead::Choice { elements, .. } => {
                let mut scratch = std::mem::take(&mut self.scratch_atom);
                let mut matched = Vec::new();
                for elem in elements {
                    let mut local = subst.to_vec();
                    self.expand_conditions(
                        &elem.conditions,
                        0,
                        ground,
                        &mut local,
                        &mut matched,
                        false,
                        &mut |ground, local, _| {
                            if instantiate_into(&elem.atom, local, &mut scratch) {
                                let (id, new) = ground.atoms.intern_ref(&scratch);
                                if new {
                                    new_atoms.push(id);
                                }
                            }
                            Ok(())
                        },
                    )?;
                }
                self.scratch_atom = scratch;
            }
        }
        Ok(())
    }

    // ---- phase 2 ----------------------------------------------------------------------

    fn phase2_rule(
        &mut self,
        ri: usize,
        rule: &CRule,
        ground: &mut GroundProgram,
        sink: &mut Sink<'_>,
    ) -> Result<(), GroundError> {
        // Instances are processed directly in the join callback: the only mutation the
        // processing performs on the atom table is re-interning atoms that phase 1
        // already discovered (the fixpoint is complete), so the join's snapshot
        // iteration stays valid and no substitution needs to be copied.
        let mut subst = vec![None; rule.nvars];
        self.join_all(rule, ground, &mut subst, &mut |this, ground, inst, matched| {
            this.phase2_instance(ri, rule, ground, inst, matched, sink)
        })?;
        Ok(())
    }

    /// Record one complete phase-2 substitution of a rule in full (see [`Record`]),
    /// then either freeze the record or simplify and emit it.
    fn phase2_instance(
        &mut self,
        ri: usize,
        rule: &CRule,
        ground: &mut GroundProgram,
        inst: &[Option<Val>],
        matched: &[AtomId],
        sink: &mut Sink<'_>,
    ) -> Result<(), GroundError> {
        for cmp in &rule.cmps {
            match eval_cmp(cmp, inst) {
                Some(true) => {}
                Some(false) => return Ok(()),
                None => {
                    return Err(GroundError {
                        message: "comparison with unbound variables (unsafe rule)".into(),
                    })
                }
            }
        }
        let mut rec = std::mem::take(&mut self.record);
        rec.clear();
        let built = self.record_instance(rule, ground, inst, matched, &mut rec);
        if let Ok(bounds) = built {
            match sink {
                Sink::Freeze(frozen) => frozen.push_record(ri, bounds, &mut rec),
                Sink::Emit(seen) => {
                    let (mut pos, mut neg, mut heads) = std::mem::take(&mut self.buffers);
                    let atoms = &ground.atoms;
                    let view = |a: AtomId| Some((a, atoms.is_certain(a)));
                    let out =
                        simplify(bounds.is_some(), &rec, view, &mut pos, &mut neg, &mut heads);
                    emit(ground, seen, out, bounds, &pos, &neg, &heads);
                    self.buffers = (pos, neg, heads);
                }
            }
        }
        self.record = rec;
        built.map(|_| ())
    }

    /// Write the record body of one instance into `rec`; returns a choice's bounds.
    #[allow(clippy::type_complexity)]
    fn record_instance(
        &mut self,
        rule: &CRule,
        ground: &mut GroundProgram,
        inst: &[Option<Val>],
        matched: &[AtomId],
        rec: &mut Vec<u32>,
    ) -> Result<Option<(Option<i64>, Option<i64>)>, GroundError> {
        // Positive body: the join matched each literal against a concrete atom.
        rec.push(matched.len() as u32);
        rec.extend_from_slice(matched);
        let at = rec.len();
        rec.push(0);
        for a in &rule.neg {
            self.negative_candidates(a, inst, ground, rec)?;
        }
        rec[at] = (rec.len() - at - 1) as u32;
        // Conditional literals expand to conjunctions over certain condition facts.
        let at = rec.len();
        rec.push(0);
        let mut scratch = std::mem::take(&mut self.scratch_atom);
        let mut conds: Vec<AtomId> = Vec::new();
        for cond in &rule.conds {
            let mut local = inst.to_vec();
            self.expand_conditions(
                &cond.conditions,
                0,
                ground,
                &mut local,
                &mut conds,
                true,
                &mut |ground, local, conditions| {
                    let atom = match instantiate_into(&cond.atom, local, &mut scratch) {
                        true => ground.atoms.get(&scratch).unwrap_or(NO_ATOM),
                        false => BAD_ATOM,
                    };
                    let negated = if cond.negated { NEGATED } else { 0 };
                    rec.push(conditions.len() as u32 | negated);
                    rec.extend_from_slice(conditions);
                    rec.push(atom);
                    rec[at] += 1;
                    Ok(())
                },
            )?;
        }
        let result = match &rule.head {
            CHead::None => {
                rec.push(0);
                Ok(None)
            }
            CHead::Atom(atom) => {
                if instantiate_into(atom, inst, &mut scratch) {
                    rec.extend_from_slice(&[1, 0, ground.atoms.intern_ref(&scratch).0]);
                    Ok(None)
                } else {
                    Err(GroundError { message: "unsafe rule: head variables not bound".into() })
                }
            }
            CHead::Choice { lower, upper, elements } => {
                let bound = |t: &Option<CTerm>, which: &str| {
                    t.as_ref()
                        .map(|t| {
                            eval_int(t, inst).ok_or_else(|| GroundError {
                                message: format!("choice {which} bound must be an integer"),
                            })
                        })
                        .transpose()
                };
                let bounds = (bound(lower, "lower")?, bound(upper, "upper")?);
                // Elements expand over *possible* conditions: these are the
                // derivations phase 1 used; simplification keeps the certain ones.
                rec.push(0);
                let at = rec.len() - 1;
                for elem in elements {
                    let mut local = inst.to_vec();
                    self.expand_conditions(
                        &elem.conditions,
                        0,
                        ground,
                        &mut local,
                        &mut conds,
                        false,
                        &mut |ground, local, conditions| {
                            if instantiate_into(&elem.atom, local, &mut scratch) {
                                rec.push(conditions.len() as u32);
                                rec.extend_from_slice(conditions);
                                rec.push(ground.atoms.intern_ref(&scratch).0);
                                rec[at] += 1;
                            }
                            Ok(())
                        },
                    )?;
                }
                Ok(Some(bounds))
            }
        };
        self.scratch_atom = scratch;
        result
    }

    /// Append every possible candidate of a negative literal to `rec`. A wildcard
    /// (`not hash(P, _)`, "no instance exists") enumerates the possible atoms matching
    /// the bound arguments, narrowed through the sharpest index they admit.
    fn negative_candidates(
        &mut self,
        atom: &CAtom,
        inst: &[Option<Val>],
        ground: &GroundProgram,
        rec: &mut Vec<u32>,
    ) -> Result<(), GroundError> {
        if atom.args.iter().any(|a| matches!(a, CTerm::Wildcard)) {
            let (key, _) = best_key(atom, inst, &ground.atoms);
            for &cand in key_slice(&ground.atoms, &key) {
                if atom_matches_bound(atom, inst, ground.atoms.atom(cand)) {
                    rec.push(cand);
                }
            }
            return Ok(());
        }
        let mut scratch = std::mem::take(&mut self.scratch_atom);
        let ok = instantiate_into(atom, inst, &mut scratch);
        let found = if ok { ground.atoms.get(&scratch) } else { None };
        self.scratch_atom = scratch;
        if !ok {
            return Err(GroundError {
                message: "unsafe rule: negative literal with unbound variables".into(),
            });
        }
        rec.extend(found);
        Ok(())
    }

    // ---- joins -------------------------------------------------------------------------

    /// Join *all* positive body literals of a rule in planner order (no delta
    /// restriction), calling `on_match` for every complete substitution.
    fn join_all(
        &mut self,
        rule: &CRule,
        ground: &mut GroundProgram,
        subst: &mut Vec<Option<Val>>,
        on_match: &mut OnJoinMatch<'_, 'a>,
    ) -> Result<(), GroundError> {
        let mut order: Vec<usize> = (0..rule.pos.len()).collect();
        let mut matched: Vec<AtomId> = vec![0; rule.pos.len()];
        self.join_ordered(
            rule,
            &mut order,
            0,
            usize::MAX,
            usize::MAX,
            None,
            ground,
            subst,
            &mut matched,
            on_match,
        )
    }

    /// Join the positive body literals listed in `order[done..]`, calling `on_match`
    /// for every complete substitution.
    ///
    /// At each depth the *most selective* remaining literal (fewest candidates under
    /// the current bindings, after index selection) is joined next; `order[done..]` is
    /// permuted in place to record the choice. Candidate lists are iterated by
    /// position with the slice re-fetched per step, because `on_match` may intern new
    /// atoms (append-only indexes make entries below the snapshot length stable).
    ///
    /// Semi-naive restriction: when `delta` is given, literals with an original index
    /// `< delta_pos` (the literal already matched against a delta atom by the caller)
    /// only match atoms *outside* the delta, so each derivation is found exactly once
    /// per round. When `delta_exact` names a literal, that literal only matches atoms
    /// *inside* the delta (the fallback driver for delta literals with arithmetic
    /// arguments, which cannot be pre-bound by the caller).
    #[allow(clippy::too_many_arguments)]
    fn join_ordered(
        &mut self,
        rule: &CRule,
        order: &mut Vec<usize>,
        done: usize,
        delta_pos: usize,
        delta_exact: usize,
        delta: Option<&AtomBitSet>,
        ground: &mut GroundProgram,
        subst: &mut Vec<Option<Val>>,
        matched: &mut Vec<AtomId>,
        on_match: &mut OnJoinMatch<'_, 'a>,
    ) -> Result<(), GroundError> {
        if done == order.len() {
            return on_match(self, ground, subst, matched);
        }
        // Pick the most selective *ready* remaining literal under the current
        // substitution (a literal with an unevaluable arithmetic argument must wait
        // for its binders). If none is ready, fall back to the textually first
        // remaining literal — the pre-planner join order.
        let mut best_k = usize::MAX;
        let mut best = (CandKey::Pred(rule.pos[order[done]].pred), usize::MAX);
        #[allow(clippy::needless_range_loop)] // `order` is also mutated below via swap
        for k in done..order.len() {
            if best.1 == 0 {
                break;
            }
            if rule.pos_binop[order[k]] && !literal_ready(&rule.pos[order[k]], subst) {
                continue;
            }
            let key = best_key(&rule.pos[order[k]], subst, &ground.atoms);
            if key.1 < best.1 {
                best_k = k;
                best = key;
            }
        }
        if best_k == usize::MAX {
            let first = (done..order.len()).min_by_key(|&k| order[k]).expect("non-empty");
            best_k = first;
            best = best_key(&rule.pos[order[first]], subst, &ground.atoms);
        }
        order.swap(done, best_k);
        let li = order[done];
        let (key, snapshot_len) = best;
        let mut touched = [0usize; MAX_ARITY];
        for ci in 0..snapshot_len {
            let cand = key_slice(&ground.atoms, &key)[ci];
            if let Some(d) = delta {
                if li == delta_exact {
                    if !d.contains(cand) {
                        continue;
                    }
                } else if li < delta_pos && d.contains(cand) {
                    continue;
                }
            }
            if let Some(nb) =
                match_into_subst(&ground.atoms, cand, &rule.pos[li], subst, &mut touched)
            {
                matched[li] = cand;
                // Fully bound comparisons prune the join as early as possible.
                if !rule.cmps.iter().any(|c| eval_cmp(c, subst) == Some(false)) {
                    self.join_ordered(
                        rule,
                        order,
                        done + 1,
                        delta_pos,
                        delta_exact,
                        delta,
                        ground,
                        subst,
                        matched,
                        on_match,
                    )?;
                }
                for &slot in &touched[..nb] {
                    subst[slot] = None;
                }
            }
        }
        Ok(())
    }

    /// Expand a list of condition atoms (which must match input facts when
    /// `certain_only`, or any possible atom otherwise) over all groundings, calling
    /// `on_match` for each complete assignment of the condition variables together
    /// with the atoms matched (`matched` is the stack of those; empty on entry).
    #[allow(clippy::too_many_arguments)]
    fn expand_conditions(
        &mut self,
        conditions: &[CAtom],
        index: usize,
        ground: &mut GroundProgram,
        subst: &mut Vec<Option<Val>>,
        matched: &mut Vec<AtomId>,
        certain_only: bool,
        on_match: &mut OnConditionMatch<'_>,
    ) -> Result<(), GroundError> {
        if index == conditions.len() {
            return on_match(ground, subst, matched);
        }
        let atom = &conditions[index];
        let (key, snapshot_len) = best_key(atom, subst, &ground.atoms);
        let mut touched = [0usize; MAX_ARITY];
        for ci in 0..snapshot_len {
            let cand = key_slice(&ground.atoms, &key)[ci];
            if certain_only && !ground.atoms.is_certain(cand) {
                continue;
            }
            if let Some(nb) = match_into_subst(&ground.atoms, cand, atom, subst, &mut touched) {
                matched.push(cand);
                self.expand_conditions(
                    conditions,
                    index + 1,
                    ground,
                    subst,
                    matched,
                    certain_only,
                    on_match,
                )?;
                matched.pop();
                for &slot in &touched[..nb] {
                    subst[slot] = None;
                }
            }
        }
        Ok(())
    }

    // ---- minimize -----------------------------------------------------------------------

    /// Ground one minimize statement: `sink` receives every condition instance in
    /// full (callers simplify it against their view, see [`simplify_condition`]).
    fn ground_minimize(
        &mut self,
        m: &CMinimize,
        ground: &GroundProgram,
        sink: &mut MinimizeSink<'_>,
    ) -> Result<(), GroundError> {
        let mut subst = vec![None; m.nvars];
        self.join_minimize(m, 0, ground, &mut subst, sink)
    }

    /// Join a minimize statement's positive conditions over the possible atoms,
    /// binding in place like every other join path (`ground` is immutable here, so
    /// candidate slices are iterated directly).
    fn join_minimize(
        &mut self,
        m: &CMinimize,
        index: usize,
        ground: &GroundProgram,
        subst: &mut Vec<Option<Val>>,
        sink: &mut MinimizeSink<'_>,
    ) -> Result<(), GroundError> {
        if index < m.pos.len() {
            let atom = &m.pos[index];
            let (key, _) = best_key(atom, subst, &ground.atoms);
            let mut touched = [0usize; MAX_ARITY];
            for &cand in key_slice(&ground.atoms, &key) {
                if let Some(nb) = match_into_subst(&ground.atoms, cand, atom, subst, &mut touched) {
                    self.join_minimize(m, index + 1, ground, subst, sink)?;
                    for &slot in &touched[..nb] {
                        subst[slot] = None;
                    }
                }
            }
            return Ok(());
        }
        let subst = &*subst;
        // Complete substitution: evaluate comparisons, weight, priority, terms.
        if m.cmps.iter().any(|cmp| eval_cmp(cmp, subst) != Some(true)) {
            return Ok(());
        }
        let weight = eval_int(&m.weight, subst).ok_or_else(|| GroundError {
            message: "minimize weight must evaluate to an integer".into(),
        })?;
        let priority = eval_int(&m.priority, subst).ok_or_else(|| GroundError {
            message: "minimize priority must evaluate to an integer".into(),
        })?;
        let terms: Vec<Val> =
            m.terms.iter().map(|t| eval_term(t, subst)).collect::<Option<_>>().ok_or_else(
                || GroundError { message: "minimize tuple terms must be bound".into() },
            )?;
        let mut scratch = std::mem::take(&mut self.scratch_atom);
        let mut pos = Vec::with_capacity(m.pos.len());
        for a in &m.pos {
            assert!(instantiate_into(a, subst, &mut scratch), "bound by join");
            pos.push(ground.atoms.get(&scratch).expect("possible"));
        }
        let mut neg = Vec::new();
        for a in &m.neg {
            if !instantiate_into(a, subst, &mut scratch) {
                self.scratch_atom = scratch;
                return Err(GroundError {
                    message: "negative minimize condition with unbound variables".into(),
                });
            }
            neg.extend(ground.atoms.get(&scratch));
        }
        self.scratch_atom = scratch;
        sink((priority, weight, terms), &pos, &neg);
        Ok(())
    }
}

/// The emission order of a condition whose key has base rank `rank` (keys the base
/// lacks order before `rank`'s key by a smaller low half).
fn ranked(rank: u32) -> u64 {
    (rank as u64) << 32 | u32::MAX as u64
}

/// The simplified minimize conditions of one grounding, collected for
/// [`MinimizeConditions::emit`].
#[derive(Debug, Default)]
struct MinimizeConditions {
    /// `(emission order, arena offset)` per condition, in collection order.
    conds: Vec<(u64, u32)>,
    /// The condition bodies: `npos pos.. nneg neg..` each.
    arena: Vec<AtomId>,
    /// Conditions collected with their key by value: `(index into conds, key)`.
    keyed: Vec<(u32, TupleKey)>,
}

impl MinimizeConditions {
    fn push(&mut self, order: u64, pos: &[AtomId], neg: &[AtomId]) {
        self.conds.push((order, self.arena.len() as u32));
        self.arena.push(pos.len() as u32);
        self.arena.extend_from_slice(pos);
        self.arena.push(neg.len() as u32);
        self.arena.extend_from_slice(neg);
    }

    /// A condition of a frozen tuple whose key has base rank `rank`.
    fn push_ranked(&mut self, rank: u32, pos: &[AtomId], neg: &[AtomId]) {
        self.push(ranked(rank), pos, neg);
    }

    /// A condition of a statement ground here, with its key.
    fn push_keyed(&mut self, key: TupleKey, pos: &[AtomId], neg: &[AtomId]) {
        self.keyed.push((self.conds.len() as u32, key));
        self.push(0, pos, neg);
    }

    /// The `(positive, negative)` atoms of the condition at `off`.
    fn body(&self, off: u32) -> (&[AtomId], &[AtomId]) {
        let body = &self.arena[off as usize..];
        let (npos, rest) = (body[0] as usize, &body[1..]);
        let (pos, rest) = rest.split_at(npos);
        (pos, &rest[1..1 + rest[0] as usize])
    }

    /// Emit the minimize conditions grouped by tuple key, in key order: a key paid
    /// unconditionally, a key with one single-atom condition on that atom, any other
    /// key on an auxiliary `__opt_tuple(n)` atom defined by one rule per condition.
    /// `keys` are a base's ranked keys ([`Frozen::rank_keys`]); a key collected by
    /// value takes its rank there, or slots in before the next larger one. The
    /// auxiliary atoms are appended unindexed: every join is over by now.
    fn emit(mut self, keys: &[TupleKey], aux_pred: SymbolId, ground: &mut GroundProgram) {
        // Keys the base lacks, in key order: `(priority, weight)` by their sub-order.
        let mut unranked: Vec<(i64, i64)> = Vec::new();
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.sort_by(|a, b| a.1.cmp(&b.1));
        for (i, (c, key)) in keyed.iter().enumerate() {
            self.conds[*c as usize].0 = match keys.binary_search(key) {
                Ok(rank) => ranked(rank as u32),
                Err(slot) => {
                    if i == 0 || keyed[i - 1].1 != *key {
                        unranked.push((key.0, key.1));
                    }
                    (slot as u64) << 32 | (unranked.len() - 1) as u64
                }
            };
        }
        self.conds.sort_by_key(|c| c.0); // stable: collection order within a key
        let mut counter: i64 = 0;
        for group in self.conds.chunk_by(|a, b| a.0 == b.0) {
            let (priority, weight) = match group[0].0 as u32 {
                u32::MAX => {
                    let key = &keys[(group[0].0 >> 32) as usize];
                    (key.0, key.1)
                }
                sub => unranked[sub as usize],
            };
            let bodies = || group.iter().map(|&(_, off)| self.body(off));
            // A key with any empty condition always contributes.
            if bodies().any(|(p, n)| p.is_empty() && n.is_empty()) {
                ground.minimize.push(GroundMinimize { priority, weight, condition: None });
                continue;
            }
            // A key with a single, single-atom positive condition uses that atom directly.
            if let [(_, off)] = group {
                if let (&[atom], &[]) = self.body(*off) {
                    let condition = Some(atom);
                    ground.minimize.push(GroundMinimize { priority, weight, condition });
                    continue;
                }
            }
            // General case: an auxiliary atom defined by one rule per condition.
            counter += 1;
            let aux = GroundAtom::new(aux_pred, vec![Val::Int(counter)]);
            let aux = ground.atoms.push_unindexed(aux);
            for (pos, neg) in bodies() {
                ground.rules.push(GroundRule { head: Some(aux), pos, neg });
            }
            ground.minimize.push(GroundMinimize { priority, weight, condition: Some(aux) });
        }
    }
}

// ---- phase-2 simplification ------------------------------------------------------------

/// What a full instance simplifies to under a view of the atom table.
enum Simplified {
    /// A body literal is contradicted (or the head is certain): no instance.
    Discarded,
    /// A normal rule (`Some(head)`) or a constraint (`None`).
    Rule(Option<AtomId>),
    /// A choice rule; its heads are in the `heads` buffer.
    Choice,
}

/// Simplify a condition (`pos`, `neg`: every matched positive atom, every possible
/// negative candidate) against a view, exactly as gringo does (Fig. 3): certain
/// positive atoms are dropped, an impossible one discards the condition; impossible
/// negative atoms are dropped, a certain one discards it. `view(a)` is `None` when `a`
/// is impossible in the view, else its id there and whether it is certain.
fn simplify_condition<V: Fn(AtomId) -> Option<(AtomId, bool)>>(
    pos: &[AtomId],
    neg: &[AtomId],
    view: &V,
    out_pos: &mut Vec<AtomId>,
    out_neg: &mut Vec<AtomId>,
) -> bool {
    out_pos.clear();
    out_neg.clear();
    for &b in pos {
        match view(b) {
            None => return false,
            Some((id, false)) => out_pos.push(id),
            Some((_, true)) => {}
        }
    }
    for &c in neg {
        match view(c) {
            None => {}
            Some((id, false)) => out_neg.push(id),
            Some((_, true)) => return false,
        }
    }
    true
}

/// Simplify one full instance record (see [`Record`]) against a view: the condition
/// first, then the conditional-literal elements whose conditions are certain in the
/// view (a non-negated element on an impossible atom, or a negated one on a certain
/// atom, discards the instance), then the head (a certain head discards a normal
/// rule; a choice keeps the elements whose conditions are certain).
fn simplify<V: Fn(AtomId) -> Option<(AtomId, bool)>>(
    choice: bool,
    body: &[u32],
    view: V,
    pos: &mut Vec<AtomId>,
    neg: &mut Vec<AtomId>,
    heads: &mut Vec<AtomId>,
) -> Simplified {
    let npos = body[0] as usize;
    let nneg = body[1 + npos] as usize;
    if !simplify_condition(&body[1..1 + npos], &body[2 + npos..2 + npos + nneg], &view, pos, neg) {
        return Simplified::Discarded;
    }
    let certain = |a: AtomId| matches!(view(a), Some((_, true)));
    let mut discarded = false;
    heads.clear();
    walk(body, |section, slots| {
        if section < 2 || discarded {
            return;
        }
        let (conditions, atom) = (&body[slots.start..slots.end - 1], body[slots.end - 1]);
        if !conditions.iter().all(|&c| certain(c)) {
            return;
        }
        let seen = match atom {
            BAD_ATOM => return discarded = true,
            NO_ATOM => None,
            a => view(a),
        };
        let negated = body[slots.start - 1] & NEGATED != 0;
        match (section, seen, negated) {
            // A normal rule's head: certain (the instance is redundant) or not
            // derivable (no instance).
            (3, Some((_, true)), _) | (3, None, _) if !choice => discarded = true,
            (3, Some((id, _)), _) => heads.push(id),
            (3, None, _) => {}
            (_, None, false) | (_, Some((_, true)), true) => discarded = true,
            (_, None, true) | (_, Some((_, true)), false) => {}
            (_, Some((id, false)), true) => neg.push(id),
            (_, Some((id, false)), false) => pos.push(id),
        }
    });
    if discarded {
        return Simplified::Discarded;
    }
    for ids in [pos, neg, heads] {
        ids.sort_unstable();
        ids.dedup();
    }
    match choice {
        true => Simplified::Choice,
        false => Simplified::Rule(heads.first().copied()),
    }
}

/// Add one simplified instance to a ground program: rules deduplicated through
/// `seen`, an empty constraint marking the program trivially unsatisfiable.
fn emit(
    ground: &mut GroundProgram,
    seen: &mut RuleDedup,
    out: Simplified,
    bounds: Option<(Option<i64>, Option<i64>)>,
    pos: &[AtomId],
    neg: &[AtomId],
    heads: &[AtomId],
) {
    match out {
        Simplified::Discarded => {}
        Simplified::Rule(head) => {
            if head.is_none() && pos.is_empty() && neg.is_empty() {
                ground.trivially_unsat = true;
            }
            seen.push_if_new(GroundRule { head, pos, neg }, &mut ground.rules);
        }
        Simplified::Choice => {
            let (lower, upper) = bounds.expect("choice records carry bounds");
            ground.choices.push(GroundChoice { heads, lower, upper, pos, neg });
        }
    }
}

// ---- term / atom evaluation helpers ---------------------------------------------------

fn eval_term(term: &CTerm, subst: &[Option<Val>]) -> Option<Val> {
    match term {
        CTerm::Val(v) => Some(*v),
        CTerm::Var(i) => subst[*i],
        CTerm::Wildcard => None,
        CTerm::BinOp(op, a, b) => {
            let a = eval_term(a, subst)?;
            let b = eval_term(b, subst)?;
            match (a, b) {
                (Val::Int(x), Val::Int(y)) => Some(Val::Int(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                })),
                _ => None,
            }
        }
    }
}

fn eval_int(term: &CTerm, subst: &[Option<Val>]) -> Option<i64> {
    match eval_term(term, subst) {
        Some(Val::Int(i)) => Some(i),
        _ => None,
    }
}

fn eval_cmp(cmp: &CCmp, subst: &[Option<Val>]) -> Option<bool> {
    let lhs = eval_term(&cmp.lhs, subst)?;
    let rhs = eval_term(&cmp.rhs, subst)?;
    Some(match cmp.op {
        CmpOp::Eq => lhs == rhs,
        CmpOp::Ne => lhs != rhs,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => match (lhs, rhs) {
            (Val::Int(a), Val::Int(b)) => match cmp.op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
                _ => unreachable!(),
            },
            // Ordered comparisons are only defined for integers in this dialect.
            _ => false,
        },
    })
}

/// Instantiate a compiled atom into a reusable buffer (no allocation when the
/// buffer's capacity suffices). Returns `false` when a term is unbound.
fn instantiate_into(atom: &CAtom, subst: &[Option<Val>], out: &mut GroundAtom) -> bool {
    out.pred = atom.pred;
    out.args.clear();
    for t in &atom.args {
        match eval_term(t, subst) {
            Some(v) => out.args.push(v),
            None => return false,
        }
    }
    true
}

fn instantiate_atom(atom: &CAtom, subst: &[Option<Val>]) -> Option<GroundAtom> {
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        args.push(eval_term(t, subst)?);
    }
    Some(GroundAtom::new(atom.pred, args))
}

/// Does a possible ground atom match a compiled atom given the current (partial)
/// substitution, considering only already-bound variables and constants? Wildcards and
/// unbound variables match anything.
fn atom_matches_bound(atom: &CAtom, subst: &[Option<Val>], ga: &GroundAtom) -> bool {
    if atom.pred != ga.pred || atom.args.len() != ga.args.len() {
        return false;
    }
    for (t, &v) in atom.args.iter().zip(ga.args.iter()) {
        match t {
            CTerm::Wildcard => {}
            CTerm::Var(i) => {
                if let Some(bound) = subst[*i] {
                    if bound != v {
                        return false;
                    }
                }
            }
            other => match eval_term(other, subst) {
                Some(val) if val == v => {}
                Some(_) => return false,
                None => {}
            },
        }
    }
    true
}

/// Match the table atom `cand` against a compiled atom, binding unbound variables
/// *directly* in `subst`. The slots newly bound are recorded in `touched` (the caller
/// resets them on backtrack); on a failed match every partial binding is undone before
/// returning `None`. Returns the number of touched slots on a match.
///
/// Binding in place (instead of a side list) keeps the join allocation-free, makes
/// repeated variables inside one atom unify naturally, and lets arithmetic terms over
/// variables bound by *earlier* arguments of the same atom evaluate.
fn match_into_subst(
    atoms: &AtomTable,
    cand: AtomId,
    atom: &CAtom,
    subst: &mut [Option<Val>],
    touched: &mut [usize; MAX_ARITY],
) -> Option<usize> {
    let ga = atoms.atom(cand);
    if atom.pred != ga.pred || atom.args.len() != ga.args.len() {
        return None;
    }
    let mut n = 0;
    for (t, &v) in atom.args.iter().zip(ga.args.iter()) {
        let ok = match t {
            CTerm::Wildcard => true,
            CTerm::Var(i) => match subst[*i] {
                Some(bound) => bound == v,
                None => {
                    subst[*i] = Some(v);
                    touched[n] = *i;
                    n += 1;
                    true
                }
            },
            other => matches!(eval_term(other, subst), Some(val) if val == v),
        };
        if !ok {
            for &slot in &touched[..n] {
                subst[slot] = None;
            }
            return None;
        }
    }
    Some(n)
}

/// The index list chosen for one body literal under the current substitution. The key
/// is stable across interning (indexes are append-only), so the join can re-fetch the
/// backing slice cheaply while the atom table grows.
#[derive(Debug, Clone, Copy)]
enum CandKey {
    /// All atoms of the predicate (no argument bound).
    Pred(SymbolId),
    /// Single bound argument: `(pred, position, value)`.
    Arg(SymbolId, u8, Val),
    /// Two bound arguments: `(pred, pos₁, val₁, pos₂, val₂)` with `pos₁ < pos₂`.
    Args2(SymbolId, u8, Val, u8, Val),
}

/// The candidate slice a [`CandKey`] denotes, re-fetched from the current table state.
fn key_slice<'t>(atoms: &'t AtomTable, key: &CandKey) -> &'t [AtomId] {
    match *key {
        CandKey::Pred(p) => atoms.with_pred(p),
        CandKey::Arg(p, pos, v) => atoms.with_pred_arg(p, pos, v),
        CandKey::Args2(p, p1, v1, p2, v2) => atoms.with_pred_args2(p, p1, v1, p2, v2),
    }
}

/// Does any argument of this atom contain an arithmetic term? Such literals can only
/// be joined once the variables inside the term are bound (matching evaluates the
/// term), so the planner must not order them before their binders.
fn has_binop_arg(atom: &CAtom) -> bool {
    atom.args.iter().any(|t| matches!(t, CTerm::BinOp(..)))
}

/// Is this literal joinable *now*: every arithmetic argument evaluates under the
/// current substitution? (Plain variables bind during matching and constants always
/// evaluate, so only `BinOp` arguments gate readiness.)
fn literal_ready(atom: &CAtom, subst: &[Option<Val>]) -> bool {
    atom.args.iter().all(|t| match t {
        CTerm::BinOp(..) => eval_term(t, subst).is_some(),
        _ => true,
    })
}

/// Choose the most selective available index for `atom` under `subst`: evaluate every
/// argument, compare the single-argument candidate lists of all bound positions, and —
/// when at least two of the first [`AtomTable::MAX_PAIR_INDEXED_ARGS`] positions are
/// bound — the pair index over the two individually most selective ones. Returns the
/// winning key together with its candidate count (the join planner's selectivity
/// measure).
fn best_key(atom: &CAtom, subst: &[Option<Val>], atoms: &AtomTable) -> (CandKey, usize) {
    let mut best = CandKey::Pred(atom.pred);
    let mut best_len = atoms.with_pred(atom.pred).len();
    if best_len == 0 {
        return (best, 0);
    }
    // The two individually most selective bound positions eligible for the pair index.
    let mut pair: [Option<(u8, Val, usize)>; 2] = [None, None];
    for (pos, t) in atom.args.iter().enumerate().take(u8::MAX as usize) {
        let val = match t {
            CTerm::Val(v) => Some(*v),
            CTerm::Var(i) => subst[*i],
            CTerm::Wildcard => None,
            CTerm::BinOp(..) => eval_term(t, subst),
        };
        let Some(v) = val else { continue };
        let len = atoms.with_pred_arg(atom.pred, pos as u8, v).len();
        if len < best_len {
            best = CandKey::Arg(atom.pred, pos as u8, v);
            best_len = len;
        }
        if pos < AtomTable::MAX_PAIR_INDEXED_ARGS {
            let entry = Some((pos as u8, v, len));
            if pair[0].is_none_or(|(_, _, l)| len < l) {
                pair[1] = pair[0];
                pair[0] = entry;
            } else if pair[1].is_none_or(|(_, _, l)| len < l) {
                pair[1] = entry;
            }
        }
    }
    if atoms.pair_indexing() {
        if let (Some((p1, v1, _)), Some((p2, v2, _))) = (pair[0], pair[1]) {
            let ((p1, v1), (p2, v2)) =
                if p1 < p2 { ((p1, v1), (p2, v2)) } else { ((p2, v2), (p1, v1)) };
            let len = atoms.with_pred_args2(atom.pred, p1, v1, p2, v2).len();
            if len < best_len {
                best = CandKey::Args2(atom.pred, p1, v1, p2, v2);
                best_len = len;
            }
        }
    }
    (best, best_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn ground_text(text: &str) -> (GroundProgram, SymbolTable) {
        let program = parse_program(text).unwrap();
        let mut symbols = SymbolTable::new();
        let ground = Grounder::new(&mut symbols).ground(&program, &[]).unwrap();
        (ground, symbols)
    }

    fn atom_names(ground: &GroundProgram, symbols: &SymbolTable) -> Vec<String> {
        ground.atoms.iter().map(|(_, a)| a.display(symbols).to_string()).collect()
    }

    #[test]
    fn fig3_grounding_derives_transitive_nodes() {
        // The example of Fig. 3 in the paper.
        let (ground, symbols) = ground_text(
            r#"
            depends_on(a, b).
            depends_on(a, c).
            depends_on(b, d).
            depends_on(c, d).
            node(Dep) :- node(Pkg), depends_on(Pkg, Dep).
            1 { node(a); node(b) }.
            "#,
        );
        let names = atom_names(&ground, &symbols);
        for expected in ["node(a)", "node(b)", "node(c)", "node(d)"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}: {names:?}");
        }
        // The ground rules are simplified: depends_on facts do not appear in rule bodies.
        for r in &ground.rules {
            assert!(r.pos.len() <= 1, "facts should have been simplified away: {r:?}");
        }
        assert_eq!(ground.choices.len(), 1);
        assert_eq!(ground.choices.get(0).lower, Some(1));
    }

    #[test]
    fn transitive_closure_and_constraints() {
        let (ground, symbols) = ground_text(
            r#"
            depends_on(a, b).
            depends_on(b, c).
            path(A, B) :- depends_on(A, B).
            path(A, C) :- path(A, B), depends_on(B, C).
            :- path(A, B), path(B, A).
            "#,
        );
        let names = atom_names(&ground, &symbols);
        assert!(names.contains(&"path(a,c)".to_string()));
        // Constraints were grounded (though none can fire since no cycle is possible).
        assert!(
            ground.rules.iter().filter(|r| r.head.is_none()).count() > 0 || !ground.trivially_unsat
        );
    }

    #[test]
    fn negative_literal_on_fact_discards_instance() {
        let (ground, symbols) = ground_text(
            r#"
            p(1). p(2).
            q(2).
            r(X) :- p(X), not q(X).
            "#,
        );
        let names = atom_names(&ground, &symbols);
        assert!(names.contains(&"r(1)".to_string()));
        // r(2) is still a *possible* atom (phase 1 over-approximates), but no rule
        // instance can derive it: the instance was discarded because q(2) is a fact.
        let r2 = ground
            .atoms
            .iter()
            .find(|(_, a)| a.display(&symbols).to_string() == "r(2)")
            .map(|(id, _)| id);
        if let Some(r2) = r2 {
            assert!(!ground.rules.iter().any(|r| r.head == Some(r2)), "no rule may derive r(2)");
        }
    }

    #[test]
    fn choice_rule_bounds_and_conditions() {
        let (ground, symbols) = ground_text(
            r#"
            node(zlib).
            possible_version(zlib, "1.2.11").
            possible_version(zlib, "1.2.8").
            1 { version(P, V) : possible_version(P, V) } 1 :- node(P).
            "#,
        );
        assert_eq!(ground.choices.len(), 1);
        let c = ground.choices.get(0);
        assert_eq!(c.heads.len(), 2);
        assert_eq!((c.lower, c.upper), (Some(1), Some(1)));
        let names = atom_names(&ground, &symbols);
        assert!(names.contains(&"version(zlib,\"1.2.11\")".to_string()));
    }

    #[test]
    fn conditional_literal_expands_over_facts() {
        let (ground, _symbols) = ground_text(
            r#"
            condition(1).
            condition_requirement(1, n, a).
            condition_requirement(1, n, b).
            attr(n, a).
            attr(n, b).
            condition_holds(ID) :- condition(ID); attr(N, A) : condition_requirement(ID, N, A).
            "#,
        );
        // attr facts are certain, so the body simplifies completely and condition_holds(1)
        // is derivable by a rule with an empty body.
        let rule = ground.rules.iter().find(|r| r.head.is_some()).unwrap();
        assert!(rule.pos.is_empty() && rule.neg.is_empty());
    }

    #[test]
    fn conditional_literal_with_derived_attrs_stays_in_body() {
        let (ground, symbols) = ground_text(
            r#"
            condition(1).
            condition_requirement(1, n, a).
            fact(a).
            attr(N, A) :- chosen(N, A).
            { chosen(n, a) }.
            condition_holds(ID) :- condition(ID); attr(N, A) : condition_requirement(ID, N, A).
            "#,
        );
        // attr(n,a) is possible but not certain, so it must remain in the body.
        let holds_id = ground
            .atoms
            .iter()
            .find(|(_, a)| a.display(&symbols).to_string() == "condition_holds(1)")
            .map(|(id, _)| id)
            .unwrap();
        let rule = ground.rules.iter().find(|r| r.head == Some(holds_id)).unwrap();
        assert_eq!(rule.pos.len(), 1);
    }

    #[test]
    fn minimize_statements_are_grounded() {
        let (ground, _symbols) = ground_text(
            r#"
            node(a). node(b).
            possible_version(a, v1, 0).
            possible_version(a, v2, 1).
            possible_version(b, v1, 0).
            1 { version(P, V) : possible_version(P, V, W) } 1 :- node(P).
            version_weight(P, V, W) :- version(P, V), possible_version(P, V, W).
            #minimize{ W@3,P,V : version_weight(P, V, W) }.
            "#,
        );
        assert_eq!(ground.minimize.len(), 3);
        assert!(ground.minimize.iter().all(|m| m.priority == 3));
        assert!(ground.minimize.iter().all(|m| m.condition.is_some()));
    }

    #[test]
    fn wildcard_negation_covers_all_instances() {
        let (ground, symbols) = ground_text(
            r#"
            node(a). node(b).
            installed_hash(a, h1).
            installed_hash(a, h2).
            { hash(P, H) : installed_hash(P, H) } 1 :- node(P).
            build(P) :- not hash(P, _), node(P).
            "#,
        );
        // build(a) must have both hash(a,h1) and hash(a,h2) in its negative body.
        let build_a = ground
            .atoms
            .iter()
            .find(|(_, a)| a.display(&symbols).to_string() == "build(a)")
            .map(|(id, _)| id)
            .unwrap();
        let rule = ground.rules.iter().find(|r| r.head == Some(build_a)).unwrap();
        assert_eq!(rule.neg.len(), 2);
        // build(b) has no installed hashes at all: derived unconditionally.
        let build_b = ground
            .atoms
            .iter()
            .find(|(_, a)| a.display(&symbols).to_string() == "build(b)")
            .map(|(id, _)| id)
            .unwrap();
        let rule_b = ground.rules.iter().find(|r| r.head == Some(build_b)).unwrap();
        assert!(rule_b.neg.is_empty() && rule_b.pos.is_empty());
    }

    #[test]
    fn const_substitution() {
        let (ground, _symbols) = ground_text(
            r#"
            #const prio = 7.
            item(a).
            cost(X, prio) :- item(X).
            #minimize{ W@1,X : cost(X, W) }.
            "#,
        );
        assert_eq!(ground.minimize.len(), 1);
        // Weight is the substituted constant.
        assert_eq!(ground.minimize[0].weight, 7);
    }

    #[test]
    fn external_facts_participate() {
        let program = parse_program("node(D) :- node(P), depends_on(P, D).").unwrap();
        let mut symbols = SymbolTable::new();
        let node = symbols.intern("node");
        let dep = symbols.intern("depends_on");
        let a = Val::Sym(symbols.intern("hdf5"));
        let b = Val::Sym(symbols.intern("zlib"));
        let facts = vec![GroundAtom::new(node, vec![a]), GroundAtom::new(dep, vec![a, b])];
        let ground = Grounder::new(&mut symbols).ground(&program, &facts).unwrap();
        let names: Vec<String> =
            ground.atoms.iter().map(|(_, at)| at.display(&symbols).to_string()).collect();
        assert!(names.contains(&"node(zlib)".to_string()));
    }

    #[test]
    fn unsafe_rule_is_rejected() {
        let program = parse_program("p(X) :- not q(X).").unwrap();
        let mut symbols = SymbolTable::new();
        let q = symbols.intern("q");
        let a = Val::Sym(symbols.intern("a"));
        let facts = vec![GroundAtom::new(q, vec![a])];
        // The head variable X is never bound by a positive literal; grounding either
        // produces no instance (body empty) or reports an error — it must not panic.
        if let Ok(g) = Grounder::new(&mut symbols).ground(&program, &facts) {
            // If grounding succeeds, the unsafe rule must not have produced any
            // p-instance out of thin air.
            for rule in &g.rules {
                if let Some(head) = rule.head {
                    let name = g.atoms.atom(head).display(&symbols).to_string();
                    assert!(!name.starts_with("p("), "unsafe rule derived {name}");
                }
            }
        }
    }

    #[test]
    fn restriction_simplifies_excluded_negative_literals() {
        // `a :- b, not c("x").` with c("x") possible-but-uncertain: the frozen
        // instance carries neg=[c("x")]. Excluding the owner of the fact `d` that
        // makes c("x") possible must KEEP the instance with the now-impossible
        // negative literal simplified away — exactly what a from-scratch grounding of
        // the kept facts would emit — so `a` stays derivable.
        let program = parse_program(
            r#"
            a :- b, not c("x").
            { c("x") } :- d.
            b.
            "#,
        )
        .unwrap();
        let mut symbols = SymbolTable::new();
        let d = fact(&mut symbols, "d", &[]);
        let x = symbols.intern("x");
        let mut input = Facts::default();
        input.set_owners(vec![x]);
        input.push(d);
        let base = Grounder::new(&mut symbols).ground_base(&program, input).unwrap();
        let excluded: crate::hasher::FxHashSet<SymbolId> = [x].into_iter().collect();
        let none = &Facts::default();
        let ground = Grounder::new(&mut symbols).ground_delta(&base, &excluded, &[], none).unwrap();
        let a_id = ground
            .atoms
            .iter()
            .find(|(_, at)| at.display(&symbols).to_string() == "a")
            .map(|(id, _)| id)
            .expect("a must stay possible");
        let rule = ground
            .rules
            .iter()
            .find(|r| r.head == Some(a_id))
            .expect("the instance deriving `a` must survive the restriction");
        assert!(rule.neg.is_empty(), "impossible negative literal must be dropped: {rule:?}");
        assert!(ground.atoms.iter().all(|(_, at)| at.display(&symbols).to_string() != "d"));
        // And without any exclusion the negative literal stays.
        let ground = Grounder::new(&mut symbols)
            .ground_delta(&base, &crate::hasher::FxHashSet::default(), &[], none)
            .unwrap();
        let a_id = ground
            .atoms
            .iter()
            .find(|(_, at)| at.display(&symbols).to_string() == "a")
            .map(|(id, _)| id)
            .unwrap();
        let rule = ground.rules.iter().find(|r| r.head == Some(a_id)).unwrap();
        assert_eq!(rule.neg.len(), 1);
    }

    fn fact(symbols: &mut SymbolTable, pred: &str, args: &[&str]) -> GroundAtom {
        let p = symbols.intern(pred);
        let args = args.iter().map(|a| Val::Sym(symbols.intern(a))).collect();
        GroundAtom::new(p, args)
    }

    /// Everything a request can observe about a ground program, order-insensitively.
    fn render_ground(ground: &GroundProgram, symbols: &SymbolTable) -> String {
        let name = |id: AtomId| ground.atoms.atom(id).display(symbols).to_string();
        let sorted = |ids: &[AtomId]| {
            let mut v: Vec<String> = ids.iter().map(|&a| name(a)).collect();
            v.sort();
            v
        };
        let mut atoms: Vec<String> = ground
            .atoms
            .iter()
            .map(|(id, a)| {
                format!(
                    "{} certain={} external={}",
                    a.display(symbols),
                    ground.atoms.is_certain(id),
                    ground.atoms.is_external(id)
                )
            })
            .collect();
        atoms.sort();
        let mut rules: Vec<String> = ground
            .rules
            .iter()
            .map(|r| {
                format!("{:?}:-{:?},not {:?}", r.head.map(&name), sorted(r.pos), sorted(r.neg))
            })
            .collect();
        rules.sort();
        let mut choices: Vec<String> = ground
            .choices
            .iter()
            .map(|c| {
                format!(
                    "{:?}{{{:?}}}{:?}:-{:?},not {:?}",
                    c.lower,
                    sorted(c.heads),
                    c.upper,
                    sorted(c.pos),
                    sorted(c.neg)
                )
            })
            .collect();
        choices.sort();
        let mut minimize: Vec<String> = ground
            .minimize
            .iter()
            .map(|m| format!("{}@{} if {:?}", m.weight, m.priority, m.condition.map(&name)))
            .collect();
        minimize.sort();
        format!(
            "unsat={}\natoms={atoms:#?}\nrules={rules:#?}\nchoices={choices:#?}\nmin={minimize:#?}",
            ground.trivially_unsat
        )
    }

    fn freeze(symbols: &mut SymbolTable, program: &Program, facts: &[GroundAtom]) -> BaseProgram {
        Grounder::new(symbols).ground_base(program, Facts::global(facts.to_vec())).unwrap()
    }

    fn patch(
        symbols: &mut SymbolTable,
        base: &mut BaseProgram,
        facts: &[GroundAtom],
    ) -> PatchStats {
        Grounder::new(symbols).patch_base(base, Facts::global(facts.to_vec())).unwrap()
    }

    /// The unrestricted request view of a base, rendered.
    fn view(symbols: &mut SymbolTable, base: &BaseProgram) -> String {
        let none = crate::hasher::FxHashSet::default();
        let ground =
            Grounder::new(symbols).ground_delta(base, &none, &[], &Facts::default()).unwrap();
        render_ground(&ground, symbols)
    }

    const PATCH_TEST_PROGRAM: &str = r#"
        r(X) :- p(X), not q(X).
        { s(X) } :- p(X).
        t(X) :- s(X).
        #minimize{ 1@1,X : t(X) }.
    "#;

    #[test]
    fn patch_base_additions_matches_fresh_freeze() {
        let program = parse_program(PATCH_TEST_PROGRAM).unwrap();
        let mut symbols = SymbolTable::new();
        let f_a = fact(&mut symbols, "p", &["a"]);
        let f_b = fact(&mut symbols, "p", &["b"]);
        let f_q = fact(&mut symbols, "q", &["a"]);
        let mut patched = freeze(&mut symbols, &program, std::slice::from_ref(&f_a));
        let stats = patch(&mut symbols, &mut patched, &[f_a.clone(), f_b.clone(), f_q.clone()]);
        assert!(!stats.rebuilt, "pure additions must not rebuild");
        assert_eq!((stats.added_facts, stats.removed_facts), (2, 0));
        let fresh = freeze(&mut symbols, &program, &[f_a, f_b, f_q]);
        assert_eq!(view(&mut symbols, &patched), view(&mut symbols, &fresh));
    }

    #[test]
    fn patch_base_removal_rebuilds_and_roundtrips() {
        let program = parse_program(PATCH_TEST_PROGRAM).unwrap();
        let mut symbols = SymbolTable::new();
        let f_a = fact(&mut symbols, "p", &["a"]);
        let f_b = fact(&mut symbols, "p", &["b"]);
        let mut patched = freeze(&mut symbols, &program, &[f_a.clone(), f_b.clone()]);
        // Remove p(b): the rebuild path must reproduce a fresh freeze of [p(a)]
        // exactly, down to the atom ids.
        let stats = patch(&mut symbols, &mut patched, std::slice::from_ref(&f_a));
        assert!(stats.rebuilt, "a removal must rebuild the closure");
        let fresh = freeze(&mut symbols, &program, std::slice::from_ref(&f_a));
        assert_eq!(patched.atoms.len(), fresh.atoms.len());
        for (id, atom) in fresh.atoms.iter() {
            assert_eq!(patched.atoms.atom(id), atom, "atom ids must coincide after a rebuild");
            assert_eq!(patched.atoms.is_certain(id), fresh.atoms.is_certain(id));
        }
        assert_eq!(view(&mut symbols, &patched), view(&mut symbols, &fresh));
        // Re-add p(b): the additions path must restore observational equality with a
        // fresh freeze of the original fact set (removal-then-re-add round trip).
        patch(&mut symbols, &mut patched, &[f_a.clone(), f_b.clone()]);
        let fresh2 = freeze(&mut symbols, &program, &[f_a, f_b]);
        assert_eq!(view(&mut symbols, &patched), view(&mut symbols, &fresh2));
    }

    #[test]
    fn patch_base_retracts_instances_whose_head_turns_certain() {
        // `h :- p.` is the body-less instance `h.` while p is certain and h is
        // derivable-but-uncertain. A patch that adds `h` as an input fact makes the
        // head certain, and phase 2 drops certain-headed instances: the patched base
        // must answer like a fresh freeze, without the instance. (Its record stays:
        // a request that excludes the fact `h` needs it back.)
        let program = parse_program("h :- p.").unwrap();
        let mut symbols = SymbolTable::new();
        let p = fact(&mut symbols, "p", &[]);
        let h = fact(&mut symbols, "h", &[]);
        let mut patched = freeze(&mut symbols, &program, std::slice::from_ref(&p));
        assert_eq!(patched.frozen_instances(), 1);
        assert!(view(&mut symbols, &patched).contains(r#"Some(\"h\"):-[],not []"#));
        patch(&mut symbols, &mut patched, &[p.clone(), h.clone()]);
        let fresh = freeze(&mut symbols, &program, &[p, h]);
        let rendered = view(&mut symbols, &patched);
        assert_eq!(rendered, view(&mut symbols, &fresh));
        assert!(!rendered.contains(":-"), "certain-headed instance must be retracted: {rendered}");
    }

    /// A request on `base` that excludes the `excluded` owners and adds `delta`.
    fn request(
        symbols: &mut SymbolTable,
        base: &BaseProgram,
        excluded: &[&str],
        delta: &[GroundAtom],
    ) -> GroundProgram {
        let excluded = excluded.iter().map(|o| symbols.intern(o)).collect();
        let delta = Facts::global(delta.to_vec());
        Grounder::new(symbols).ground_delta(base, &excluded, &[], &delta).unwrap()
    }

    fn one_shot(symbols: &mut SymbolTable, program: &Program, facts: &[GroundAtom]) -> String {
        let ground = Grounder::new(symbols).ground(program, facts).unwrap();
        render_ground(&ground, symbols)
    }

    fn int_fact(symbols: &mut SymbolTable, pred: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::new(symbols.intern(pred), args.iter().map(|&i| Val::Int(i)).collect())
    }

    const VIEW_TEST_PROGRAM: &str = r#"
        q(X) :- p(X).
        q(X) :- t(X).
        r(X) :- q(X), not s(X).
        { s(X) } :- q(X).
        #minimize{ 1@1,X : s(X) }.
    "#;

    /// The base holds p(a) under owner `o` and p(b) globally, so q(a), r(a) and s(a)
    /// are base atoms only `o` derives.
    fn view_test_base(symbols: &mut SymbolTable) -> (Program, BaseProgram) {
        let program = parse_program(VIEW_TEST_PROGRAM).unwrap();
        let (p_a, p_b) = (fact(symbols, "p", &["a"]), fact(symbols, "p", &["b"]));
        let mut input = Facts::default();
        input.set_owners(vec![symbols.intern("o")]);
        input.push(p_a);
        input.set_owners(Vec::new());
        input.push(p_b);
        let base = Grounder::new(symbols).ground_base(&program, input).unwrap();
        (program, base)
    }

    #[test]
    fn view_overlays_excluded_base_atoms_the_delta_derives() {
        let mut symbols = SymbolTable::new();
        let (program, base) = view_test_base(&mut symbols);
        // Excluding `o` drops q(a); the delta fact t(a) derives it again, so it (and
        // what it derives) must come back as the request's own atoms.
        let t_a = fact(&mut symbols, "t", &["a"]);
        let ground = request(&mut symbols, &base, &["o"], std::slice::from_ref(&t_a));
        let p_b = fact(&mut symbols, "p", &["b"]);
        let fresh = one_shot(&mut symbols, &program, &[p_b, t_a]);
        assert_eq!(render_ground(&ground, &symbols), fresh);
        let q_a = fact(&mut symbols, "q", &["a"]);
        let id = ground.atoms.get(&q_a).expect("the delta derives q(a)");
        assert_eq!(ground.atoms.atom(id), &q_a);
        assert_eq!(ground.atoms.iter().filter(|(_, a)| **a == q_a).count(), 1);
    }

    #[test]
    fn view_get_of_an_excluded_atom_is_none() {
        let mut symbols = SymbolTable::new();
        let (_, base) = view_test_base(&mut symbols);
        let ground = request(&mut symbols, &base, &["o"], &[]);
        for name in ["p", "q", "r", "s"] {
            let excluded = fact(&mut symbols, name, &["a"]);
            assert!(base.atoms.get(&excluded).is_some(), "{name}(a) is a base atom");
            assert_eq!(ground.atoms.get(&excluded), None, "{name}(a) is excluded");
            let kept = fact(&mut symbols, name, &["b"]);
            let id = ground.atoms.get(&kept).expect("kept");
            assert_eq!(ground.atoms.atom(id), &kept);
        }
        assert_eq!(ground.atoms.len(), 4);
    }

    /// Two statements share the key space: `e` conditions are re-ground when a delta
    /// touches `e`, `f` conditions stay frozen, and both pay `1@1,X`.
    const RANK_TEST_PROGRAM: &str = r#"
        { e(X,Y) } :- p(X), t(Y).
        { f(X,Y) } :- u(X), t(Y).
        #minimize{ 1@1,X : e(X,Y) }.
        #minimize{ 1@1,X : f(X,Y) }.
    "#;

    fn rank_test_facts(symbols: &mut SymbolTable, p: &[i64]) -> Vec<GroundAtom> {
        let mut facts: Vec<GroundAtom> = p.iter().map(|&x| int_fact(symbols, "p", &[x])).collect();
        facts.extend([1, 3].map(|x| int_fact(symbols, "u", &[x])));
        facts.extend([7, 8].map(|y| int_fact(symbols, "t", &[y])));
        facts
    }

    #[test]
    fn reground_minimize_key_the_base_never_saw_slots_in_by_value() {
        let program = parse_program(RANK_TEST_PROGRAM).unwrap();
        let mut symbols = SymbolTable::new();
        let facts = rank_test_facts(&mut symbols, &[1, 3]);
        let base = freeze(&mut symbols, &program, &facts);
        // p(2) and p(4) give the re-ground statement keys 1@1,2 and 1@1,4, which no
        // frozen condition has: they go between and after the frozen ranks, and each
        // key's auxiliary atom numbering must match a fresh grounding.
        let delta = [int_fact(&mut symbols, "p", &[2]), int_fact(&mut symbols, "p", &[4])];
        let ground = request(&mut symbols, &base, &[], &delta);
        let all = [facts, delta.to_vec()].concat();
        let fresh = one_shot(&mut symbols, &program, &all);
        assert_eq!(render_ground(&ground, &symbols), fresh);
        assert_eq!(ground.minimize.len(), 4);
    }

    #[test]
    fn requests_after_patches_use_recomputed_ranks() {
        let program = parse_program(RANK_TEST_PROGRAM).unwrap();
        let mut symbols = SymbolTable::new();
        let facts = rank_test_facts(&mut symbols, &[3]);
        let mut base = freeze(&mut symbols, &program, &facts);
        let delta = [int_fact(&mut symbols, "p", &[2])];
        // Additions: p(1) and p(5) bring keys 1@1,1 and 1@1,5 into the base.
        let added = rank_test_facts(&mut symbols, &[1, 3, 5]);
        assert!(!patch(&mut symbols, &mut base, &added).rebuilt);
        let ground = request(&mut symbols, &base, &[], &delta);
        let all = [added, delta.to_vec()].concat();
        let fresh = one_shot(&mut symbols, &program, &all);
        assert_eq!(render_ground(&ground, &symbols), fresh);
        // Removal: p(1) goes, and with it the only `e` condition of key 1@1,1.
        let kept = rank_test_facts(&mut symbols, &[3, 5]);
        assert!(patch(&mut symbols, &mut base, &kept).rebuilt);
        let ground = request(&mut symbols, &base, &[], &delta);
        let all = [kept, delta.to_vec()].concat();
        let fresh = one_shot(&mut symbols, &program, &all);
        assert_eq!(render_ground(&ground, &symbols), fresh);
    }

    #[test]
    fn comparison_literals_filter_instances() {
        let (ground, symbols) = ground_text(
            r#"
            num(1). num(2). num(3).
            small(X) :- num(X), X < 3.
            diff(X, Y) :- num(X), num(Y), X != Y.
            "#,
        );
        let names = atom_names(&ground, &symbols);
        assert!(names.contains(&"small(1)".to_string()));
        assert!(names.contains(&"small(2)".to_string()));
        assert!(!names.contains(&"small(3)".to_string()));
        assert!(names.contains(&"diff(1,2)".to_string()));
        assert!(!names.contains(&"diff(2,2)".to_string()));
    }

    /// A rule as an owned `Vec`-based oracle keeps it.
    type OwnedRule = (Option<AtomId>, Vec<AtomId>, Vec<AtomId>);
    /// A choice as the oracle keeps it: heads, bounds, positive and negative body.
    type OwnedChoice = (Vec<AtomId>, Option<i64>, Option<i64>, Vec<AtomId>, Vec<AtomId>);

    fn owned_rule(rule: GroundRule<'_>) -> OwnedRule {
        (rule.head, rule.pos.to_vec(), rule.neg.to_vec())
    }

    fn owned_choice(c: GroundChoice<'_>) -> OwnedChoice {
        (c.heads.to_vec(), c.lower, c.upper, c.pos.to_vec(), c.neg.to_vec())
    }

    fn assert_rules(rules: &Rules, oracle: &[OwnedRule]) {
        assert_eq!((rules.len(), rules.is_empty()), (oracle.len(), oracle.is_empty()));
        for (i, want) in oracle.iter().enumerate() {
            assert_eq!(&owned_rule(rules.get(i)), want, "rule {i}");
        }
        assert_eq!(rules.iter().len(), oracle.len());
        assert_eq!(rules.iter().map(owned_rule).collect::<Vec<_>>(), oracle);
    }

    fn assert_choices(choices: &Choices, oracle: &[OwnedChoice]) {
        assert_eq!((choices.len(), choices.is_empty()), (oracle.len(), oracle.is_empty()));
        for (i, want) in oracle.iter().enumerate() {
            assert_eq!(&owned_choice(choices.get(i)), want, "choice {i}");
        }
        assert_eq!(choices.iter().len(), oracle.len());
        assert_eq!(choices.into_iter().map(owned_choice).collect::<Vec<_>>(), oracle);
    }

    #[test]
    fn rules_choices_and_dedup_agree_with_an_owned_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Few atoms and short bodies, so exact duplicates and rules that differ only in
        // their pos/neg split come up all the time.
        fn atoms(rng: &mut StdRng) -> Vec<AtomId> {
            (0..rng.gen_range(0..3usize)).map(|_| rng.gen_range(0..4u32)).collect()
        }
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..60 {
            let (mut rules, mut choices) = (Rules::default(), Choices::default());
            let mut seen = RuleDedup::default();
            let (mut rule_oracle, mut choice_oracle) = (Vec::new(), Vec::new());
            // Deduplicated rules and choices interleaved, as phase 2 emits them, then
            // plain pushes, as the minimize auxiliary rules are emitted after it.
            for step in 0..60 {
                let head = rng.gen_bool(0.8).then(|| rng.gen_range(0..4u32));
                let (pos, neg) = (atoms(&mut rng), atoms(&mut rng));
                if step >= 45 {
                    rules.push(GroundRule { head, pos: &pos, neg: &neg });
                    rule_oracle.push((head, pos, neg));
                } else if rng.gen_bool(0.25) {
                    let heads = atoms(&mut rng);
                    let lower = rng.gen_bool(0.5).then(|| rng.gen_range(0..3i64));
                    let upper = rng.gen_bool(0.5).then(|| rng.gen_range(0..3i64));
                    choices.push(GroundChoice {
                        heads: &heads,
                        lower,
                        upper,
                        pos: &pos,
                        neg: &neg,
                    });
                    choice_oracle.push((heads, lower, upper, pos, neg));
                } else {
                    seen.push_if_new(GroundRule { head, pos: &pos, neg: &neg }, &mut rules);
                    let rule = (head, pos, neg);
                    if !rule_oracle.contains(&rule) {
                        rule_oracle.push(rule);
                    }
                }
                assert_rules(&rules, &rule_oracle);
                assert_choices(&choices, &choice_oracle);
            }
        }
    }

    #[test]
    fn dedup_keeps_the_pos_neg_split_and_drops_exact_duplicates() {
        let (a, b, c) = (0, 1, 2);
        let mut rules = Rules::default();
        let mut seen = RuleDedup::default();
        let emitted: [(Option<AtomId>, &[AtomId], &[AtomId]); 7] = [
            (Some(a), &[b], &[]),    // a :- b.
            (Some(a), &[], &[b]),    // a :- not b.
            (Some(a), &[b, c], &[]), // a :- b, c.
            (Some(a), &[b], &[c]),   // a :- b, not c.
            (Some(a), &[b], &[]),    // a :- b.  (duplicate)
            (None, &[b], &[]),       // :- b.
            (Some(a), &[b], &[c]),   // a :- b, not c.  (duplicate)
        ];
        for (head, pos, neg) in emitted {
            seen.push_if_new(GroundRule { head, pos, neg }, &mut rules);
        }
        let kept: Vec<OwnedRule> = rules.iter().map(owned_rule).collect();
        let want: Vec<OwnedRule> = emitted[..4]
            .iter()
            .chain(&emitted[5..6])
            .map(|&(head, pos, neg)| (head, pos.to_vec(), neg.to_vec()))
            .collect();
        assert_eq!(kept, want, "first occurrences, in order, split by pos/neg");
    }
}
