//! Stable-model (answer-set) checking.
//!
//! Clark completion admits *supported* models that are not *stable*: sets of atoms that
//! justify each other only through a positive cycle (e.g. two packages that "depend on"
//! each other with no root requiring either). [`unfounded_set`] recomputes the least
//! model of the reduct of the program w.r.t. a candidate model; any true atom not in that
//! least model is unfounded. The solver then adds the *loop nogood* built by
//! [`StabilityChecker::unfounded_nogood`] and continues the search, exactly like clasp's
//! lazy unfounded-set checking.
//!
//! The nogood is the loop formula's clausal core: at least one unfounded atom must be
//! false **or** at least one *external support* of the set must come true — one
//! currently-false body literal per rule that could support the set from outside it.
//! A bare "some unfounded atom is false" clause would be unsound: it would also
//! eliminate later models in which the very same atoms are legitimately founded through
//! one of those external rules.
//!
//! # Tight programs
//!
//! A program is *tight* when its positive dependency graph has no cycle: an edge runs
//! from every positive body atom of a rule to the rule's head (to each head, for a
//! choice). For a tight program every supported model is stable (Fages, "Consistency of
//! Clark's completion and existence of stable models", *Methods of Logic in Computer
//! Science* 1, 1994), so the completion alone is exact and no candidate model can have
//! a non-empty unfounded set. Input facts are left out of the graph: they are founded
//! whatever the rest of the model is, so a cycle through a fact founds nothing it does
//! not already found. [`is_tight`] decides this with one linear pass (Kahn's
//! algorithm), and [`crate::ground::GroundProgram::is_tight`] keeps the answer, so
//! every solve on one grounding shares it. On a tight program
//! [`StabilityChecker::unfounded_nogood`] returns `None` without looking at the model;
//! debug builds still run the full check there and assert that it finds nothing.

use crate::ground::GroundProgram;
use crate::sat::{Lit, Var};
use crate::symbols::AtomId;

/// Is the program tight: is its positive dependency graph, over the atoms that are
/// not input facts, acyclic?
///
/// Kahn's algorithm over atoms and rules: a rule is done once each of its positive
/// body atoms that is not a fact is done, an atom once every rule with it as a head
/// is. Exactly the atoms on or downstream of a positive cycle are never done, so the
/// program is tight when every atom is. One pass, linear in the program's size.
pub fn is_tight(ground: &GroundProgram) -> bool {
    let n_atoms = ground.atoms.len();
    let n_normal = ground.rules.len();
    let mut index = OccurrenceIndex::new(ground);
    let mut remaining = std::mem::take(&mut index.base_remaining);
    // Per atom: the rules deriving it that are not done yet.
    let mut pending = vec![0u32; n_atoms];
    for rule in &ground.rules {
        if let Some(h) = rule.head {
            pending[h as usize] += 1;
        }
    }
    for choice in &ground.choices {
        for &h in choice.heads {
            pending[h as usize] += 1;
        }
    }
    let mut ready: Vec<AtomId> =
        (0..n_atoms as AtomId).filter(|&a| pending[a as usize] == 0).collect();
    let finish_rule = |ri: usize, pending: &mut [u32], ready: &mut Vec<AtomId>| {
        let mut finish = |h: AtomId| {
            pending[h as usize] -= 1;
            if pending[h as usize] == 0 {
                ready.push(h);
            }
        };
        if ri < n_normal {
            if let Some(h) = ground.rules.get(ri).head {
                finish(h);
            }
        } else {
            ground.choices.get(ri - n_normal).heads.iter().for_each(|&h| finish(h));
        }
    };
    for (ri, &count) in remaining.iter().enumerate() {
        if count == 0 {
            finish_rule(ri, &mut pending, &mut ready);
        }
    }
    let mut done = 0;
    while let Some(a) = ready.pop() {
        done += 1;
        for &ri in index.occurrences(a) {
            remaining[ri as usize] -= 1;
            if remaining[ri as usize] == 0 {
                finish_rule(ri as usize, &mut pending, &mut ready);
            }
        }
    }
    done == n_atoms
}

/// The positive occurrences of the atoms that are not input facts: for each atom, the
/// rules whose positive body contains it, and for each rule how many such atoms its
/// positive body has.
struct OccurrenceIndex {
    /// CSR offsets: for atom `a`, its occurrences are `occ_data[occ_off[a]..occ_off[a+1]]`.
    occ_off: Vec<u32>,
    /// Rule ids (`0..rules.len()` normal rules, then `rules.len()..` choice rules).
    occ_data: Vec<u32>,
    /// Per rule: number of positive body atoms that are not certain (input facts).
    base_remaining: Vec<u32>,
}

impl OccurrenceIndex {
    fn new(ground: &GroundProgram) -> Self {
        let n_atoms = ground.atoms.len();
        let n_rules = ground.rules.len() + ground.choices.len();
        // Count occurrences per atom (positive bodies only, which are deduplicated by
        // the grounder, so each occurrence decrements its counter exactly once).
        let mut occ_off = vec![0u32; n_atoms + 1];
        let mut base_remaining = vec![0u32; n_rules];
        let pos_bodies =
            ground.rules.iter().map(|r| r.pos).chain(ground.choices.iter().map(|c| c.pos));
        for (ri, pos) in pos_bodies.clone().enumerate() {
            for &a in pos {
                if !ground.atoms.is_certain(a) {
                    occ_off[a as usize + 1] += 1;
                    base_remaining[ri] += 1;
                }
            }
        }
        for i in 0..n_atoms {
            occ_off[i + 1] += occ_off[i];
        }
        let mut cursor = occ_off.clone();
        let mut occ_data = vec![0u32; occ_off[n_atoms] as usize];
        for (ri, pos) in pos_bodies.enumerate() {
            for &a in pos {
                if !ground.atoms.is_certain(a) {
                    occ_data[cursor[a as usize] as usize] = ri as u32;
                    cursor[a as usize] += 1;
                }
            }
        }
        OccurrenceIndex { occ_off, occ_data, base_remaining }
    }

    fn occurrences(&self, a: AtomId) -> &[u32] {
        &self.occ_data[self.occ_off[a as usize] as usize..self.occ_off[a as usize + 1] as usize]
    }
}

/// A reusable unfounded-set checker.
///
/// The least model of the reduct is computed with a counting worklist algorithm
/// (Dowling–Gallier): every rule keeps the number of its not-yet-derived positive body
/// atoms, a CSR occurrence index maps each atom to the rules whose counters it
/// decrements, and a rule fires exactly when its counter reaches zero. One check is
/// O(program size), not O(rules × fixpoint depth) — and the occurrence index and the
/// base counters (positive body atoms that are not input facts) are built by the first
/// check and shared by every later one, which matters because the optimizer validates
/// every candidate model this way. A checker of a tight program builds nothing.
pub struct StabilityChecker {
    /// The program is tight (see the module docs): no model can be unstable.
    tight: bool,
    /// Built by the first full check.
    index: Option<OccurrenceIndex>,
    /// Scratch: per-call remaining counters.
    remaining: Vec<u32>,
    /// Scratch: derived marker per atom.
    derived: Vec<bool>,
    /// Scratch: worklist of newly derived atoms.
    worklist: Vec<AtomId>,
    /// Scratch: unfounded-set membership, used while collecting external supports.
    in_unfounded: Vec<bool>,
}

impl StabilityChecker {
    /// A checker for a ground program. Nothing is built until the first full check.
    pub fn new(ground: &GroundProgram) -> Self {
        Self::with_tightness(ground.is_tight())
    }

    fn with_tightness(tight: bool) -> Self {
        StabilityChecker {
            tight,
            index: None,
            remaining: Vec::new(),
            derived: Vec::new(),
            worklist: Vec::new(),
            in_unfounded: Vec::new(),
        }
    }

    /// Check `model` for stability and, when it is unstable, build the sound loop
    /// nogood for its unfounded set `U`: a clause requiring at least one atom of `U`
    /// to be false **or** at least one *external support* of `U` to come true.
    ///
    /// External supports are the rules (normal or choice) with a head in `U` whose
    /// positive body is disjoint from `U`; by construction of `U` each such body is
    /// false under `model`, so it contributes one currently-false witness literal. Any
    /// stable model falsifying all witnesses has every external body false, leaving
    /// `U` unfounded — so the clause holds in every stable model and may safely
    /// persist across solver runs. Returns `None` when the model is stable, and at
    /// once on a tight program, whose supported models are all stable.
    pub fn unfounded_nogood(&mut self, ground: &GroundProgram, model: &[bool]) -> Option<Vec<Lit>> {
        if self.tight {
            if cfg!(debug_assertions) {
                let unfounded = self.unfounded_set(ground, model);
                debug_assert!(
                    unfounded.is_empty(),
                    "a supported model of a tight program has unfounded atoms {unfounded:?}"
                );
            }
            return None;
        }
        let unfounded = self.unfounded_set(ground, model);
        if unfounded.is_empty() {
            return None;
        }
        self.in_unfounded.resize(ground.atoms.len(), false);
        for &u in &unfounded {
            self.in_unfounded[u as usize] = true;
        }
        let mut clause: Vec<Lit> = unfounded.iter().map(|&u| Lit::neg(u as Var)).collect();
        let external = |pos: &[AtomId], in_u: &[bool]| !pos.iter().any(|&p| in_u[p as usize]);
        let witness = |pos: &[AtomId], neg: &[AtomId]| -> Option<Lit> {
            if let Some(&p) = pos.iter().find(|&&p| !model[p as usize]) {
                return Some(Lit::pos(p as Var));
            }
            neg.iter().find(|&&n| model[n as usize]).map(|&n| Lit::neg(n as Var))
        };
        for rule in &ground.rules {
            let Some(h) = rule.head else { continue };
            if !self.in_unfounded[h as usize] || !external(rule.pos, &self.in_unfounded) {
                continue;
            }
            // An external rule of an unfounded set always has a false body literal
            // (a true external body would have derived the head in the reduct).
            clause.extend(witness(rule.pos, rule.neg));
        }
        for choice in &ground.choices {
            if !choice.heads.iter().any(|&h| self.in_unfounded[h as usize])
                || !external(choice.pos, &self.in_unfounded)
            {
                continue;
            }
            clause.extend(witness(choice.pos, choice.neg));
        }
        for &u in &unfounded {
            self.in_unfounded[u as usize] = false;
        }
        clause.sort_unstable();
        clause.dedup();
        Some(clause)
    }

    /// Compute the set of atoms that are true in `model` but not derivable from the
    /// reduct of the program w.r.t. `model`. An empty result means the model is stable.
    /// This is the full check, on tight programs too.
    ///
    /// `model` is indexed by SAT variable; only the first `ground.atoms.len()` entries
    /// (the program atoms) are inspected.
    pub fn unfounded_set(&mut self, ground: &GroundProgram, model: &[bool]) -> Vec<AtomId> {
        let n = ground.atoms.len();
        let n_normal = ground.rules.len();
        let index = self.index.get_or_insert_with(|| OccurrenceIndex::new(ground));
        let (remaining, derived, worklist) =
            (&mut self.remaining, &mut self.derived, &mut self.worklist);
        remaining.clear();
        remaining.extend_from_slice(&index.base_remaining);
        derived.clear();
        derived.resize(n, false);
        worklist.clear();

        // Seed: input facts are derived; rules whose positive body is fully certain
        // fire immediately (if their negative body survives the reduct). A true
        // `#external` guard atom counts as derived too — its truth is supplied from
        // outside the program (a per-solve assumption), like a fact, so atoms founded
        // through it must not be reported unfounded. Unlike facts, externals occur in
        // the occurrence counters, so they go on the worklist to decrement them.
        for (id, _) in ground.atoms.iter() {
            if ground.atoms.is_certain(id) {
                derived[id as usize] = true;
            }
        }
        for &ext in ground.atoms.externals() {
            if model[ext as usize] && !derived[ext as usize] {
                derived[ext as usize] = true;
                worklist.push(ext);
            }
        }
        for (ri, &count) in index.base_remaining.iter().enumerate() {
            if count == 0 {
                fire_rule(ri, ground, model, n_normal, derived, worklist);
            }
        }
        // Worklist propagation: each newly derived atom decrements the counters of the
        // rules whose positive bodies contain it.
        while let Some(a) = worklist.pop() {
            for &ri in index.occurrences(a) {
                let ri = ri as usize;
                remaining[ri] -= 1;
                if remaining[ri] == 0 {
                    fire_rule(ri, ground, model, n_normal, derived, worklist);
                }
            }
        }

        (0..n as AtomId).filter(|&a| model[a as usize] && !derived[a as usize]).collect()
    }
}

/// A rule's positive body is fully derived: derive its head(s), respecting the reduct
/// (negative body false in the model) and, for choices, the model's picks.
fn fire_rule(
    ri: usize,
    ground: &GroundProgram,
    model: &[bool],
    n_normal: usize,
    derived: &mut [bool],
    worklist: &mut Vec<AtomId>,
) {
    if ri < n_normal {
        let rule = ground.rules.get(ri);
        let head = match rule.head {
            Some(h) => h,
            None => return,
        };
        if derived[head as usize] {
            return;
        }
        if rule.neg.iter().any(|&a| model[a as usize]) {
            return;
        }
        derived[head as usize] = true;
        worklist.push(head);
    } else {
        let choice = ground.choices.get(ri - n_normal);
        if choice.neg.iter().any(|&a| model[a as usize]) {
            return;
        }
        for &h in choice.heads {
            if model[h as usize] && !derived[h as usize] {
                derived[h as usize] = true;
                worklist.push(h);
            }
        }
    }
}

/// One-shot convenience wrapper over [`StabilityChecker`]: build the index, run a
/// single check. Callers that validate many models should hold a checker instead.
pub fn unfounded_set(ground: &GroundProgram, model: &[bool]) -> Vec<AtomId> {
    StabilityChecker::with_tightness(false).unfounded_set(ground, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parser::parse_program;
    use crate::symbols::SymbolTable;

    fn ground_text(text: &str) -> (GroundProgram, SymbolTable) {
        let program = parse_program(text).unwrap();
        let mut symbols = SymbolTable::new();
        let ground = Grounder::new(&mut symbols).ground(&program, &[]).unwrap();
        (ground, symbols)
    }

    fn model_with(ground: &GroundProgram, symbols: &SymbolTable, true_atoms: &[&str]) -> Vec<bool> {
        let mut model = vec![false; ground.atoms.len()];
        for (id, atom) in ground.atoms.iter() {
            let name = atom.display(symbols).to_string();
            if ground.atoms.is_certain(id) || true_atoms.contains(&name.as_str()) {
                model[id as usize] = true;
            }
        }
        model
    }

    #[test]
    fn self_supporting_loop_is_unfounded() {
        // With `start` false, {a, b} can only justify each other through the positive
        // cycle a :- b / b :- a: supported but not stable.
        let (ground, symbols) = ground_text(
            r#"
            { start }.
            a :- start.
            a :- b.
            b :- a.
            "#,
        );
        let model = model_with(&ground, &symbols, &["a", "b"]);
        let unfounded = unfounded_set(&ground, &model);
        assert_eq!(unfounded.len(), 2);

        // When `start` is chosen the same atoms are founded.
        let model = model_with(&ground, &symbols, &["start", "a", "b"]);
        assert!(unfounded_set(&ground, &model).is_empty());

        let empty = model_with(&ground, &symbols, &[]);
        assert!(unfounded_set(&ground, &empty).is_empty());
    }

    #[test]
    fn derivation_through_facts_is_founded() {
        let (ground, symbols) = ground_text(
            r#"
            node(a).
            depends_on(a, b).
            depends_on(b, a).
            node(D) :- node(P), depends_on(P, D).
            "#,
        );
        // Both node(a) (a fact) and node(b) (derived from it) are founded even though the
        // dependency edges form a cycle.
        let model = model_with(&ground, &symbols, &["node(b)"]);
        assert!(unfounded_set(&ground, &model).is_empty());
    }

    #[test]
    fn chosen_atoms_are_founded_only_if_their_choice_body_holds() {
        let (ground, symbols) = ground_text(
            r#"
            q(1).
            { seed }.
            trigger :- seed.
            { pick(X) : q(X) } 1 :- trigger.
            trigger :- pick(1).
            "#,
        );
        // With `seed` false, {trigger, pick(1)} supports itself in a cycle: pick is only
        // available when trigger holds, and trigger only holds when pick(1) is true.
        let model = model_with(&ground, &symbols, &["trigger", "pick(1)"]);
        let unfounded = unfounded_set(&ground, &model);
        assert!(!unfounded.is_empty());
        // With `seed` chosen, trigger is founded and so is the chosen pick(1).
        let model = model_with(&ground, &symbols, &["seed", "trigger", "pick(1)"]);
        assert!(unfounded_set(&ground, &model).is_empty());
    }

    #[test]
    fn loop_nogood_carries_external_support_witnesses() {
        // U = {a, b}; the rule a :- x is U's external support with x false, so the
        // nogood must be (¬a ∨ ¬b ∨ x) — not the unsound bare ¬a ∨ ¬b, which would
        // also kill the stable model {x, a, b}.
        let (ground, symbols) = ground_text(
            r#"
            a :- b.
            b :- a.
            a :- x.
            { x }.
            "#,
        );
        let model = model_with(&ground, &symbols, &["a", "b"]);
        let mut checker = StabilityChecker::new(&ground);
        let nogood = checker.unfounded_nogood(&ground, &model).expect("unstable");
        let id_of = |name: &str| {
            ground
                .atoms
                .iter()
                .find(|(_, atom)| atom.display(&symbols).to_string() == name)
                .map(|(id, _)| id)
                .unwrap()
        };
        assert!(nogood.contains(&Lit::neg(id_of("a"))), "{nogood:?}");
        assert!(nogood.contains(&Lit::neg(id_of("b"))), "{nogood:?}");
        assert!(
            nogood.contains(&Lit::pos(id_of("x"))),
            "external support witness x missing: {nogood:?}"
        );
        // The externally supported model is stable: no nogood.
        let model = model_with(&ground, &symbols, &["x", "a", "b"]);
        assert!(checker.unfounded_nogood(&ground, &model).is_none());
    }

    #[test]
    fn tight_programs_skip_the_check() {
        let (ground, symbols) = ground_text("{ x }. a :- x. b :- a, not x.");
        assert!(ground.is_tight());
        let mut checker = StabilityChecker::new(&ground);
        let model = model_with(&ground, &symbols, &["x", "a"]);
        assert!(checker.unfounded_nogood(&ground, &model).is_none());
        // Only debug builds run the full check on a tight program, to assert that it
        // finds nothing; release builds build no occurrence index at all.
        assert_eq!(checker.index.is_some(), cfg!(debug_assertions));
        // The full check itself still works on a tight program.
        let unsupported = model_with(&ground, &symbols, &["a"]);
        assert_eq!(checker.unfounded_set(&ground, &unsupported).len(), 1);
    }

    /// Debug builds check the theorem on every candidate of a tight program. A model
    /// the completion would never produce (`a` true without its only support `x`)
    /// trips the assertion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a supported model of a tight program has unfounded atoms")]
    fn debug_builds_assert_that_tight_programs_have_no_unfounded_atoms() {
        let (ground, symbols) = ground_text("{ x }. a :- x.");
        let model = model_with(&ground, &symbols, &["a"]);
        StabilityChecker::new(&ground).unfounded_nogood(&ground, &model);
    }

    #[test]
    fn loops_make_a_program_non_tight() {
        for text in ["{ x }. a :- x. a :- a.", "{ x }. a :- x. a :- b. b :- a."] {
            let (ground, symbols) = ground_text(text);
            assert!(!ground.is_tight(), "{text}");
            let mut checker = StabilityChecker::new(&ground);
            let model = model_with(&ground, &symbols, &["a", "b"]);
            assert!(checker.unfounded_nogood(&ground, &model).is_some(), "{text}");
        }
    }

    #[test]
    fn negative_bodies_respect_the_model() {
        let (ground, symbols) = ground_text(
            r#"
            item(a).
            blocked(a).
            ok(X) :- item(X), not blocked(X).
            "#,
        );
        // ok(a) cannot be derived because blocked(a) is true in the model.
        let model = model_with(&ground, &symbols, &["ok(a)"]);
        let unfounded = unfounded_set(&ground, &model);
        assert_eq!(unfounded.len(), 1);
    }
}
