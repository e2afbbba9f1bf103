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

use crate::ground::GroundProgram;
use crate::sat::{Lit, Var};
use crate::symbols::AtomId;

/// A reusable unfounded-set checker.
///
/// The least model of the reduct is computed with a counting worklist algorithm
/// (Dowling–Gallier): every rule keeps the number of its not-yet-derived positive body
/// atoms, a CSR occurrence index maps each atom to the rules whose counters it
/// decrements, and a rule fires exactly when its counter reaches zero. One check is
/// O(program size), not O(rules × fixpoint depth) — and the occurrence index and the
/// base counters (positive body atoms that are not input facts) are built once and
/// shared by every check, which matters because the optimizer validates every candidate
/// model this way.
pub struct StabilityChecker {
    /// CSR offsets: for atom `a`, its occurrences are `occ_data[occ_off[a]..occ_off[a+1]]`.
    occ_off: Vec<u32>,
    /// Rule ids (`0..rules.len()` normal rules, then `rules.len()..` choice rules).
    occ_data: Vec<u32>,
    /// Per rule: number of positive body atoms that are not certain (input facts).
    base_remaining: Vec<u32>,
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
    /// Build the occurrence index for a ground program.
    pub fn new(ground: &GroundProgram) -> Self {
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
        StabilityChecker {
            occ_off,
            occ_data,
            base_remaining,
            remaining: Vec::new(),
            derived: vec![false; n_atoms],
            worklist: Vec::new(),
            in_unfounded: vec![false; n_atoms],
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
    /// persist across solver runs. Returns `None` when the model is stable.
    pub fn unfounded_nogood(&mut self, ground: &GroundProgram, model: &[bool]) -> Option<Vec<Lit>> {
        let unfounded = self.unfounded_set(ground, model);
        if unfounded.is_empty() {
            return None;
        }
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
    ///
    /// `model` is indexed by SAT variable; only the first `ground.atoms.len()` entries
    /// (the program atoms) are inspected.
    pub fn unfounded_set(&mut self, ground: &GroundProgram, model: &[bool]) -> Vec<AtomId> {
        let n = ground.atoms.len();
        let n_normal = ground.rules.len();
        self.remaining.clear();
        self.remaining.extend_from_slice(&self.base_remaining);
        for d in &mut self.derived {
            *d = false;
        }
        self.worklist.clear();

        // Seed: input facts are derived; rules whose positive body is fully certain
        // fire immediately (if their negative body survives the reduct). A true
        // `#external` guard atom counts as derived too — its truth is supplied from
        // outside the program (a per-solve assumption), like a fact, so atoms founded
        // through it must not be reported unfounded. Unlike facts, externals occur in
        // the occurrence counters, so they go on the worklist to decrement them.
        for (id, _) in ground.atoms.iter() {
            if ground.atoms.is_certain(id) {
                self.derived[id as usize] = true;
            }
        }
        for &ext in ground.atoms.externals() {
            if model[ext as usize] && !self.derived[ext as usize] {
                self.derived[ext as usize] = true;
                self.worklist.push(ext);
            }
        }
        for ri in 0..self.base_remaining.len() {
            if self.base_remaining[ri] == 0 {
                self.fire_rule(ri, ground, model, n_normal);
            }
        }
        // Worklist propagation: each newly derived atom decrements the counters of the
        // rules whose positive bodies contain it.
        while let Some(a) = self.worklist.pop() {
            let (start, end) =
                (self.occ_off[a as usize] as usize, self.occ_off[a as usize + 1] as usize);
            for k in start..end {
                let ri = self.occ_data[k] as usize;
                self.remaining[ri] -= 1;
                if self.remaining[ri] == 0 {
                    self.fire_rule(ri, ground, model, n_normal);
                }
            }
        }

        (0..n as AtomId).filter(|&a| model[a as usize] && !self.derived[a as usize]).collect()
    }

    /// A rule's positive body is fully derived: derive its head(s), respecting the
    /// reduct (negative body false in the model) and, for choices, the model's picks.
    fn fire_rule(&mut self, ri: usize, ground: &GroundProgram, model: &[bool], n_normal: usize) {
        if ri < n_normal {
            let rule = ground.rules.get(ri);
            let head = match rule.head {
                Some(h) => h,
                None => return,
            };
            if self.derived[head as usize] {
                return;
            }
            if rule.neg.iter().any(|&a| model[a as usize]) {
                return;
            }
            self.derived[head as usize] = true;
            self.worklist.push(head);
        } else {
            let choice = ground.choices.get(ri - n_normal);
            if choice.neg.iter().any(|&a| model[a as usize]) {
                return;
            }
            for &h in choice.heads {
                if model[h as usize] && !self.derived[h as usize] {
                    self.derived[h as usize] = true;
                    self.worklist.push(h);
                }
            }
        }
    }
}

/// One-shot convenience wrapper over [`StabilityChecker`]: build the index, run a
/// single check. Callers that validate many models should hold a checker instead.
pub fn unfounded_set(ground: &GroundProgram, model: &[bool]) -> Vec<AtomId> {
    StabilityChecker::new(ground).unfounded_set(ground, model)
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
