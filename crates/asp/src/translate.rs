//! Translation of a ground program into clauses and linear constraints.
//!
//! The translation is Clark's completion plus cardinality constraints for choice-rule
//! bounds:
//!
//! * every ground rule body gets an auxiliary variable equivalent to the body conjunction,
//! * rule bodies imply their heads,
//! * every (non-fact) atom implies the disjunction of its supporting bodies — where the
//!   bodies of choice rules containing the atom count as support without forcing it,
//! * integrity constraints become clauses, and
//! * choice bounds become [`LinearSpec`] cardinality constraints guarded by the body.
//!
//! Completion alone yields *supported* models; stability (foundedness w.r.t. positive
//! recursion) is restored by the unfounded-set check in [`crate::stable`], which adds loop
//! nogoods lazily — the same division of labour as in clasp.

use crate::ground::GroundProgram;
use crate::hasher::FxHashMap;
use crate::sat::{ClauseArena, LinearSpec, Lit, Var};
use crate::symbols::AtomId;

/// The clausal form of a ground program.
#[derive(Debug, Clone, Default)]
pub struct Translation {
    /// Total number of SAT variables (program atoms first, then body auxiliaries).
    pub num_vars: usize,
    /// Number of program atoms (atom `i` is SAT variable `i`).
    pub num_atoms: usize,
    /// All clauses, each in canonical form: sorted, deduplicated, not a tautology.
    pub clauses: ClauseArena,
    /// All cardinality constraints (from choice bounds).
    pub linears: Vec<LinearSpec>,
}

impl Translation {
    /// The SAT literal asserting that program atom `a` is true.
    pub fn atom_lit(a: AtomId) -> Lit {
        Lit::pos(a as Var)
    }

    /// The closure digest: a hash of the entire clausal form (variable counts, every
    /// clause, every linear constraint). Two requests with equal digests solve the
    /// identical formula — atom and auxiliary variable ids included — so the loop
    /// nogoods found by one hold verbatim in the other. Keys the cross-request
    /// [`crate::sat::SharedClauseStore`].
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::hasher::FxHasher::default();
        h.write_usize(self.num_vars);
        h.write_usize(self.num_atoms);
        h.write_usize(self.clauses.len());
        for clause in &self.clauses {
            h.write_usize(clause.len());
            for l in clause {
                h.write_u32(l.index() as u32);
            }
        }
        h.write_usize(self.linears.len());
        for lin in &self.linears {
            match lin.condition {
                None => h.write_u32(u32::MAX),
                Some(c) => h.write_u32(c.index() as u32),
            }
            h.write_usize(lin.lits.len());
            for l in &lin.lits {
                h.write_u32(l.index() as u32);
            }
            for &w in &lin.weights {
                h.write_u64(w);
            }
            h.write_u64(lin.lower);
            h.write_u64(lin.upper);
        }
        h.finish()
    }
}

/// Translate a ground program.
///
/// Every clause is canonicalized (sorted, deduplicated, tautologies dropped) as it is
/// pushed: `Solver::add_clause` performs exactly this normalization before storing a
/// clause, so canonical clauses produce byte-identical solver state while qualifying
/// for the linear-time `Solver::load_trusted_clauses` path on every solver build.
pub fn translate(ground: &GroundProgram) -> Translation {
    let num_atoms = ground.atoms.len();
    let mut t = Translation { num_vars: num_atoms, num_atoms, ..Translation::default() };

    // Facts.
    for (id, _) in ground.atoms.iter() {
        if ground.atoms.is_certain(id) {
            t.clauses.push_canonical([Lit::pos(id as Var)]);
        }
    }

    // Body auxiliary variables, shared between identical bodies. Bodies made of a
    // *single* literal — by far the most common shape in the concretizer's ground
    // programs — need no auxiliary at all: the body is equivalent to that literal, so
    // the literal itself stands in, saving one variable and three clauses per body.
    let mut body_aux: FxHashMap<(Vec<AtomId>, Vec<AtomId>), Lit> = FxHashMap::default();
    // supports[atom] = Some(vec of support body literals); None means "unconditionally
    // supported" (a fact, an empty-body rule, or an empty-body choice).
    let mut supports: Vec<Option<Vec<Lit>>> = vec![Some(Vec::new()); num_atoms];

    let mut get_body_lit = |t: &mut Translation, pos: &[AtomId], neg: &[AtomId]| -> Option<Lit> {
        if pos.is_empty() && neg.is_empty() {
            return None;
        }
        if pos.len() == 1 && neg.is_empty() {
            return Some(Lit::pos(pos[0] as Var));
        }
        if pos.is_empty() && neg.len() == 1 {
            return Some(Lit::neg(neg[0] as Var));
        }
        let key = (pos.to_vec(), neg.to_vec());
        if let Some(&v) = body_aux.get(&key) {
            return Some(v);
        }
        let v = t.num_vars as Var;
        t.num_vars += 1;
        body_aux.insert(key, Lit::pos(v));
        // v -> each body literal
        for &p in pos {
            t.clauses.push_canonical([Lit::neg(v), Lit::pos(p as Var)]);
        }
        for &n in neg {
            t.clauses.push_canonical([Lit::neg(v), Lit::neg(n as Var)]);
        }
        // body literals -> v
        let body =
            pos.iter().map(|&p| Lit::neg(p as Var)).chain(neg.iter().map(|&n| Lit::pos(n as Var)));
        t.clauses.push_canonical(std::iter::once(Lit::pos(v)).chain(body));
        Some(Lit::pos(v))
    };

    // Normal rules and integrity constraints.
    for rule in &ground.rules {
        match rule.head {
            None => {
                // Constraint: not all body literals may hold.
                let pos = rule.pos.iter().map(|&p| Lit::neg(p as Var));
                t.clauses.push_canonical(pos.chain(rule.neg.iter().map(|&n| Lit::pos(n as Var))));
            }
            Some(head) => {
                match get_body_lit(&mut t, &rule.pos, &rule.neg) {
                    None => {
                        // Empty body: the head is forced and unconditionally supported.
                        t.clauses.push_canonical([Lit::pos(head as Var)]);
                        supports[head as usize] = None;
                    }
                    Some(b) => {
                        t.clauses.push_canonical([b.negate(), Lit::pos(head as Var)]);
                        if let Some(list) = supports[head as usize].as_mut() {
                            list.push(b);
                        }
                    }
                }
            }
        }
    }

    // Choice rules.
    for choice in &ground.choices {
        let body_lit = get_body_lit(&mut t, &choice.pos, &choice.neg);
        // Heads are supported (but not forced) whenever the body holds.
        for &h in &choice.heads {
            match body_lit {
                None => supports[h as usize] = None,
                Some(b) => {
                    if let Some(list) = supports[h as usize].as_mut() {
                        list.push(b);
                    }
                }
            }
        }
        // Cardinality bounds.
        if choice.lower.is_some() || choice.upper.is_some() {
            let lits: Vec<Lit> = choice.heads.iter().map(|&h| Lit::pos(h as Var)).collect();
            let lower = choice.lower.unwrap_or(0).max(0) as u64;
            let upper = choice.upper.map(|u| u.max(0) as u64).unwrap_or(u64::MAX);
            t.linears.push(LinearSpec::cardinality(body_lit, lits, lower, upper));
        }
    }

    // Support clauses.
    for (id, _) in ground.atoms.iter() {
        if ground.atoms.is_certain(id) {
            continue;
        }
        // `#external` guard atoms are exempt from support-based elimination: no rule
        // derives them, but they are free rather than forced false — the caller fixes
        // each one per solve through an assumption.
        if ground.atoms.is_external(id) {
            continue;
        }
        match &supports[id as usize] {
            None => {} // unconditionally supported
            Some(list) if list.is_empty() => {
                // No rule can ever derive this atom: it must be false.
                t.clauses.push_canonical([Lit::neg(id as Var)]);
            }
            Some(list) => {
                t.clauses.push_canonical(
                    std::iter::once(Lit::neg(id as Var)).chain(list.iter().copied()),
                );
            }
        }
    }

    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parser::parse_program;
    use crate::sat::{SatConfig, SearchResult, Solver};
    use crate::symbols::SymbolTable;

    fn solve_text(text: &str) -> (GroundProgram, SymbolTable, Option<Vec<bool>>) {
        let program = parse_program(text).unwrap();
        let mut symbols = SymbolTable::new();
        let ground = Grounder::new(&mut symbols).ground(&program, &[]).unwrap();
        let t = translate(&ground);
        let mut solver = Solver::new(t.num_vars, SatConfig::default());
        let mut ok = true;
        for c in &t.clauses {
            if !solver.add_clause(c) {
                ok = false;
                break;
            }
        }
        if ok {
            for l in &t.linears {
                solver.add_linear(l.clone());
            }
        }
        let model =
            if ok && solver.search() == SearchResult::Sat { Some(solver.model()) } else { None };
        (ground, symbols, model)
    }

    fn atom_true(
        ground: &GroundProgram,
        symbols: &SymbolTable,
        model: &[bool],
        text: &str,
    ) -> bool {
        ground
            .atoms
            .iter()
            .find(|(_, a)| a.display(symbols).to_string() == text)
            .map(|(id, _)| model[id as usize])
            .unwrap_or(false)
    }

    #[test]
    fn facts_and_derived_atoms_are_true() {
        let (ground, symbols, model) = solve_text(
            r#"
            node(a).
            depends_on(a, b).
            node(D) :- node(P), depends_on(P, D).
            "#,
        );
        let model = model.expect("satisfiable");
        assert!(atom_true(&ground, &symbols, &model, "node(a)"));
        assert!(atom_true(&ground, &symbols, &model, "node(b)"));
    }

    #[test]
    fn constraint_excludes_models() {
        let (_, _, model) = solve_text(
            r#"
            p(a).
            q(a) :- p(a).
            :- q(a).
            "#,
        );
        assert!(model.is_none(), "the constraint makes the program unsatisfiable");
    }

    #[test]
    fn choice_bounds_are_enforced() {
        let (ground, symbols, model) = solve_text(
            r#"
            node(p).
            possible_version(p, v1).
            possible_version(p, v2).
            possible_version(p, v3).
            1 { version(P, V) : possible_version(P, V) } 1 :- node(P).
            "#,
        );
        let model = model.expect("satisfiable");
        let count = ["v1", "v2", "v3"]
            .iter()
            .filter(|v| atom_true(&ground, &symbols, &model, &format!("version(p,{v})")))
            .count();
        assert_eq!(count, 1, "exactly one version must be selected");
    }

    #[test]
    fn unsupported_atoms_are_false() {
        let (ground, symbols, model) = solve_text(
            r#"
            p(a).
            q(X) :- p(X), r(X).
            s(b) :- q(b).
            "#,
        );
        let model = model.expect("satisfiable");
        // r(a) never appears in any head: q(a) cannot be supported.
        assert!(!atom_true(&ground, &symbols, &model, "q(a)"));
    }

    #[test]
    fn negation_default_behaviour() {
        let (ground, symbols, model) = solve_text(
            r#"
            item(a). item(b).
            special(a).
            normal(X) :- item(X), not special(X).
            "#,
        );
        let model = model.expect("satisfiable");
        assert!(!atom_true(&ground, &symbols, &model, "normal(a)"));
        assert!(atom_true(&ground, &symbols, &model, "normal(b)"));
    }
}
