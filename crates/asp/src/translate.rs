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

use std::collections::hash_map::Entry;

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

    // Body auxiliary variables, shared between identical bodies, keyed by the
    // ground program's own body slices.
    let mut body_aux: FxHashMap<(&[AtomId], &[AtomId]), Lit> = FxHashMap::default();
    // Every `(atom, support body literal)` pair in emission order, and the atoms that
    // are unconditionally supported (by an empty-body rule or an empty-body choice).
    let mut supports: Vec<(AtomId, Lit)> = Vec::new();
    let mut unconditional = vec![false; num_atoms];

    // Normal rules and integrity constraints.
    for rule in &ground.rules {
        match rule.head {
            None => {
                // Constraint: not all body literals may hold.
                let pos = rule.pos.iter().map(|&p| Lit::neg(p as Var));
                t.clauses.push_canonical(pos.chain(rule.neg.iter().map(|&n| Lit::pos(n as Var))));
            }
            Some(head) => {
                match body_lit(&mut t, &mut body_aux, rule.pos, rule.neg) {
                    None => {
                        // Empty body: the head is forced and unconditionally supported.
                        t.clauses.push_canonical([Lit::pos(head as Var)]);
                        unconditional[head as usize] = true;
                    }
                    Some(b) => {
                        t.clauses.push_canonical([b.negate(), Lit::pos(head as Var)]);
                        supports.push((head, b));
                    }
                }
            }
        }
    }

    // Choice rules.
    for choice in &ground.choices {
        let body = body_lit(&mut t, &mut body_aux, choice.pos, choice.neg);
        // Heads are supported (but not forced) whenever the body holds.
        for &h in choice.heads {
            match body {
                None => unconditional[h as usize] = true,
                Some(b) => supports.push((h, b)),
            }
        }
        // Cardinality bounds.
        if choice.lower.is_some() || choice.upper.is_some() {
            let lits: Vec<Lit> = choice.heads.iter().map(|&h| Lit::pos(h as Var)).collect();
            let lower = choice.lower.unwrap_or(0).max(0) as u64;
            let upper = choice.upper.map(|u| u.max(0) as u64).unwrap_or(u64::MAX);
            t.linears.push(LinearSpec::cardinality(body, lits, lower, upper));
        }
    }

    // Group the supports by atom with a counting sort that keeps emission order:
    // after the fill, atom `a`'s supports are `grouped[end[a - 1]..end[a]]`.
    let mut end = vec![0u32; num_atoms + 1];
    for &(a, _) in &supports {
        end[a as usize + 1] += 1;
    }
    for i in 0..num_atoms {
        end[i + 1] += end[i];
    }
    let mut grouped = vec![Lit::pos(0); supports.len()];
    for &(a, lit) in &supports {
        grouped[end[a as usize] as usize] = lit;
        end[a as usize] += 1;
    }

    // Support clauses.
    for (id, _) in ground.atoms.iter() {
        if ground.atoms.is_certain(id) {
            continue;
        }
        // `#external` guard atoms are exempt from support-based elimination: no rule
        // derives them, but they are free rather than forced false — the caller fixes
        // each one per solve through an assumption.
        if ground.atoms.is_external(id) || unconditional[id as usize] {
            continue;
        }
        // The atom implies one of its supports; with none, no rule can ever derive it
        // and the clause is the unit `¬a`.
        let start = if id == 0 { 0 } else { end[id as usize - 1] as usize };
        let list = &grouped[start..end[id as usize] as usize];
        t.clauses.push_canonical(std::iter::once(Lit::neg(id as Var)).chain(list.iter().copied()));
    }

    t
}

/// The literal standing for a rule body: `None` for an empty body, the literal itself
/// for a body of a single literal — by far the most common shape in the concretizer's
/// ground programs, which needs no auxiliary variable and no clauses — and otherwise
/// an auxiliary variable equivalent to the conjunction, shared between identical
/// bodies and numbered in first-seen order.
fn body_lit<'g>(
    t: &mut Translation,
    body_aux: &mut FxHashMap<(&'g [AtomId], &'g [AtomId]), Lit>,
    pos: &'g [AtomId],
    neg: &'g [AtomId],
) -> Option<Lit> {
    match (pos, neg) {
        ([], []) => return None,
        (&[p], []) => return Some(Lit::pos(p as Var)),
        ([], &[n]) => return Some(Lit::neg(n as Var)),
        _ => {}
    }
    let slot = match body_aux.entry((pos, neg)) {
        Entry::Occupied(slot) => return Some(*slot.get()),
        Entry::Vacant(slot) => slot,
    };
    let v = t.num_vars as Var;
    t.num_vars += 1;
    slot.insert(Lit::pos(v));
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
                solver.add_linear(l);
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

    /// The translation as it was before bodies were read in place: owned `Vec` body
    /// keys and a `Vec` of supports per atom. [`translate`] must produce exactly this.
    fn reference_translate(ground: &GroundProgram) -> Translation {
        let num_atoms = ground.atoms.len();
        let mut t = Translation { num_vars: num_atoms, num_atoms, ..Translation::default() };
        for (id, _) in ground.atoms.iter() {
            if ground.atoms.is_certain(id) {
                t.clauses.push_canonical([Lit::pos(id as Var)]);
            }
        }
        let mut body_aux: FxHashMap<(Vec<AtomId>, Vec<AtomId>), Lit> = FxHashMap::default();
        let mut supports: Vec<Option<Vec<Lit>>> = vec![Some(Vec::new()); num_atoms];
        let mut get_body_lit = |t: &mut Translation, pos: &[AtomId], neg: &[AtomId]| {
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
            for &p in pos {
                t.clauses.push_canonical([Lit::neg(v), Lit::pos(p as Var)]);
            }
            for &n in neg {
                t.clauses.push_canonical([Lit::neg(v), Lit::neg(n as Var)]);
            }
            let body = pos
                .iter()
                .map(|&p| Lit::neg(p as Var))
                .chain(neg.iter().map(|&n| Lit::pos(n as Var)));
            t.clauses.push_canonical(std::iter::once(Lit::pos(v)).chain(body));
            Some(Lit::pos(v))
        };
        for rule in &ground.rules {
            match rule.head {
                None => {
                    let pos = rule.pos.iter().map(|&p| Lit::neg(p as Var));
                    t.clauses
                        .push_canonical(pos.chain(rule.neg.iter().map(|&n| Lit::pos(n as Var))));
                }
                Some(head) => match get_body_lit(&mut t, rule.pos, rule.neg) {
                    None => {
                        t.clauses.push_canonical([Lit::pos(head as Var)]);
                        supports[head as usize] = None;
                    }
                    Some(b) => {
                        t.clauses.push_canonical([b.negate(), Lit::pos(head as Var)]);
                        if let Some(list) = supports[head as usize].as_mut() {
                            list.push(b);
                        }
                    }
                },
            }
        }
        for choice in &ground.choices {
            let body_lit = get_body_lit(&mut t, choice.pos, choice.neg);
            for &h in choice.heads {
                match body_lit {
                    None => supports[h as usize] = None,
                    Some(b) => {
                        if let Some(list) = supports[h as usize].as_mut() {
                            list.push(b);
                        }
                    }
                }
            }
            if choice.lower.is_some() || choice.upper.is_some() {
                let lits: Vec<Lit> = choice.heads.iter().map(|&h| Lit::pos(h as Var)).collect();
                let lower = choice.lower.unwrap_or(0).max(0) as u64;
                let upper = choice.upper.map(|u| u.max(0) as u64).unwrap_or(u64::MAX);
                t.linears.push(LinearSpec::cardinality(body_lit, lits, lower, upper));
            }
        }
        for (id, _) in ground.atoms.iter() {
            if ground.atoms.is_certain(id) || ground.atoms.is_external(id) {
                continue;
            }
            match &supports[id as usize] {
                None => {}
                Some(list) if list.is_empty() => {
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

    /// A random propositional program over atoms `p0..p5` and facts `f0, f1`: normal
    /// rules, constraints and choices (with and without bounds) whose bodies mix
    /// negation and facts (which simplify away, leaving empty and single-literal
    /// bodies), drawn from a small pool so that identical bodies repeat.
    fn random_program(rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        let lit = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..10u32) {
            0 => format!("f{}", rng.gen_range(0..2u32)),
            1..=3 => format!("not p{}", rng.gen_range(0..6u32)),
            _ => format!("p{}", rng.gen_range(0..6u32)),
        };
        let bodies: Vec<String> = (0..6)
            .map(|_| (0..rng.gen_range(1..5usize)).map(|_| lit(rng)).collect::<Vec<_>>().join(", "))
            .collect();
        let mut text = String::from("f0. f1.\n");
        for _ in 0..rng.gen_range(2..12u32) {
            let body = &bodies[rng.gen_range(0..bodies.len())];
            match rng.gen_range(0..6u32) {
                0 => text += &format!(":- {body}.\n"),
                1 | 2 => {
                    let heads: Vec<String> = (0..rng.gen_range(1..4u32))
                        .map(|_| format!("p{}", rng.gen_range(0..6u32)))
                        .collect();
                    let lower = if rng.gen_bool(0.5) {
                        rng.gen_range(0..3u32).to_string()
                    } else {
                        String::new()
                    };
                    let upper = if rng.gen_bool(0.5) {
                        rng.gen_range(1..3u32).to_string()
                    } else {
                        String::new()
                    };
                    let body =
                        if rng.gen_bool(0.2) { String::new() } else { format!(" :- {body}") };
                    text += &format!("{lower} {{ {} }} {upper}{body}.\n", heads.join("; "));
                }
                _ => text += &format!("p{} :- {body}.\n", rng.gen_range(0..6u32)),
            }
        }
        text
    }

    #[test]
    fn translation_matches_the_owned_reference_on_random_programs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let (mut aux, mut repeated, mut bounded, mut empty, mut single) = (0, 0, 0, 0, 0);
        for _ in 0..400 {
            let text = random_program(&mut rng);
            let program = parse_program(&text).unwrap();
            let mut symbols = SymbolTable::new();
            let ground = Grounder::new(&mut symbols).ground(&program, &[]).unwrap();
            let (t, want) = (translate(&ground), reference_translate(&ground));
            assert_eq!((t.num_vars, t.num_atoms), (want.num_vars, want.num_atoms), "{text}");
            assert_eq!(t.clauses.len(), want.clauses.len(), "{text}");
            for (i, (got, want)) in t.clauses.iter().zip(&want.clauses).enumerate() {
                assert_eq!(got, want, "clause {i} of\n{text}");
            }
            assert_eq!(t.clauses, want.clauses, "{text}");
            let linear =
                |l: &LinearSpec| (l.condition, l.lits.clone(), l.weights.clone(), l.lower, l.upper);
            assert_eq!(
                t.linears.iter().map(linear).collect::<Vec<_>>(),
                want.linears.iter().map(linear).collect::<Vec<_>>(),
                "{text}"
            );
            assert_eq!(t.digest(), want.digest(), "{text}");
            aux += t.num_vars - t.num_atoms;
            bounded += t.linears.len();
            let bodies = ground.rules.iter().map(|r| (r.pos, r.neg));
            let bodies: Vec<_> =
                bodies.chain(ground.choices.iter().map(|c| (c.pos, c.neg))).collect();
            empty += bodies.iter().filter(|(p, n)| p.len() + n.len() == 0).count();
            single += bodies.iter().filter(|(p, n)| p.len() + n.len() == 1).count();
            let wide = bodies.iter().filter(|(p, n)| p.len() + n.len() > 1).count();
            repeated += wide - (t.num_vars - t.num_atoms);
        }
        // The programs exercise auxiliaries, shared auxiliaries, bounds, empty and
        // single-literal bodies.
        let counts = [aux, repeated, bounded, empty, single];
        assert!(
            counts.iter().all(|&n| n > 100),
            "aux, repeated, bounded, empty, single: {counts:?}"
        );
    }
}
