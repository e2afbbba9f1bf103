//! Cross-check of the optimized grounder + solver pipeline against a brute-force
//! reference.
//!
//! Random small programs (facts, safe rules with negation, choice rules with bounds,
//! integrity constraints, minimize statements) are solved twice:
//!
//! * by the engine — `Control::ground()` (indexed semi-naive grounding, join planner)
//!   followed by `enumerate_models` / `solve_optimal` (incremental linear propagation,
//!   learned-clause deletion, warm-started bounds), and
//! * by an independent brute-force enumerator that tries *every* subset of the possible
//!   atoms and applies the textbook stable-model definition (rule/constraint/bound
//!   satisfaction plus foundedness via a naive multi-pass reduct fixpoint — the
//!   algorithm the optimized `StabilityChecker` replaced).
//!
//! The stable-model *sets* must match exactly, and the optimizer's objective vector
//! must equal the lexicographic minimum over the brute-force models. Under random
//! assumptions, every minimized unsat core must be refuted by the brute-force models
//! and lose that property when any one member is dropped. This pins the whole chain
//! of hot-path rewrites to the semantics of the naive implementation.

use proptest::prelude::*;

use asp::control::{AssumeOutcome, Assumption, Control, SolverConfig, Value};
use asp::ground::GroundProgram;
use asp::symbols::{SymbolTable, Val};

// ---------- reference implementation ----------------------------------------------------

/// Textbook stable-model test, written against the *naive* definitions on purpose.
fn is_stable_reference(ground: &GroundProgram, model: &[bool]) -> bool {
    // Input facts are true.
    for (id, _) in ground.atoms.iter() {
        if ground.atoms.is_certain(id) && !model[id as usize] {
            return false;
        }
    }
    // Rules and constraints are satisfied.
    for rule in &ground.rules {
        let body = rule.pos.iter().all(|&a| model[a as usize])
            && rule.neg.iter().all(|&a| !model[a as usize]);
        match rule.head {
            None => {
                if body {
                    return false;
                }
            }
            Some(h) => {
                if body && !model[h as usize] {
                    return false;
                }
            }
        }
    }
    // Choice bounds hold whenever the choice body holds.
    for choice in &ground.choices {
        let body = choice.pos.iter().all(|&a| model[a as usize])
            && choice.neg.iter().all(|&a| !model[a as usize]);
        if body {
            let count = choice.heads.iter().filter(|&&h| model[h as usize]).count() as i64;
            if choice.lower.is_some_and(|l| count < l) || choice.upper.is_some_and(|u| count > u) {
                return false;
            }
        }
    }
    // Foundedness: naive fixpoint over the reduct.
    let n = ground.atoms.len();
    let mut derived = vec![false; n];
    for (id, _) in ground.atoms.iter() {
        if ground.atoms.is_certain(id) {
            derived[id as usize] = true;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for rule in &ground.rules {
            let Some(head) = rule.head else { continue };
            if derived[head as usize]
                || rule.neg.iter().any(|&a| model[a as usize])
                || !rule.pos.iter().all(|&a| derived[a as usize])
            {
                continue;
            }
            derived[head as usize] = true;
            changed = true;
        }
        for choice in &ground.choices {
            if choice.neg.iter().any(|&a| model[a as usize])
                || !choice.pos.iter().all(|&a| derived[a as usize])
            {
                continue;
            }
            for &h in choice.heads {
                if model[h as usize] && !derived[h as usize] {
                    derived[h as usize] = true;
                    changed = true;
                }
            }
        }
    }
    (0..n).all(|a| !model[a] || derived[a])
}

/// Visit every candidate interpretation (all subsets of the non-certain atoms, with
/// the input facts forced true). Only usable for tiny programs (the generator stays
/// below ~16 free atoms).
fn for_each_candidate(ground: &GroundProgram, mut f: impl FnMut(&[bool])) {
    let n = ground.atoms.len();
    let free: Vec<usize> = (0..n).filter(|&a| !ground.atoms.is_certain(a as u32)).collect();
    assert!(free.len() <= 18, "generator produced too many atoms for brute force");
    let mut model = vec![false; n];
    for (id, _) in ground.atoms.iter() {
        if ground.atoms.is_certain(id) {
            model[id as usize] = true;
        }
    }
    for mask in 0u32..(1u32 << free.len()) {
        for (bit, &a) in free.iter().enumerate() {
            model[a] = mask & (1 << bit) != 0;
        }
        f(&model);
    }
}

/// Every stable model of the ground program, by exhaustive search.
fn brute_force_models(ground: &GroundProgram) -> Vec<Vec<bool>> {
    let mut models = Vec::new();
    for_each_candidate(ground, |model| {
        if is_stable_reference(ground, model) {
            models.push(model.to_vec());
        }
    });
    models
}

/// Project a model onto user-visible atom names (internal `__` auxiliaries dropped),
/// as a sorted list usable for set comparison.
fn visible_atoms(ground: &GroundProgram, symbols: &SymbolTable, model: &[bool]) -> Vec<String> {
    let mut atoms: Vec<String> = ground
        .atoms
        .iter()
        .filter(|(id, atom)| model[*id as usize] && !symbols.name(atom.pred).starts_with("__"))
        .map(|(_, atom)| atom.display(symbols).to_string())
        .collect();
    atoms.sort();
    atoms
}

/// The objective vector of a model: `(priority, value)` sorted by decreasing priority,
/// one entry per priority level occurring in the program.
fn cost_vector(ground: &GroundProgram, model: &[bool]) -> Vec<(i64, i64)> {
    let mut by_priority: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    for m in &ground.minimize {
        let paid = m.condition.is_none_or(|a| model[a as usize]);
        *by_priority.entry(m.priority).or_insert(0) += if paid { m.weight } else { 0 };
    }
    by_priority.into_iter().rev().collect()
}

// ---------- program generator ------------------------------------------------------------

const CONSTS: [&str; 3] = ["a", "b", "c"];
const FACT_PREDS: [&str; 2] = ["p", "q"];
const HEAD_PREDS: [&str; 2] = ["r", "s"];
const BODY_PREDS: [&str; 4] = ["p", "q", "r", "s"];

/// A generated program, kept both as text (for the engine) and as structure (for the
/// independent reference grounding — so grounder bugs cannot cancel out).
#[derive(Debug, Clone)]
#[allow(clippy::type_complexity)]
struct GenProgram {
    text: String,
    facts: Vec<(usize, usize)>,
    rules: Vec<(usize, usize, Option<(usize, bool)>)>,
    choice: Option<(u8, usize, usize, bool)>,
    constraint: Option<(usize, usize)>,
    minimize: Option<(u8, u8, usize)>,
}

fn program_strategy() -> impl Strategy<Value = GenProgram> {
    let fact = (0usize..FACT_PREDS.len(), 0usize..CONSTS.len());
    let rule = (
        0usize..HEAD_PREDS.len(), // head predicate
        0usize..BODY_PREDS.len(), // first (positive, safe) body literal
        proptest::option::of((0usize..BODY_PREDS.len(), any::<bool>())), // second literal
    );
    let choice = (
        0u8..3,                   // lower bound
        0usize..HEAD_PREDS.len(), // chosen predicate
        0usize..FACT_PREDS.len(), // condition predicate
        any::<bool>(),            // has upper bound?
    );
    let constraint = (0usize..BODY_PREDS.len(), 0usize..BODY_PREDS.len());
    let minimize = (1u8..4, 1u8..3, 0usize..HEAD_PREDS.len());
    (
        proptest::collection::vec(fact, 1..6),
        proptest::collection::vec(rule, 0..4),
        proptest::option::of(choice),
        proptest::option::of(constraint),
        proptest::option::of(minimize),
    )
        .prop_map(|(facts, rules, choice, constraint, minimize)| {
            let mut text = String::new();
            for &(p, c) in &facts {
                text.push_str(&format!("{}({}).\n", FACT_PREDS[p], CONSTS[c]));
            }
            for &(h, b1, b2) in &rules {
                let mut body = format!("{}(X)", BODY_PREDS[b1]);
                if let Some((p2, negated)) = b2 {
                    let neg = if negated { "not " } else { "" };
                    body.push_str(&format!(", {}{}(X)", neg, BODY_PREDS[p2]));
                }
                text.push_str(&format!("{}(X) :- {}.\n", HEAD_PREDS[h], body));
            }
            if let Some((lower, h, c, has_upper)) = choice {
                let upper = if has_upper { format!(" {}", lower + 1) } else { String::new() };
                text.push_str(&format!(
                    "{} {{ {}(X) : {}(X) }}{}.\n",
                    lower, HEAD_PREDS[h], FACT_PREDS[c], upper
                ));
            }
            if let Some((p1, p2)) = constraint {
                text.push_str(&format!(":- {}(X), {}(X).\n", BODY_PREDS[p1], BODY_PREDS[p2]));
            }
            if let Some((w, prio, h)) = minimize {
                text.push_str(&format!(
                    "#minimize{{ {}@{},X : {}(X) }}.\n",
                    w, prio, HEAD_PREDS[h]
                ));
            }
            GenProgram { text, facts, rules, choice, constraint, minimize }
        })
}

// ---------- the cross-checks -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn enumerated_models_match_brute_force(program in program_strategy()) {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(&program.text).expect("generated programs parse");
        ctl.ground().expect("generated programs ground");
        let engine_models = ctl.solve_models(1 << 16).expect("enumeration succeeds");

        let ground = ctl.ground_program().expect("grounded");
        let reference = brute_force_models(ground);

        // Compare as sets of visible atom sets. (The engine needs no dedup — blocking
        // clauses cover all program atoms — but sorting makes the comparison order-free.)
        let symbols = engine_symbols(&program.text);
        let mut engine_sets: Vec<Vec<String>> = engine_models
            .iter()
            .map(|m| {
                let mut v: Vec<String> = m
                    .atoms()
                    .iter()
                    .map(|(p, args)| render_atom(p, args))
                    .collect();
                v.sort();
                v
            })
            .collect();
        engine_sets.sort();
        engine_sets.dedup();
        let mut reference_sets: Vec<Vec<String>> = reference
            .iter()
            .map(|m| visible_atoms(ground, &symbols, m))
            .collect();
        reference_sets.sort();
        reference_sets.dedup();
        prop_assert_eq!(
            engine_sets,
            reference_sets,
            "stable-model sets diverge for program:\n{}",
            program.text
        );
    }

    #[test]
    fn stability_checker_matches_naive_reference(program in program_strategy()) {
        // The optimized worklist checker must agree with the naive multi-pass
        // definition on *every* candidate interpretation, not only on the models the
        // SAT search happens to propose.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(&program.text).expect("generated programs parse");
        ctl.ground().expect("generated programs ground");
        let ground = ctl.ground_program().expect("grounded");
        let mut checker = asp::stable::StabilityChecker::new(ground);
        let mut failure: Option<String> = None;
        for_each_candidate(ground, |model| {
            if failure.is_some() {
                return;
            }
            let constraints_ok = ground.rules.iter().all(|rule| {
                rule.head.is_some()
                    || !(rule.pos.iter().all(|&a| model[a as usize])
                        && rule.neg.iter().all(|&a| !model[a as usize]))
            });
            if !constraints_ok {
                return;
            }
            let fast_stable = checker.unfounded_set(ground, model).is_empty();
            // The reference folds rule/bound satisfaction into stability; compare on
            // foundedness only for interpretations that satisfy the rules, where the
            // two notions coincide.
            let naive_stable = is_stable_reference(ground, model);
            let rules_sat = ground.rules.iter().all(|rule| match rule.head {
                None => true,
                Some(h) => {
                    !(rule.pos.iter().all(|&a| model[a as usize])
                        && rule.neg.iter().all(|&a| !model[a as usize]))
                        || model[h as usize]
                }
            });
            let bounds_sat = ground.choices.iter().all(|choice| {
                let body = choice.pos.iter().all(|&a| model[a as usize])
                    && choice.neg.iter().all(|&a| !model[a as usize]);
                !body || {
                    let count =
                        choice.heads.iter().filter(|&&h| model[h as usize]).count() as i64;
                    !(choice.lower.is_some_and(|l| count < l)
                        || choice.upper.is_some_and(|u| count > u))
                }
            });
            if rules_sat && bounds_sat && fast_stable != naive_stable {
                failure = Some(format!(
                    "checker disagreement (fast {fast_stable}, naive {naive_stable}) for:\n{}",
                    program.text
                ));
            }
        });
        prop_assert!(failure.is_none(), "{}", failure.unwrap_or_default());
    }

    #[test]
    fn optimum_matches_brute_force(program in program_strategy()) {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(&program.text).expect("generated programs parse");
        ctl.ground().expect("generated programs ground");
        let ground = ctl.ground_program().expect("grounded").clone();
        let reference = brute_force_models(&ground);
        let best_reference = reference.iter().map(|m| cost_vector(&ground, m)).min();

        match ctl.solve().expect("solve succeeds") {
            asp::control::SolveOutcome::Unsatisfiable => {
                prop_assert!(
                    best_reference.is_none(),
                    "engine UNSAT but reference has models for:\n{}",
                    program.text
                );
            }
            asp::control::SolveOutcome::Optimal { cost, .. } => {
                let expected = best_reference.unwrap_or_else(|| {
                    panic!("engine found a model but reference has none:\n{}", program.text)
                });
                // The engine reports every level of the program; both vectors are
                // sorted by decreasing priority, so they must be equal.
                prop_assert_eq!(
                    cost,
                    expected,
                    "objective vectors diverge for program:\n{}",
                    program.text
                );
            }
        }
    }

    #[test]
    fn guarded_hard_mode_matches_plain_hard_program(program in program_strategy()) {
        // The concretizer's single-grounding diagnostics fold rewrites hard
        // constraints `:- body.` into `viol :- body. :- viol, not g.` with `g` an
        // `#external` guard pinned false on the normal solve. With the guard false,
        // the guarded program must have exactly the same stable models as the plain
        // one — no semantics may leak from the guard machinery (free-but-unsupported
        // external atom, guarded constraint, high-priority minimize level).
        let plain = format!("{}:- p(X), q(X).\n", program.text);
        let guarded = format!(
            "{}viol(X) :- p(X), q(X).\n#external g.\n:- viol(X), not g.\n\
             #minimize{{ 1@1000,X : viol(X) }}.\n",
            program.text
        );

        let mut ctl_a = Control::new(SolverConfig::default());
        ctl_a.add_program(&plain).expect("plain program parses");
        ctl_a.ground().expect("plain program grounds");
        let mut sets_a: Vec<Vec<String>> = ctl_a
            .solve_models(1 << 16)
            .expect("plain enumeration succeeds")
            .iter()
            .map(|m| {
                let mut v: Vec<String> =
                    m.atoms().iter().map(|(p, args)| render_atom(p, args)).collect();
                v.sort();
                v
            })
            .collect();
        sets_a.sort();

        // Enumerate the guarded program (the free external explores both guard
        // values), keep the guard-false models, and project the guard machinery away.
        let mut ctl_b = Control::new(SolverConfig::default());
        ctl_b.add_program(&guarded).expect("guarded program parses");
        ctl_b.ground().expect("guarded program grounds");
        let mut sets_b: Vec<Vec<String>> = ctl_b
            .solve_models(1 << 16)
            .expect("guarded enumeration succeeds")
            .iter()
            .filter(|m| !m.contains("g", &[]))
            .map(|m| {
                let mut v: Vec<String> = m
                    .atoms()
                    .iter()
                    .filter(|(p, _)| p != "g" && p != "viol")
                    .map(|(p, args)| render_atom(p, args))
                    .collect();
                v.sort();
                v
            })
            .collect();
        sets_b.sort();
        prop_assert_eq!(
            sets_a,
            sets_b,
            "guard machinery leaked into the hard-mode models for:\n{}",
            program.text
        );

        // And the optimizing solve with the guard *assumed* false must agree with the
        // plain program on satisfiability and on every ordinary objective level (the
        // guard's 1000-level reports zero).
        let outcome_a = ctl_a.solve().expect("plain solve succeeds");
        let outcome_b = ctl_b
            .solve_with_assumptions(&[asp::control::Assumption::fails("g", &[])])
            .expect("guarded solve succeeds");
        match (outcome_a, outcome_b) {
            (
                asp::control::SolveOutcome::Optimal { cost: cost_a, .. },
                asp::control::AssumeOutcome::Optimal { cost: cost_b, .. },
            ) => {
                let below: Vec<(i64, i64)> =
                    cost_b.iter().copied().filter(|&(p, _)| p < 1000).collect();
                prop_assert_eq!(cost_a, below, "ordinary levels diverge:\n{}", program.text);
                prop_assert!(
                    cost_b.iter().all(|&(p, v)| p < 1000 || v == 0),
                    "guard level nonzero in hard mode:\n{}",
                    program.text
                );
            }
            (
                asp::control::SolveOutcome::Unsatisfiable,
                asp::control::AssumeOutcome::Unsatisfiable { .. },
            ) => {}
            (a, b) => {
                prop_assert!(
                    false,
                    "satisfiability diverges (plain {:?}, guarded {:?}) for:\n{}",
                    a,
                    b,
                    program.text
                );
            }
        }
    }
}

proptest! {
    // Few generated programs have a positive loop, so this runs more cases to probe
    // the stability check on the core-minimization path too.
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn minimized_cores_are_minimal_by_brute_force(
        program in program_strategy(),
        picks in proptest::collection::vec((0usize..64, any::<bool>()), 1..8),
    ) {
        check_minimized_core(&program, &picks);
    }
}

/// Assume random atoms of the grounding true or false (`picks` index them modulo
/// their number). Whenever the solve is UNSAT, `minimize_core` must return a core
/// that the brute-force models refute, and dropping any one member must leave a
/// satisfiable set. The first call adopts the failed solve's retired solver; the
/// second builds a fresh probe solver from the session cache; both must give the
/// same core.
fn check_minimized_core(program: &GenProgram, picks: &[(usize, bool)]) {
    let mut ctl = Control::new(SolverConfig::default());
    ctl.add_program(&program.text).expect("generated programs parse");
    ctl.ground().expect("generated programs ground");
    let ground = ctl.ground_program().expect("grounded").clone();
    let symbols = ctl.symbols();
    let atoms: Vec<(u32, Assumption)> = ground
        .atoms
        .iter()
        .filter(|(_, atom)| !symbols.name(atom.pred).starts_with("__"))
        .map(|(id, atom)| {
            let args: Vec<Value> = atom
                .args
                .iter()
                .map(|v| match v {
                    Val::Int(i) => Value::Int(*i),
                    Val::Sym(s) => Value::Str(symbols.name(*s).to_string()),
                })
                .collect();
            (id, Assumption::holds(symbols.name(atom.pred), &args))
        })
        .collect();
    if atoms.is_empty() {
        return;
    }
    let (assumed, assumptions): (Vec<(u32, bool)>, Vec<Assumption>) = picks
        .iter()
        .map(|&(pick, positive)| {
            let (id, held) = &atoms[pick % atoms.len()];
            ((*id, positive), Assumption { positive, ..held.clone() })
        })
        .unzip();
    let reference = brute_force_models(&ground);
    let satisfiable = |members: &[usize]| {
        reference
            .iter()
            .any(|model| members.iter().all(|&i| model[assumed[i].0 as usize] == assumed[i].1))
    };
    let all: Vec<usize> = (0..assumptions.len()).collect();
    let core = match ctl.solve_with_assumptions(&assumptions).expect("solve succeeds") {
        AssumeOutcome::Unsatisfiable { core } => core,
        other => {
            assert!(
                satisfiable(&all),
                "engine found {:?} under assumptions the reference refutes:\n{}",
                other,
                program.text
            );
            return;
        }
    };
    assert!(!satisfiable(&core), "unsound core {:?} for:\n{}", core, program.text);
    let (adopted, _) = ctl.minimize_core(&assumptions, &core, &[]).expect("minimize");
    let (rebuilt, _) = ctl.minimize_core(&assumptions, &core, &[]).expect("minimize");
    assert_eq!(&adopted, &rebuilt, "probe solvers disagree for:\n{}", program.text);
    // Every assumption together is a sound core too, and rarely a minimal one.
    let (whole, _) = ctl.minimize_core(&assumptions, &all, &[]).expect("minimize");
    for minimized in [adopted, whole] {
        assert!(
            !satisfiable(&minimized),
            "minimized core {:?} is satisfiable for:\n{}",
            minimized,
            program.text
        );
        for drop in 0..minimized.len() {
            let mut rest = minimized.clone();
            rest.remove(drop);
            assert!(
                satisfiable(&rest),
                "core {:?} is not minimal (member {} is redundant) for:\n{}",
                minimized,
                minimized[drop],
                program.text
            );
        }
    }
}

/// Re-ground the program just to obtain a symbol table matching the reference
/// grounding (`Control` owns its table privately).
fn engine_symbols(text: &str) -> SymbolTable {
    let program = asp::parser::parse_program(text).unwrap();
    let mut symbols = SymbolTable::new();
    let _ = asp::ground::Grounder::new(&mut symbols).ground(&program, &[]).unwrap();
    symbols
}

fn render_atom(pred: &str, args: &[asp::control::Value]) -> String {
    if args.is_empty() {
        return pred.to_string();
    }
    let rendered: Vec<String> = args.iter().map(|a| a.as_str()).collect();
    format!("{}({})", pred, rendered.join(","))
}

#[test]
fn reference_enumerator_sanity() {
    // The Fig. 3 program has exactly two distinct stable atom sets.
    let text = r#"
        depends_on(a, b).
        depends_on(a, c).
        depends_on(b, d).
        depends_on(c, d).
        node(Dep) :- node(Pkg), depends_on(Pkg, Dep).
        1 { node(a); node(b) }.
    "#;
    let mut ctl = Control::new(SolverConfig::default());
    ctl.add_program(text).unwrap();
    ctl.ground().unwrap();
    let ground = ctl.ground_program().unwrap();
    let models = brute_force_models(ground);
    let symbols = engine_symbols(text);
    let mut sets: Vec<Vec<String>> =
        models.iter().map(|m| visible_atoms(ground, &symbols, m)).collect();
    sets.sort();
    sets.dedup();
    assert_eq!(sets.len(), 2, "{sets:?}");

    // And a program where optimization matters.
    let text = r#"
        item(a). item(b).
        1 { pick(X) : item(X) } 1.
        #minimize{ 2@1,X : pick(X) }.
    "#;
    let mut ctl = Control::new(SolverConfig::default());
    ctl.add_program(text).unwrap();
    ctl.ground().unwrap();
    let ground = ctl.ground_program().unwrap().clone();
    let models = brute_force_models(&ground);
    assert_eq!(models.len(), 2);
    let best = models.iter().map(|m| cost_vector(&ground, m)).min().unwrap();
    assert_eq!(best, vec![(1, 2)]);
    match ctl.solve().unwrap() {
        asp::control::SolveOutcome::Optimal { cost, .. } => assert_eq!(cost, best),
        _ => panic!("satisfiable"),
    }
}

// ---------- fully independent reference (its own grounding) ------------------------------
//
// Everything below works from the generator's *structure*, never touching the engine's
// grounder, translator, or solver — so a bug anywhere in that pipeline shows up as a
// divergence instead of cancelling out.

mod independent {
    use super::GenProgram;
    use super::{BODY_PREDS, CONSTS, FACT_PREDS, HEAD_PREDS};

    const N_PREDS: usize = 4; // p, q, r, s (indexed as in BODY_PREDS)
    const N_ATOMS: usize = N_PREDS * CONSTS.len();

    fn atom(pred: usize, c: usize) -> usize {
        pred * CONSTS.len() + c
    }

    fn head_pred(h: usize) -> usize {
        // HEAD_PREDS are r, s = BODY_PREDS[2..]
        debug_assert!(HEAD_PREDS[h] == BODY_PREDS[h + 2]);
        h + 2
    }

    pub struct Reference {
        facts: Vec<bool>,
        /// (head, pos body atoms, neg body atoms)
        rules: Vec<(usize, Vec<usize>, Vec<usize>)>,
        constraints: Vec<(Vec<usize>, Vec<usize>)>,
        /// (heads, lower, upper)
        choice: Option<(Vec<usize>, i64, Option<i64>)>,
        /// (priority, weight, condition atom) over *possible* condition atoms.
        minimize: Vec<(i64, i64, usize)>,
        possible: Vec<bool>,
    }

    impl Reference {
        pub fn new(p: &GenProgram) -> Reference {
            let mut facts = vec![false; N_ATOMS];
            for &(fp, c) in &p.facts {
                // FACT_PREDS are p, q = BODY_PREDS[..2]
                debug_assert!(FACT_PREDS[fp] == BODY_PREDS[fp]);
                facts[atom(fp, c)] = true;
            }
            let mut rules = Vec::new();
            for &(h, b1, b2) in &p.rules {
                for c in 0..CONSTS.len() {
                    let mut pos = vec![atom(b1, c)];
                    let mut neg = Vec::new();
                    if let Some((p2, negated)) = b2 {
                        if negated {
                            neg.push(atom(p2, c));
                        } else {
                            pos.push(atom(p2, c));
                        }
                    }
                    rules.push((atom(head_pred(h), c), pos, neg));
                }
            }
            let mut constraints = Vec::new();
            if let Some((p1, p2)) = p.constraint {
                for c in 0..CONSTS.len() {
                    let mut pos = vec![atom(p1, c)];
                    if p2 != p1 {
                        pos.push(atom(p2, c));
                    }
                    constraints.push((pos, Vec::new()));
                }
            }
            let choice = p.choice.map(|(lower, h, cond, has_upper)| {
                let heads: Vec<usize> = (0..CONSTS.len())
                    .filter(|&c| facts[atom(cond, c)])
                    .map(|c| atom(head_pred(h), c))
                    .collect();
                let upper = has_upper.then_some(lower as i64 + 1);
                (heads, lower as i64, upper)
            });

            // Possible atoms: facts, plus rule heads whose positive bodies are possible
            // (negation ignored), plus choice heads — the same over-approximation the
            // engine's phase 1 computes.
            let mut possible = facts.clone();
            if let Some((heads, _, _)) = &choice {
                for &h in heads {
                    possible[h] = true;
                }
            }
            let mut changed = true;
            while changed {
                changed = false;
                for (head, pos, _) in &rules {
                    if !possible[*head] && pos.iter().all(|&a| possible[a]) {
                        possible[*head] = true;
                        changed = true;
                    }
                }
            }

            let mut minimize = Vec::new();
            if let Some((w, prio, h)) = p.minimize {
                for c in 0..CONSTS.len() {
                    let target = atom(head_pred(h), c);
                    if possible[target] {
                        minimize.push((prio as i64, w as i64, target));
                    }
                }
            }
            Reference { facts, rules, constraints, choice, minimize, possible }
        }

        fn is_stable(&self, model: &[bool]) -> bool {
            for (head, pos, neg) in &self.rules {
                if pos.iter().all(|&a| model[a]) && neg.iter().all(|&a| !model[a]) && !model[*head]
                {
                    return false;
                }
            }
            for (pos, neg) in &self.constraints {
                if pos.iter().all(|&a| model[a]) && neg.iter().all(|&a| !model[a]) {
                    return false;
                }
            }
            if let Some((heads, lower, upper)) = &self.choice {
                let count = heads.iter().filter(|&&h| model[h]).count() as i64;
                if count < *lower || upper.is_some_and(|u| count > u) {
                    return false;
                }
            }
            // Foundedness (naive fixpoint over the reduct).
            let mut derived = self.facts.clone();
            if let Some((heads, _, _)) = &self.choice {
                for &h in heads {
                    if model[h] {
                        derived[h] = true;
                    }
                }
            }
            let mut changed = true;
            while changed {
                changed = false;
                for (head, pos, neg) in &self.rules {
                    if !derived[*head]
                        && neg.iter().all(|&a| !model[a])
                        && pos.iter().all(|&a| derived[a])
                    {
                        derived[*head] = true;
                        changed = true;
                    }
                }
            }
            (0..N_ATOMS).all(|a| !model[a] || derived[a])
        }

        /// All stable models, as sorted lists of atom names.
        pub fn stable_models(&self) -> Vec<Vec<String>> {
            let free: Vec<usize> = (0..N_ATOMS).filter(|&a| !self.facts[a]).collect();
            let mut out = Vec::new();
            let mut model = self.facts.clone();
            for mask in 0u32..(1u32 << free.len()) {
                for (bit, &a) in free.iter().enumerate() {
                    model[a] = mask & (1 << bit) != 0;
                }
                if self.is_stable(&model) {
                    out.push(self.render(&model));
                }
            }
            out.sort();
            out.dedup();
            out
        }

        /// The best (lexicographically minimal) objective vector over stable models,
        /// with one entry per priority level the minimize statement grounds to.
        pub fn best_cost(&self) -> Option<Vec<(i64, i64)>> {
            let free: Vec<usize> = (0..N_ATOMS).filter(|&a| !self.facts[a]).collect();
            let mut best: Option<Vec<(i64, i64)>> = None;
            let mut model = self.facts.clone();
            for mask in 0u32..(1u32 << free.len()) {
                for (bit, &a) in free.iter().enumerate() {
                    model[a] = mask & (1 << bit) != 0;
                }
                if self.is_stable(&model) {
                    let cost = self.cost(&model);
                    if best.as_ref().is_none_or(|b| cost < *b) {
                        best = Some(cost);
                    }
                }
            }
            best
        }

        fn cost(&self, model: &[bool]) -> Vec<(i64, i64)> {
            let mut by_priority: std::collections::BTreeMap<i64, i64> = Default::default();
            for &(prio, w, cond) in &self.minimize {
                *by_priority.entry(prio).or_insert(0) += if model[cond] { w } else { 0 };
            }
            by_priority.into_iter().rev().collect()
        }

        /// The possible-atom over-approximation, for diagnostics.
        pub fn possible_atoms(&self) -> Vec<String> {
            let mut v: Vec<String> =
                (0..N_ATOMS).filter(|&a| self.possible[a]).map(Self::name).collect();
            v.sort();
            v
        }

        fn render(&self, model: &[bool]) -> Vec<String> {
            let mut v: Vec<String> = (0..N_ATOMS).filter(|&a| model[a]).map(Self::name).collect();
            v.sort();
            v
        }

        fn name(a: usize) -> String {
            format!("{}({})", BODY_PREDS[a / CONSTS.len()], CONSTS[a % CONSTS.len()])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_independent_reference_models(program in program_strategy()) {
        let reference = independent::Reference::new(&program);
        let expected = reference.stable_models();

        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(&program.text).expect("generated programs parse");
        ctl.ground().expect("generated programs ground");
        let engine_models = ctl.solve_models(1 << 16).expect("enumeration succeeds");
        let mut engine_sets: Vec<Vec<String>> = engine_models
            .iter()
            .map(|m| {
                let mut v: Vec<String> = m
                    .atoms()
                    .iter()
                    .map(|(p, args)| render_atom(p, args))
                    .collect();
                v.sort();
                v
            })
            .collect();
        engine_sets.sort();
        engine_sets.dedup();
        prop_assert_eq!(
            engine_sets,
            expected,
            "independent reference diverges (possible: {:?}) for program:\n{}",
            reference.possible_atoms(),
            program.text
        );
    }

    #[test]
    fn engine_matches_independent_reference_optimum(program in program_strategy()) {
        let reference = independent::Reference::new(&program);
        let expected = reference.best_cost();

        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(&program.text).expect("generated programs parse");
        ctl.ground().expect("generated programs ground");
        match ctl.solve().expect("solve succeeds") {
            asp::control::SolveOutcome::Unsatisfiable => {
                prop_assert!(
                    expected.is_none(),
                    "engine UNSAT but the independent reference has models for:\n{}",
                    program.text
                );
            }
            asp::control::SolveOutcome::Optimal { cost, .. } => {
                let expected = expected.unwrap_or_else(|| {
                    panic!("engine found a model but the reference has none:\n{}", program.text)
                });
                prop_assert_eq!(cost, expected, "optimum diverges for program:\n{}", program.text);
            }
        }
    }
}

#[test]
fn right_recursion_with_early_consumer_is_complete() {
    // The recursive literal sits at body position 1 (the semi-naive delta must drive
    // *every* occurrence, not just the first), and the consumer rule appears before
    // the producer (so a phase-1 omission cannot be healed by phase-2 interning).
    let text = r#"
        depends_on(a, b). depends_on(b, c). depends_on(c, d). depends_on(d, e).
        reach(X) :- path(a, X).
        path(A, B) :- depends_on(A, B).
        path(A, C) :- depends_on(A, B), path(B, C).
    "#;
    let mut ctl = Control::new(SolverConfig::default());
    ctl.add_program(text).unwrap();
    ctl.ground().unwrap();
    let models = ctl.solve_models(4).unwrap();
    assert_eq!(models.len(), 1);
    for target in ["b", "c", "d", "e"] {
        assert!(
            models[0].contains("reach", &[(*target).into()]),
            "reach({target}) missing: the fixpoint lost a delta occurrence"
        );
    }
}

#[test]
fn arithmetic_arguments_respect_binding_order() {
    // m/1 is far more selective than n/1, tempting the planner to join `m(X + 1)`
    // first — but the term is unevaluable until n(X) binds X, so the planner must
    // defer it. (Regression test: a selectivity-only planner silently derived nothing.)
    let text = r#"
        n(1). n(2). n(3). n(4). n(5).
        m(3).
        r(X) :- n(X), m(X + 1).
    "#;
    let mut ctl = Control::new(SolverConfig::default());
    ctl.add_program(text).unwrap();
    ctl.ground().unwrap();
    let models = ctl.solve_models(2).unwrap();
    assert_eq!(models.len(), 1);
    let rs: Vec<i64> = models[0].with_pred("r").filter_map(|a| a[0].as_int()).collect();
    assert_eq!(rs, vec![2], "r(2) must be derived through the arithmetic literal");
}

#[test]
fn delta_literal_with_arithmetic_argument_is_driven() {
    // t2 atoms appear only in round 1 (the producer rule is textually *after* the
    // consumer), so in round 2 the delta literal of `r2(X) :- s2(X), t2(X + 1)` is
    // the arithmetic one — the semi-naive driver must fall back to a delta-restricted
    // join instead of pre-binding the delta atom. `probe` sits first so a phase-2
    // re-derivation cannot mask a phase-1 omission.
    let text = r#"
        probe(X) :- r2(X).
        r2(X) :- s2(X), t2(X + 1).
        t2(X) :- u2(X).
        u2(2). u2(3). u2(4).
        s2(1). s2(2). s2(3).
    "#;
    let mut ctl = Control::new(SolverConfig::default());
    ctl.add_program(text).unwrap();
    ctl.ground().unwrap();
    let models = ctl.solve_models(2).unwrap();
    assert_eq!(models.len(), 1);
    let mut probes: Vec<i64> = models[0].with_pred("probe").filter_map(|a| a[0].as_int()).collect();
    probes.sort_unstable();
    assert_eq!(probes, vec![1, 2, 3], "every r2 instance must be found via the delta fallback");
}

// ---------- owner restriction is exact -----------------------------------------------------
//
// A session request that excludes fact owners must ground exactly what a fresh control
// grounds from the kept facts alone: the same atoms, the same number of rules and the
// same stable models. The generated facts are emitted under random owner sets drawn
// from a vocabulary whose names are also argument constants, the same fact is emitted
// under several owner sets, and facts may land on rule heads (a fact that is also
// derivable stays possible when its emission is excluded).

const OWNERS: [&str; 4] = ["a", "b", "o1", "o2"];

/// One fact emission: `(predicate index into BODY_PREDS, constant, owner mask)`.
type Emission = (usize, usize, u8);

fn owners_of(mask: u8) -> Vec<&'static str> {
    (0..OWNERS.len()).filter(|i| mask & (1 << i) != 0).map(|i| OWNERS[i]).collect()
}

/// The generated program without its fact lines (facts are emitted with owners).
fn rules_only(program: &GenProgram) -> String {
    program.text.lines().skip(program.facts.len()).map(|l| format!("{l}\n")).collect()
}

fn add(ctl: &mut Control, (pred, c, _): Emission) {
    ctl.add_fact(BODY_PREDS[pred], &[CONSTS[c].into()]);
}

/// Atom names, rule count and stable models of a grounded control.
fn observe(ctl: &mut Control) -> (Vec<String>, usize, Vec<Vec<String>>) {
    let ground = ctl.ground_program().expect("grounded");
    let mut atoms: Vec<String> =
        ground.atoms.iter().map(|(_, atom)| atom.display(ctl.symbols()).to_string()).collect();
    atoms.sort();
    let rules = ground.rules.len();
    let mut models: Vec<Vec<String>> = ctl
        .solve_models(1 << 16)
        .expect("enumeration succeeds")
        .iter()
        .map(|m| {
            let mut v: Vec<String> =
                m.atoms().iter().map(|(p, args)| render_atom(p, args)).collect();
            v.sort();
            v
        })
        .collect();
    models.sort();
    models.dedup();
    (atoms, rules, models)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn owner_restriction_matches_a_fresh_grounding_of_the_kept_facts(
        program in program_strategy(),
        owners in proptest::collection::vec(0u8..16, 6..7),
        extra in proptest::collection::vec(
            (0usize..BODY_PREDS.len(), 0usize..CONSTS.len(), 0u8..16), 0..5),
        kept in 0u8..16,
        delta in proptest::option::of((0usize..BODY_PREDS.len(), 0usize..CONSTS.len())),
    ) {
        // The program's facts, each under a random owner set, then extra emissions:
        // repeats under other owners, and facts on derived predicates.
        let mut emissions: Vec<Emission> = program
            .facts
            .iter()
            .zip(owners.iter().cycle())
            .map(|(&(p, c), &mask)| (p, c, mask))
            .collect();
        emissions.extend(extra);
        let rules = rules_only(&program);

        let mut base = Control::new(SolverConfig::default());
        base.add_program(&rules).expect("generated programs parse");
        for &emission in &emissions {
            base.set_fact_owners(&owners_of(emission.2));
            add(&mut base, emission);
        }
        let frozen = base.freeze_base().expect("base grounds");
        let mut request = frozen.request();
        let excluded = owners_of(!kept & 0xF);
        request.restrict_symbols(&excluded);
        if let Some((p, c)) = delta {
            add(&mut request, (p, c, 0));
        }
        request.ground().expect("request grounds");
        let session = observe(&mut request);

        // A fresh control given only the kept emissions: those whose owners are all
        // kept (the empty owner set is global).
        let mut fresh = Control::new(SolverConfig::default());
        fresh.add_program(&rules).expect("generated programs parse");
        for &emission in emissions.iter().filter(|e| e.2 & !kept & 0xF == 0) {
            add(&mut fresh, emission);
        }
        if let Some((p, c)) = delta {
            add(&mut fresh, (p, c, 0));
        }
        fresh.ground().expect("fresh program grounds");
        let expected = observe(&mut fresh);
        prop_assert_eq!(
            session,
            expected,
            "owner restriction diverges (emissions {:?}, excluded {:?}, delta {:?}) for:\n{}",
            emissions,
            excluded,
            delta,
            rules
        );
    }
}
