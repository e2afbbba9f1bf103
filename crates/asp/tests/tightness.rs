//! Soundness of skipping the stable-model check on tight programs.
//!
//! A program is tight when its positive dependency graph (an edge from each positive
//! body atom that is not an input fact to the rule's head, or to each head of a
//! choice) is acyclic; for a tight program every supported model is stable (Fages), so
//! the solver accepts its models without an unfounded-set check. On random small
//! ground programs with choices, externals, facts and self-loops:
//!
//! * [`asp::stable::is_tight`] must agree with a brute-force cycle search (transitive
//!   closure of the edge relation), and
//! * every model `enumerate_models` returns for a tight program must pass the full
//!   unfounded-set check — in release builds nothing else checks it.

use asp::control::{Control, SolverConfig};
use asp::ground::GroundProgram;
use asp::optimize::enumerate_models;
use asp::sat::SatConfig;
use asp::stable::{is_tight, unfounded_set};
use asp::translate::translate;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const ATOMS: usize = 6;

/// One statement over the atoms `a0`…`a5`: `(kind, x, y, z)`.
fn statement(kind: u8, x: usize, y: usize, z: usize) -> String {
    match kind {
        0 => format!("a{x}."),
        1 => format!("a{x} :- a{y}."),
        2 => format!("a{x} :- a{y}, a{z}."),
        3 => format!("a{x} :- a{y}, not a{z}."),
        4 => format!("{{ a{x}; a{y} }} :- a{z}."),
        5 => format!("{{ a{x} }}."),
        6 => format!("#external a{x}."),
        7 => format!("a{x} :- a{x}."),
        _ => format!(":- a{x}, not a{y}."),
    }
}

fn program_strategy() -> impl Strategy<Value = String> {
    let stmt = (0u8..9, 0..ATOMS, 0..ATOMS, 0..ATOMS);
    proptest::collection::vec(stmt, 1..10).prop_map(|stmts| {
        stmts.into_iter().map(|(k, x, y, z)| statement(k, x, y, z) + "\n").collect()
    })
}

fn ground(text: &str) -> Control {
    let mut ctl = Control::new(SolverConfig::default());
    ctl.add_program(text).expect("generated programs parse");
    ctl.ground().expect("generated programs ground");
    ctl
}

/// Does the positive dependency graph over the non-fact atoms have a cycle? Decided by
/// the transitive closure of the edge relation: some atom reaches itself.
fn has_positive_cycle(ground: &GroundProgram) -> bool {
    let n = ground.atoms.len();
    let mut reach = vec![vec![false; n]; n];
    let mut edges = |pos: &[u32], heads: &[u32]| {
        for &p in pos.iter().filter(|&&p| !ground.atoms.is_certain(p)) {
            for &h in heads {
                reach[p as usize][h as usize] = true;
            }
        }
    };
    for rule in &ground.rules {
        if let Some(h) = rule.head {
            edges(rule.pos, &[h]);
        }
    }
    for choice in &ground.choices {
        edges(choice.pos, choice.heads);
    }
    // Warshall: after round k, reach[i][j] holds when a path from i to j runs
    // through intermediate atoms below k + 1 only.
    for k in 0..n {
        let through = reach[k].clone();
        for row in reach.iter_mut().filter(|row| row[k]) {
            for (r, &t) in row.iter_mut().zip(&through) {
                *r |= t;
            }
        }
    }
    (0..n).any(|a| reach[a][a])
}

#[test]
fn tightness_matches_brute_force_and_tight_models_are_stable() {
    let strategy = program_strategy();
    let mut rng = TestRng::deterministic("tightness");
    let (mut tight, mut loops, mut tight_models) = (0, 0, 0);
    for _ in 0..600 {
        let text = strategy.new_value(&mut rng);
        let ctl = ground(&text);
        let ground = ctl.ground_program().expect("grounded");
        let cyclic = has_positive_cycle(ground);
        assert_eq!(is_tight(ground), !cyclic, "tightness is wrong for:\n{text}");
        assert_eq!(ground.is_tight(), !cyclic, "the kept tightness is wrong for:\n{text}");
        assert_eq!(ctl.stats().tight, !cyclic, "Stats::tight is wrong for:\n{text}");
        if cyclic {
            loops += 1;
            continue;
        }
        tight += 1;
        let models = enumerate_models(ground, &translate(ground), &SatConfig::default(), 1 << 10);
        for model in &models {
            let unfounded = unfounded_set(ground, model);
            assert!(unfounded.is_empty(), "unfounded {unfounded:?} in a model of:\n{text}");
        }
        tight_models += models.len();
    }
    // The generator must exercise both sides and real models.
    assert!(tight >= 100 && loops >= 100, "{tight} tight, {loops} with loops");
    assert!(tight_models >= 200, "{tight_models} models of tight programs");
}

#[test]
fn tightness_of_known_programs() {
    let cases = [
        ("a :- b. b :- c. { c }.", true),
        ("{ a }. a :- a.", false),
        ("{ b }. a :- b. b :- a.", false),
        // A cycle through a choice: the choice's body atom reaches its heads.
        ("{ a } :- b. b :- a. { b }.", false),
        // Negative dependencies make no edge.
        ("{ c }. a :- not b, c. b :- not a, c.", true),
        // A cycle through an input fact founds nothing: the fact is left out.
        ("f. a :- f, b. b :- a. { a }.", false),
        ("f. g :- f. f :- g.", true),
        // An external is an atom like any other: only its rules can close a loop.
        ("#external e. a :- e. b :- a.", true),
        ("#external e. a :- e. e :- a.", false),
    ];
    for (text, tight) in cases {
        let ctl = ground(text);
        let ground = ctl.ground_program().expect("grounded");
        assert_eq!(is_tight(ground), tight, "{text}");
        assert_eq!(has_positive_cycle(ground), !tight, "{text}");
    }
}

/// A non-tight program keeps the full check: a loop that only supports itself is
/// rejected with a loop nogood, and the stats count every check.
#[test]
fn non_tight_programs_keep_the_full_check() {
    let mut ctl =
        ground("a :- b. b :- a. a :- x. { x; c }. :- not a. :- a, c. #minimize{ 1@1 : x }.");
    assert!(!ctl.stats().tight);
    let rendered = match ctl.solve().expect("solves") {
        asp::SolveOutcome::Optimal { model, cost } => format!("{:?} {cost:?}", model.atoms()),
        asp::SolveOutcome::Unsatisfiable => panic!("{{x, a, b}} is stable"),
    };
    assert_eq!(rendered, r#"[("x", []), ("a", []), ("b", [])] [(1, 1)]"#);
    let stats = ctl.stats();
    assert!(stats.loop_nogoods > 0, "the unfounded loop {{a, b}} must be cut");
    assert_eq!(stats.stability_checks, stats.models_examined);
    assert_eq!(ctl.solve_models(16).expect("enumerates").len(), 1);
    assert_eq!(ctl.stats().stability_checks, ctl.stats().models_examined);
}

/// A tight program runs no stability check at all.
#[test]
fn tight_programs_run_no_stability_check() {
    let mut ctl = ground("{ x; y }. a :- x. b :- a, not y. #minimize{ 1@1 : y; 1@2 : b }.");
    assert!(ctl.stats().tight);
    assert!(ctl.solve().expect("solves").is_satisfiable());
    assert!(ctl.stats().models_examined > 0);
    assert_eq!(ctl.stats().stability_checks, 0);
    ctl.solve_models(16).expect("enumerates");
    assert_eq!(ctl.stats().stability_checks, 0);
}
