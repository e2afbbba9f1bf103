//! Unsat-core error diagnostics: turning "UNSAT" into actionable messages.
//!
//! The paper's concretizer does not just find optimal solutions — it *explains*
//! infeasible ones. Violations of the software model are encoded as weighted
//! `error(Priority, Msg, Args)` facts (folded into the fixed-arity `error3`…`error6`
//! predicates of `concretize.lp`), interpreted by `error_guard.lp`: hard integrity
//! constraints guarded behind `not relax_mode`, plus error-minimization levels
//! conditioned on `relax_mode` — where `relax_mode` is an `#external` guard atom whose
//! truth each solve fixes through an assumption. The concretizer grounds **once** and
//! solves twice:
//!
//! 1. **Normal solve** (`relax_mode` pinned false) — errors are hard, and every
//!    root-spec condition is pinned true through a *solver assumption*. An UNSAT
//!    answer therefore carries an **unsat core**: the subset of the user's requirements
//!    that cannot hold together, minimized here by deletion (drop one member, re-probe,
//!    with the guard held false throughout).
//! 2. **Relaxed solve** (`relax_mode` flipped true) — the *same* ground program is
//!    re-solved with errors *minimized* above every Table II criterion (a priority
//!    floor of 1000 skips the ordinary levels). The minimal set of surviving error
//!    atoms names exactly which rules of the software model had to be violated, and
//!    each atom is rendered into a human-readable [`Diagnostic`].
//!
//! Both solves share one control object — there is no second setup and no second
//! grounding on the unsat path ([`DiagnosticsStats::second_phase_ground`] stays zero).
//! The result is carried by [`crate::ConcretizeError::Unsatisfiable`], printed by
//! `spack-solve --explain`.

use std::time::Duration;

use asp::{Model, Value};

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The condition makes the request unsatisfiable.
    Error,
    /// Supporting context: the core-summary diagnostic is downgraded to a note when
    /// model-level errors already carry the specifics (the CLI renders notes with a
    /// distinct tag).
    Note,
}

/// One rendered explanation of why a request cannot be concretized.
///
/// Diagnostics map 1:1 onto the paper's `error(Priority, Msg, Args)` scheme:
/// [`Diagnostic::priority`] is the error's `Priority` (higher = more severe, and the
/// relaxed solve minimizes higher priorities first, at objective level
/// `1000 + Priority`), [`Diagnostic::code`] is the symbolic `Msg` key, and the
/// rendered [`Diagnostic::message`] interpolates `Args`. Core-derived diagnostics
/// (conflicting root requirements) use the reserved codes `unsat-requirement` /
/// `conflicting-requirements` at priority 110, above every model error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity of this diagnostic.
    pub severity: Severity,
    /// The paper-scheme error priority (higher first).
    pub priority: i64,
    /// Symbolic error key (`Msg` of the error atom), e.g. `version-constraint`.
    pub code: String,
    /// Human-readable, self-contained message.
    pub message: String,
    /// The package or virtual the diagnostic is about, when known.
    pub package: Option<String>,
    /// Spec provenance: the root requirements (minimized unsat core, as the user wrote
    /// them) implicated in the failure.
    pub provenance: Vec<String>,
}

/// Cost accounting of the diagnostics machinery, reported by `spack-solve --stats` and
/// the bench harness so the price of explanations is visible next to solve times.
#[derive(Debug, Clone, Default)]
pub struct DiagnosticsStats {
    /// Size of the unsat core as first extracted from conflict analysis (root-spec
    /// assumptions only; the pinned `relax_mode` guard is bookkeeping, not blame).
    pub core_size: usize,
    /// Size of the core after deletion-based minimization.
    pub minimized_core_size: usize,
    /// Number of probe solves performed by core minimization.
    pub minimization_rounds: u64,
    /// Wall-clock time of the whole second phase (core minimization + relaxed solve).
    pub second_phase: Duration,
    /// Combined per-phase accounting across the *entire* failed concretization — both
    /// the normal and the relaxed solve. Before the single-grounding fold the second
    /// phase's setup and grounding were invisible in exactly the numbers meant to
    /// track them; now every phase is attributed here.
    pub phases: crate::PhaseTimings,
    /// Grounding time attributable to the second phase alone. Zero since the fold:
    /// the relaxed solve reuses the normal solve's ground program.
    pub second_phase_ground: Duration,
    /// The engine statistics of the whole failed concretization: its (single)
    /// grounding, and the solver counters summed over the failed hard solve, the
    /// core-minimization probe and the relaxed solve. Among them:
    /// - [`asp::Stats::warm_clauses`]: the loop nogoods the probe replayed from the
    ///   session clause cache (zero when it adopted the failed hard solve's retired
    ///   solver; the relaxed solve starts cold and replays nothing);
    /// - [`asp::ground::GroundStats::delta`]: was the grounding an incremental delta
    ///   on a frozen session base, so session accounting can detect a silent full
    ///   re-ground on the unsatisfiable path too.
    pub solver: asp::Stats,
}

fn arg_str(args: &[Value], i: usize) -> String {
    args.get(i).map(|v| v.as_str()).unwrap_or_default()
}

fn arg_int(args: &[Value], i: usize) -> i64 {
    args.get(i).and_then(|v| v.as_int()).unwrap_or(0)
}

/// Is this a symmetric `A vs B` conflict code whose two orderings describe the same
/// violation?
fn symmetric(code: &str) -> bool {
    matches!(
        code,
        "version-conflict"
            | "compiler-conflict"
            | "os-conflict"
            | "target-conflict"
            | "platform-conflict"
            | "variant-conflict"
    )
}

/// Render one error atom (already split into priority / code / remaining args).
fn render(priority: i64, code: &str, args: &[String]) -> Diagnostic {
    let a = |i: usize| args.get(i).cloned().unwrap_or_default();
    let (package, message) = match code {
        "no-provider" => (a(0), format!("no possible provider for virtual '{}'", a(0))),
        "version-conflict" => {
            (a(0), format!("conflicting versions imposed on {}: {} vs {}", a(0), a(1), a(2)))
        }
        "version-constraint" => {
            (a(0), format!("{}: no known version satisfies the constraint @{}", a(0), a(1)))
        }
        "no-version" => (a(0), format!("{} has no declared versions to choose from", a(0))),
        "variant-conflict" => (
            a(0),
            format!(
                "conflicting values imposed on variant '{}' of {}: {} vs {}",
                a(1),
                a(0),
                a(2),
                a(3)
            ),
        ),
        "variant-value" => {
            (a(0), format!("invalid value '{}' for variant '{}' of {}", a(2), a(1), a(0)))
        }
        "unknown-variant" => (a(0), format!("package {} has no variant '{}'", a(0), a(1))),
        "conflict" => (a(0), format!("{}: {}", a(0), a(1))),
        "compiler-conflict" => {
            (a(0), format!("conflicting compilers imposed on {}: {} vs {}", a(0), a(1), a(2)))
        }
        // The compiler-constraint text already carries its `%` sigil.
        "compiler-constraint" => {
            (a(0), format!("{}: no available compiler satisfies {}", a(0), a(1)))
        }
        "compiler-target" => {
            (a(0), format!("compiler {} cannot build {} for target {}", a(1), a(0), a(2)))
        }
        "target-constraint" => {
            (a(0), format!("{}: no available target satisfies target={}", a(0), a(1)))
        }
        "target-conflict" => {
            (a(0), format!("conflicting targets imposed on {}: {} vs {}", a(0), a(1), a(2)))
        }
        "os-conflict" => (
            a(0),
            format!("conflicting operating systems imposed on {}: {} vs {}", a(0), a(1), a(2)),
        ),
        "platform-conflict" => {
            (a(0), format!("conflicting platforms imposed on {}: {} vs {}", a(0), a(1), a(2)))
        }
        "provider-invalid" => {
            (a(1), format!("{} cannot provide '{}' under the chosen configuration", a(1), a(0)))
        }
        "not-needed" => {
            (a(0), format!("{} was requested but nothing in the solution depends on it", a(0)))
        }
        other => (a(0), format!("constraint violation '{other}' on {}", args.join(", "))),
    };
    Diagnostic {
        severity: Severity::Error,
        priority,
        code: code.to_string(),
        message,
        package: if package.is_empty() { None } else { Some(package) },
        provenance: Vec::new(),
    }
}

/// Extract and render the `error3`…`error6` atoms of a relaxed-phase model, deduping
/// symmetric `A vs B` pairs and sorting by descending priority (then message, for a
/// stable order).
pub fn diagnostics_from_model(model: &Model) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    for pred in crate::shown::ERRORS {
        for atom in crate::shown::atoms(model, pred) {
            let priority = arg_int(atom, 0);
            let code = arg_str(atom, 1);
            let mut args: Vec<String> = (2..atom.len()).map(|i| arg_str(atom, i)).collect();
            if symmetric(&code) {
                // `A vs B` and `B vs A` describe the same violation: canonicalize the
                // last two args so the duplicate collapses below.
                let n = args.len();
                if n >= 2 && args[n - 2] > args[n - 1] {
                    args.swap(n - 2, n - 1);
                }
            }
            let d = render(priority, &code, &args);
            if !diags.contains(&d) {
                diags.push(d);
            }
        }
    }
    diags.sort_by(|x, y| y.priority.cmp(&x.priority).then_with(|| x.message.cmp(&y.message)));
    diags
}

/// Render the minimized unsat core — the root requirements that cannot hold together —
/// as a diagnostic. `texts` are the requirements exactly as the user wrote them.
pub fn core_diagnostic(texts: &[String]) -> Option<Diagnostic> {
    match texts {
        [] => None,
        [single] => Some(Diagnostic {
            severity: Severity::Error,
            priority: 110,
            code: "unsat-requirement".to_string(),
            message: format!("the requirement `{single}` cannot be satisfied"),
            package: None,
            provenance: texts.to_vec(),
        }),
        many => Some(Diagnostic {
            severity: Severity::Error,
            priority: 110,
            code: "conflicting-requirements".to_string(),
            message: format!(
                "the requirements {} cannot all hold together",
                many.iter().map(|t| format!("`{t}`")).collect::<Vec<_>>().join(", ")
            ),
            package: None,
            provenance: texts.to_vec(),
        }),
    }
}

/// The diagnostic carried by a dead-lettered budget exhaustion: the solve hit its
/// wall deadline or conflict limit before optimality was proven. `partial_packages`
/// is the size of the best model proven before the cutoff, when there was one —
/// "a non-optimal answer exists" and "no answer at all" are triaged differently.
pub fn budget_diagnostic(roots: &str, partial_packages: Option<usize>) -> Diagnostic {
    let message = match partial_packages {
        Some(n) => format!(
            "the solve budget for `{roots}` was exhausted before optimality was proven \
             (best proven model has {n} packages)"
        ),
        None => format!("the solve budget for `{roots}` was exhausted before any model was found"),
    };
    Diagnostic {
        severity: Severity::Error,
        priority: 115,
        code: "budget-exhausted".to_string(),
        message,
        package: None,
        provenance: Vec::new(),
    }
}

/// The fallback diagnostic when neither the relaxed solve nor the core produced an
/// explanation (a structurally infeasible instance): still specific enough to point at
/// the input rather than a bare "no valid configuration exists".
pub fn structural_diagnostic(roots: &str) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        priority: 120,
        code: "structurally-unsatisfiable".to_string(),
        message: format!(
            "the request `{roots}` is unsatisfiable for every configuration of the \
             software model (no single requirement can be blamed)"
        ),
        package: None,
        provenance: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::{Control, SolverConfig};

    fn model_with(facts: &[(&str, Vec<Value>)]) -> Model {
        let mut ctl = Control::new(SolverConfig::default());
        for (pred, args) in facts {
            ctl.add_fact(pred, args);
        }
        ctl.add_program("ok.").unwrap();
        ctl.ground().unwrap();
        match ctl.solve().unwrap() {
            asp::SolveOutcome::Optimal { model, .. } => model,
            asp::SolveOutcome::Unsatisfiable => unreachable!("facts are satisfiable"),
        }
    }

    #[test]
    fn error_atoms_render_and_sort_by_priority() {
        let model = model_with(&[
            ("error3", vec![40.into(), "not-needed".into(), "bzip2".into()]),
            ("error4", vec![90.into(), "version-constraint".into(), "zlib".into(), "9.9".into()]),
        ]);
        let diags = diagnostics_from_model(&model);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, "version-constraint");
        assert_eq!(diags[0].message, "zlib: no known version satisfies the constraint @9.9");
        assert_eq!(diags[0].package.as_deref(), Some("zlib"));
        assert_eq!(diags[1].code, "not-needed");
    }

    #[test]
    fn symmetric_conflicts_are_deduped() {
        let model = model_with(&[
            (
                "error5",
                vec![95.into(), "version-conflict".into(), "p".into(), "1.0".into(), "2.0".into()],
            ),
            (
                "error5",
                vec![95.into(), "version-conflict".into(), "p".into(), "2.0".into(), "1.0".into()],
            ),
        ]);
        let diags = diagnostics_from_model(&model);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].message, "conflicting versions imposed on p: 1.0 vs 2.0");
    }

    #[test]
    fn core_diagnostics_name_the_requirements() {
        let one = core_diagnostic(&["zlib@9.9".to_string()]).unwrap();
        assert_eq!(one.message, "the requirement `zlib@9.9` cannot be satisfied");
        let two =
            core_diagnostic(&["example+bzip".to_string(), "^example~bzip".to_string()]).unwrap();
        assert!(two.message.contains("`example+bzip`"), "{}", two.message);
        assert!(two.message.contains("cannot all hold together"), "{}", two.message);
        assert_eq!(two.provenance.len(), 2);
        assert!(core_diagnostic(&[]).is_none());
    }
}
