//! The predicates a concretizer model lists.
//!
//! `concretize.lp` limits its models with `#show` directives, so a solved request copies
//! into its [`Model`] only the atoms that extraction and diagnostics read, not the
//! thousands of auxiliary atoms a solve makes true. [`ALL`] names that set once:
//! [`crate::extract`] and [`crate::diagnose`] read models only through `atoms`, and a
//! test holds [`ALL`] equal to the program's `#show` directives, so a reader of a
//! hidden predicate fails a test instead of silently finding nothing.

use asp::{Model, Value};

/// A model predicate, as `(name, arity)`.
pub type Predicate = (&'static str, usize);

/// `attr2("node", P)`: the nodes of the DAG.
pub const ATTR2: Predicate = ("attr2", 2);
/// `attr3(Attr, P, Value)`: versions, compilers, OS, targets, hashes, edges.
pub const ATTR3: Predicate = ("attr3", 3);
/// `attr4("variant_value", P, Variant, Value)`.
pub const ATTR4: Predicate = ("attr4", 4);
/// `provider(Virtual, P)`.
pub const PROVIDER: Predicate = ("provider", 2);
/// `build(P)`: nodes built from source rather than reused.
pub const BUILD: Predicate = ("build", 1);
/// The error atoms of the relaxed solve, `error3(Priority, Msg, A)` to
/// `error6(Priority, Msg, A, B, C, D)`.
pub const ERRORS: [Predicate; 4] = [("error3", 3), ("error4", 4), ("error5", 5), ("error6", 6)];

/// Every predicate `concretize.lp` shows.
pub const ALL: [Predicate; 9] =
    [ATTR2, ATTR3, ATTR4, PROVIDER, BUILD, ERRORS[0], ERRORS[1], ERRORS[2], ERRORS[3]];

/// The argument tuples of the model's atoms of `pred`, which must be one of [`ALL`].
pub(crate) fn atoms<'m>(
    model: &'m Model,
    pred: Predicate,
) -> impl Iterator<Item = &'m [Value]> + 'm {
    debug_assert!(ALL.contains(&pred), "{pred:?} is not shown by concretize.lp");
    model.with_pred(pred.0).filter(move |args| args.len() == pred.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::ast::{Head, Program};
    use asp::parser::parse_program;

    fn concretize_lp() -> Program {
        parse_program(crate::CONCRETIZE_LP).expect("concretize.lp parses")
    }

    #[test]
    fn concretize_lp_shows_exactly_what_extraction_and_diagnostics_read() {
        let mut shows: Vec<(String, usize)> = concretize_lp().shows;
        shows.sort();
        let mut all: Vec<(String, usize)> = ALL.iter().map(|&(n, a)| (n.to_string(), a)).collect();
        all.sort();
        assert_eq!(shows, all);
    }

    #[test]
    fn every_shown_predicate_is_derived_at_its_arity() {
        let program = concretize_lp();
        for (name, arity) in ALL {
            let derived = program.rules.iter().any(|rule| match &rule.head {
                Head::Atom(atom) => atom.pred == name && atom.args.len() == arity,
                Head::Choice { elements, .. } => {
                    elements.iter().any(|e| e.atom.pred == name && e.atom.args.len() == arity)
                }
                Head::None => false,
            });
            assert!(derived, "concretize.lp derives no {name}/{arity}");
        }
    }

    #[test]
    #[should_panic(expected = "is not shown")]
    #[cfg(debug_assertions)]
    fn reading_a_hidden_predicate_fails() {
        let _ = atoms(&Model::default(), ("attr", 3)).count();
    }
}
