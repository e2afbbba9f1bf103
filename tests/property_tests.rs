//! Property-based tests (proptest) on the core data structures and on solver invariants.
//!
//! * version ordering is a total order consistent with parsing/printing,
//! * spec parsing round-trips through `Display`,
//! * DAG hashing is deterministic and sensitive to every field,
//! * the ASP solver returns only valid (stable) models for random positive programs, and
//! * concretization of random synthetic repositories either produces a *valid* DAG or a
//!   clean `Unsatisfiable` error — never a panic or an invalid solution.

use proptest::prelude::*;

use spack_concretizer::{ConcretizeError, Concretizer, SiteConfig, SolveOptions};
use spack_repo::{synth_repo, SynthConfig};
use spack_spec::hash::dag_hash;
use spack_spec::{parse_spec, Spec, VariantValue, Version, VersionConstraint, VersionRange};

// ---------- generators -------------------------------------------------------------------

fn version_strategy() -> impl Strategy<Value = Version> {
    proptest::collection::vec(0u64..50, 1..4).prop_map(|parts| {
        let text: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
        Version::new(&text.join("."))
    })
}

fn package_name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{1,8}(-[a-z0-9]{1,4})?"
}

fn simple_spec_strategy() -> impl Strategy<Value = String> {
    (
        package_name_strategy(),
        proptest::option::of(version_strategy()),
        proptest::option::of(("[a-z]{2,6}", any::<bool>())),
        proptest::option::of(proptest::sample::select(vec![
            "skylake", "icelake", "haswell", "x86_64",
        ])),
    )
        .prop_map(|(name, version, variant, target)| {
            let mut s = name;
            if let Some(v) = version {
                s.push_str(&format!("@{v}"));
            }
            if let Some((vname, on)) = variant {
                s.push(if on { '+' } else { '~' });
                s.push_str(&vname);
            }
            if let Some(t) = target {
                s.push_str(&format!(" target={t}"));
            }
            s
        })
}

// ---------- version properties -------------------------------------------------------------

proptest! {
    #[test]
    fn version_ordering_is_total_and_antisymmetric(a in version_strategy(), b in version_strategy()) {
        use std::cmp::Ordering;
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(a.to_string(), b.to_string());
        }
    }

    #[test]
    fn version_display_parse_roundtrip(v in version_strategy()) {
        let reparsed = Version::new(&v.to_string());
        prop_assert_eq!(&reparsed, &v);
        prop_assert_eq!(reparsed.cmp(&v), std::cmp::Ordering::Equal);
    }

    #[test]
    fn version_ranges_contain_their_endpoints(lo in version_strategy(), hi in version_strategy()) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let range = VersionRange::between(lo.clone(), hi.clone());
        prop_assert!(range.contains(&lo));
        prop_assert!(range.contains(&hi));
        let constraint = VersionConstraint::from_ranges(vec![range]);
        prop_assert!(constraint.satisfies(&lo) && constraint.satisfies(&hi));
    }

    #[test]
    fn version_constraint_parse_agrees_with_range_semantics(v in version_strategy(), bound in version_strategy()) {
        // "@bound:" means at least `bound`.
        let at_least = VersionConstraint::parse(&format!("{bound}:"));
        if v >= bound {
            prop_assert!(at_least.satisfies(&v));
        }
        let at_most = VersionConstraint::parse(&format!(":{bound}"));
        if v <= bound {
            prop_assert!(at_most.satisfies(&v));
        }
    }
}

// ---------- spec parsing properties -----------------------------------------------------------

proptest! {
    #[test]
    fn spec_parse_display_roundtrip(text in simple_spec_strategy()) {
        let parsed: Spec = parse_spec(&text).expect("generated specs parse");
        let reparsed = parse_spec(&parsed.to_string()).expect("canonical form parses");
        prop_assert_eq!(parsed, reparsed);
    }

    #[test]
    fn spec_with_dependencies_roundtrip(
        root in simple_spec_strategy(),
        dep in simple_spec_strategy(),
    ) {
        let text = format!("{root} ^{dep}");
        if let Ok(parsed) = parse_spec(&text) {
            let reparsed = parse_spec(&parsed.to_string()).expect("canonical form parses");
            prop_assert_eq!(parsed, reparsed);
        }
    }

    #[test]
    fn parser_never_panics(text in "[ -~]{0,40}") {
        let _ = parse_spec(&text);
    }

    #[test]
    fn parser_never_panics_on_utf8(text in utf8_strategy(0..64)) {
        let _ = parse_spec(&text);
    }

    #[test]
    fn parser_never_panics_on_long_utf8(text in utf8_strategy(4096..6144)) {
        assert!(text.len() >= 4096);
        let _ = parse_spec(&text);
    }
}

/// Arbitrary UTF-8 strings of `chars` code points (every one at least a byte), drawn
/// from four classes: the spec syntax's own sigils, printable ASCII, the rest of the
/// BMP, and every scalar value up to U+10FFFF — so multi-byte characters land next to
/// `@`, `%`, `^` and `=` as often as inside names.
fn utf8_strategy(chars: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    const SIGILS: &[char] = &['@', '%', '^', '+', '~', '=', ':', ',', ' ', '-', '.', '"', '\''];
    proptest::collection::vec((0u8..4, any::<u32>()), chars).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(class, x)| match class {
                0 => SIGILS[x as usize % SIGILS.len()],
                1 => char::from(b' ' + (x % 95) as u8),
                2 => char::from_u32(0x80 + x % (0xD800 - 0x80)).expect("below the surrogates"),
                _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{FFFD}'),
            })
            .collect()
    })
}

// ---------- hashing properties ----------------------------------------------------------------

proptest! {
    #[test]
    fn dag_hash_is_deterministic_and_sensitive(
        desc in "[ -~]{1,40}",
        deps in proptest::collection::vec("[a-z0-9]{8}", 0..4),
    ) {
        let h1 = dag_hash(&desc, &deps);
        let h2 = dag_hash(&desc, &deps);
        prop_assert_eq!(&h1, &h2);
        prop_assert_eq!(h1.len(), spack_spec::hash::HASH_LEN);
        // Changing the description changes the hash.
        let other = dag_hash(&format!("{desc}!"), &deps);
        prop_assert_ne!(h1, other);
    }
}

// ---------- ASP solver properties ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random positive dependency graphs with a choice over roots: every returned stable
    /// model must be closed under the rules (if a chosen node depends on another, that
    /// other node is in the model too).
    #[test]
    fn asp_models_are_closed_under_rules(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..10),
    ) {
        let mut ctl = asp::Control::new(asp::SolverConfig::default());
        for (a, b) in &edges {
            if a != b {
                ctl.add_fact("depends_on", &[format!("p{a}").into(), format!("p{b}").into()]);
            }
        }
        ctl.add_fact("root", &["p0".into()]);
        ctl.add_program(
            "node(P) :- root(P).\n node(D) :- node(P), depends_on(P, D).",
        ).unwrap();
        ctl.ground().unwrap();
        let outcome = ctl.solve().unwrap();
        let model = outcome.model().expect("positive programs are satisfiable");
        let nodes: std::collections::BTreeSet<String> =
            model.with_pred("node").map(|args| args[0].as_str()).collect();
        prop_assert!(nodes.contains("p0"));
        for (a, b) in &edges {
            if a != b && nodes.contains(&format!("p{a}")) {
                prop_assert!(nodes.contains(&format!("p{b}")),
                    "node p{a} is in the model but its dependency p{b} is not");
            }
        }
    }

    /// Cardinality bounds are respected in every model of a random "pick k of n" program.
    #[test]
    fn asp_cardinality_choices_are_respected(n in 2usize..6, k in 1usize..3) {
        let k = k.min(n);
        let mut ctl = asp::Control::new(asp::SolverConfig::default());
        for i in 0..n {
            ctl.add_fact("candidate", &[format!("c{i}").into()]);
        }
        ctl.add_program(&format!(
            "{k} {{ pick(C) : candidate(C) }} {k}.",
        )).unwrap();
        ctl.ground().unwrap();
        let outcome = ctl.solve().unwrap();
        let model = outcome.model().expect("satisfiable");
        prop_assert_eq!(model.with_pred("pick").count(), k);
    }
}

// ---------- concretizer properties ----------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concretizing random packages of random synthetic repositories never panics and
    /// never produces an invalid DAG: either a solution where the root is present, every
    /// node has a declared version and values for all declared variants, and the graph is
    /// acyclic — or a clean Unsatisfiable/UnknownPackage error.
    #[test]
    fn concretization_is_sound_on_random_repositories(seed in 0u64..500, pick in 0usize..20) {
        let repo = synth_repo(&SynthConfig { packages: 30, seed, ..Default::default() });
        let names: Vec<String> = repo.names().map(|s| s.to_string()).collect();
        let root = names[pick % names.len()].clone();
        let concretizer = Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::minimal()));
        match concretizer.concretize_str(&root) {
            Ok(result) => {
                prop_assert!(result.spec.contains(&root));
                // Topological order visits every node exactly once (acyclicity).
                prop_assert_eq!(result.spec.topological_order().len(), result.spec.len());
                for node in &result.spec.nodes {
                    let pkg = repo.get(&node.name).expect("solution nodes come from the repo");
                    prop_assert!(pkg.versions.iter().any(|v| v.version == node.version),
                        "{} got an undeclared version {}", node.name, node.version);
                    for variant in &pkg.variants {
                        let value = node.variants.get(&variant.name);
                        prop_assert!(value.is_some(),
                            "{} missing variant {}", node.name, variant.name);
                        if !variant.values.is_empty() {
                            if let Some(VariantValue::Value(v)) = value {
                                prop_assert!(variant.values.contains(v),
                                    "{}: {} is not an allowed value of {}", node.name, v, variant.name);
                            }
                        }
                    }
                }
            }
            Err(ConcretizeError::Unsatisfiable { .. }) | Err(ConcretizeError::UnknownPackage(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}
