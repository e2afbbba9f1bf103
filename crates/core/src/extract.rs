//! Model extraction: turn the optimal stable model back into a concrete spec DAG.
//!
//! This is step 4 of the concretization pipeline in Section V of the paper: "Build an
//! optimal concrete DAG from the model". The model's `attr*` atoms are read back into
//! [`ConcreteSpec`] nodes, dependency edges, and the build/reuse partition.

use std::collections::BTreeMap;

use asp::{Model, SolveOutcome, Value};
use spack_spec::{Compiler, ConcreteNode, ConcreteSpec, DepKind, Platform, VariantValue, Version};

use crate::config::SiteConfig;
use crate::shown::{self, ATTR2, ATTR3, ATTR4, BUILD, PROVIDER};
use crate::ConcretizeError;

/// Unwrap a solve outcome into its model and cost, propagating UNSAT as a
/// [`ConcretizeError`] (with no diagnostics — callers on the concretizer's main path
/// run the two-phase diagnosis instead) rather than aborting. Guards the extraction
/// pipeline against pathological inputs that solve to UNSAT where a model was assumed.
pub fn require_model(outcome: SolveOutcome) -> Result<(Model, Vec<(i64, i64)>), ConcretizeError> {
    match outcome {
        SolveOutcome::Optimal { model, cost } => Ok((model, cost)),
        SolveOutcome::Unsatisfiable => Err(ConcretizeError::Extraction(
            "expected a model to extract, but the program is unsatisfiable".to_string(),
        )),
    }
}

/// The result of extracting a model: the concrete DAG plus the reuse partition.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    /// The concrete installation DAG.
    pub spec: ConcreteSpec,
    /// Packages reused from the installed database, with their hashes.
    pub reused: Vec<(String, String)>,
    /// Packages that must be built from source.
    pub built: Vec<String>,
}

fn arg_str(args: &[Value], i: usize) -> String {
    args.get(i).map(|v| v.as_str()).unwrap_or_default()
}

/// Extract a concrete spec from a stable model.
pub fn extract(model: &Model, roots: &[String]) -> Result<Extraction, ConcretizeError> {
    // Collect node names.
    let mut names: Vec<String> = Vec::new();
    for args in shown::atoms(model, ATTR2) {
        if arg_str(args, 0) == "node" {
            let name = arg_str(args, 1);
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names.sort();
    let index: BTreeMap<String, usize> =
        names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();

    // Per-node attributes.
    let mut versions: BTreeMap<String, String> = BTreeMap::new();
    let mut compilers: BTreeMap<String, String> = BTreeMap::new();
    let mut oses: BTreeMap<String, String> = BTreeMap::new();
    let mut platforms: BTreeMap<String, String> = BTreeMap::new();
    let mut targets: BTreeMap<String, String> = BTreeMap::new();
    let mut hashes: BTreeMap<String, String> = BTreeMap::new();
    let mut edges: Vec<(String, String)> = Vec::new();
    for args in shown::atoms(model, ATTR3) {
        let attr = arg_str(args, 0);
        let package = arg_str(args, 1);
        let value = arg_str(args, 2);
        match attr.as_str() {
            "version" => {
                versions.insert(package, value);
            }
            "compiler" => {
                compilers.insert(package, value);
            }
            "node_os" => {
                oses.insert(package, value);
            }
            "node_platform" => {
                platforms.insert(package, value);
            }
            "node_target" => {
                targets.insert(package, value);
            }
            "hash" => {
                hashes.insert(package, value);
            }
            "depends_on" => {
                edges.push((package, value));
            }
            _ => {}
        }
    }
    let mut variants: BTreeMap<String, BTreeMap<String, VariantValue>> = BTreeMap::new();
    for args in shown::atoms(model, ATTR4) {
        if arg_str(args, 0) == "variant_value" {
            let package = arg_str(args, 1);
            let variant = arg_str(args, 2);
            let value = arg_str(args, 3);
            variants.entry(package).or_default().insert(variant, VariantValue::parse(&value));
        }
    }
    // provider(V, P): record provided virtuals per package.
    let mut provides: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for args in shown::atoms(model, PROVIDER) {
        let virtual_name = arg_str(args, 0);
        let package = arg_str(args, 1);
        provides.entry(package).or_default().push(virtual_name);
    }
    // build(P)
    let built: Vec<String> = shown::atoms(model, BUILD).map(|args| arg_str(args, 0)).collect();

    // Assemble nodes.
    let mut nodes = Vec::with_capacity(names.len());
    for name in &names {
        let version = versions
            .get(name)
            .cloned()
            .ok_or_else(|| ConcretizeError::Extraction(format!("no version assigned to {name}")))?;
        let compiler_id = compilers.get(name).cloned().ok_or_else(|| {
            ConcretizeError::Extraction(format!("no compiler assigned to {name}"))
        })?;
        let node = ConcreteNode {
            name: name.clone(),
            version: Version::new(&version),
            variants: variants.get(name).cloned().unwrap_or_default(),
            compiler: SiteConfig::parse_compiler_id(&compiler_id),
            os: oses.get(name).cloned().unwrap_or_else(|| "unknown".to_string()),
            platform: platforms
                .get(name)
                .and_then(|p| Platform::parse(p))
                .unwrap_or(Platform::Linux),
            target: targets.get(name).cloned().unwrap_or_else(|| "unknown".to_string()),
            deps: Vec::new(),
            provides: provides.get(name).cloned().unwrap_or_default(),
        };
        nodes.push(node);
    }
    // Edges.
    for (parent, child) in edges {
        if let (Some(&p), Some(&c)) = (index.get(&parent), index.get(&child)) {
            if !nodes[p].deps.iter().any(|&(d, _)| d == c) {
                nodes[p].deps.push((c, DepKind::All));
            }
        }
    }
    // Roots.
    let root_indices: Vec<usize> = roots.iter().filter_map(|r| index.get(r).copied()).collect();

    let spec = ConcreteSpec { nodes, roots: root_indices };
    let reused: Vec<(String, String)> = hashes.into_iter().collect();
    let mut built = built;
    built.sort();
    built.dedup();
    Ok(Extraction { spec, reused, built })
}

/// A human-readable compiler placeholder used when extraction needs a default.
pub fn default_compiler() -> Compiler {
    Compiler::new("gcc", "0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::{Control, SolverConfig};

    /// Build a tiny model through the real solver so the extraction path is exercised
    /// end to end on the attr* schema. Uses [`require_model`], so an unexpectedly
    /// unsatisfiable input surfaces as a clean `ConcretizeError` instead of a panic.
    fn tiny_model() -> Result<Model, ConcretizeError> {
        let mut ctl = Control::new(SolverConfig::default());
        for (pred, args) in [
            ("attr2", vec!["node", "hdf5"]),
            ("attr2", vec!["node", "zlib"]),
            ("build", vec!["hdf5"]),
            ("build", vec!["zlib"]),
        ] {
            let vals: Vec<Value> = args.into_iter().map(Value::from).collect();
            ctl.add_fact(pred, &vals);
        }
        for (attr, pkg, val) in [
            ("version", "hdf5", "1.12.1"),
            ("version", "zlib", "1.2.11"),
            ("compiler", "hdf5", "gcc@11.2.0"),
            ("compiler", "zlib", "gcc@11.2.0"),
            ("node_os", "hdf5", "centos8"),
            ("node_os", "zlib", "centos8"),
            ("node_platform", "hdf5", "linux"),
            ("node_platform", "zlib", "linux"),
            ("node_target", "hdf5", "skylake"),
            ("node_target", "zlib", "skylake"),
            ("depends_on", "hdf5", "zlib"),
        ] {
            ctl.add_fact("attr3", &[attr.into(), pkg.into(), val.into()]);
        }
        ctl.add_fact(
            "attr4",
            &["variant_value".into(), "hdf5".into(), "mpi".into(), "false".into()],
        );
        ctl.add_program("ok.").unwrap();
        ctl.ground().unwrap();
        let outcome = ctl.solve().map_err(ConcretizeError::Solver)?;
        let (model, _cost) = require_model(outcome)?;
        Ok(model)
    }

    #[test]
    fn extraction_builds_a_dag() {
        let model = tiny_model().expect("the tiny instance has a model");
        let result = extract(&model, &["hdf5".to_string()]).unwrap();
        assert_eq!(result.spec.len(), 2);
        assert_eq!(result.spec.roots.len(), 1);
        let hdf5 = result.spec.node("hdf5").unwrap();
        assert_eq!(hdf5.version.to_string(), "1.12.1");
        assert_eq!(hdf5.compiler.name, "gcc");
        assert_eq!(hdf5.deps.len(), 1);
        assert_eq!(hdf5.variants.get("mpi"), Some(&VariantValue::Bool(false)));
        assert_eq!(result.built.len(), 2);
        assert!(result.reused.is_empty());
    }

    #[test]
    fn missing_version_is_an_extraction_error() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_fact("attr2", &["node".into(), "zlib".into()]);
        ctl.add_program("ok.").unwrap();
        ctl.ground().unwrap();
        let (model, _) = require_model(ctl.solve().unwrap()).unwrap();
        assert!(extract(&model, &["zlib".to_string()]).is_err());
    }

    #[test]
    fn require_model_propagates_unsat_as_an_error() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("p. :- p.").unwrap();
        ctl.ground().unwrap();
        let err = require_model(ctl.solve().unwrap()).unwrap_err();
        assert!(matches!(err, ConcretizeError::Extraction(_)), "{err}");
    }
}
