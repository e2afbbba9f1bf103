//! Interned symbols, ground values, and the ground atom table.
//!
//! A typical concretization problem has 10k–100k facts (Section V of the paper), so atoms
//! and their arguments are interned: strings become small integer [`SymbolId`]s and ground
//! atoms become dense [`AtomId`]s, which the grounder, the SAT translation, and the model
//! extraction all share.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::hasher::FxHashMap;

/// Identifier of an interned string symbol.
pub type SymbolId = u32;

/// Identifier of a ground atom (dense, starting at 0).
pub type AtomId = u32;

/// A table interning strings to [`SymbolId`]s.
///
/// Entries are `Arc<str>`, so cloning a table (a multi-shot session forks the frozen
/// base's symbols for every request) bumps reference counts instead of re-allocating
/// thousands of strings.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    map: FxHashMap<Arc<str>, SymbolId>,
}

impl SymbolTable {
    /// Create an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its id.
    pub fn intern(&mut self, s: &str) -> SymbolId {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.names.len() as SymbolId;
        let shared: Arc<str> = Arc::from(s);
        self.names.push(shared.clone());
        self.map.insert(shared, id);
        id
    }

    /// Look up an already-interned string.
    pub fn lookup(&self, s: &str) -> Option<SymbolId> {
        self.map.get(s).copied()
    }

    /// The string for a symbol id.
    pub fn name(&self, id: SymbolId) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A ground value: either an integer or an interned symbol (string/constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Val {
    /// An integer constant.
    Int(i64),
    /// An interned symbolic constant or string.
    Sym(SymbolId),
}

impl Val {
    /// Render the value using a symbol table.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> ValDisplay<'a> {
        ValDisplay { val: self, symbols }
    }
}

/// Helper for displaying a [`Val`] with access to the symbol table.
pub struct ValDisplay<'a> {
    val: &'a Val,
    symbols: &'a SymbolTable,
}

impl fmt::Display for ValDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.val {
            Val::Int(i) => write!(f, "{i}"),
            Val::Sym(s) => {
                let name = self.symbols.name(*s);
                let bare = !name.is_empty()
                    && name.chars().next().unwrap().is_ascii_lowercase()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if bare {
                    write!(f, "{name}")
                } else {
                    write!(f, "\"{name}\"")
                }
            }
        }
    }
}

/// A ground atom: predicate symbol plus ground arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct GroundAtom {
    /// Predicate name symbol.
    pub pred: SymbolId,
    /// Ground arguments.
    pub args: Vec<Val>,
}

impl GroundAtom {
    /// Construct a ground atom.
    pub fn new(pred: SymbolId, args: Vec<Val>) -> Self {
        GroundAtom { pred, args }
    }

    /// Render the atom using a symbol table.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> GroundAtomDisplay<'a> {
        GroundAtomDisplay { atom: self, symbols }
    }
}

/// Helper for displaying a [`GroundAtom`] with access to the symbol table.
pub struct GroundAtomDisplay<'a> {
    atom: &'a GroundAtom,
    symbols: &'a SymbolTable,
}

impl fmt::Display for GroundAtomDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbols.name(self.atom.pred))?;
        if !self.atom.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.atom.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", a.display(self.symbols))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A compact list of atom ids: up to three stored inline, spilling to the heap only
/// when a value is shared by more atoms. The index maps hold one of these per distinct
/// key — hundreds of thousands for realistic problems — so keeping short lists inline
/// removes a heap allocation (and a free at teardown) for the overwhelming majority.
#[derive(Debug, Clone)]
enum IdList {
    /// Up to three ids stored in place.
    Inline { len: u8, ids: [AtomId; 3] },
    /// Spilled to the heap.
    Heap(Vec<AtomId>),
}

impl Default for IdList {
    fn default() -> Self {
        IdList::Inline { len: 0, ids: [0; 3] }
    }
}

impl IdList {
    fn push(&mut self, id: AtomId) {
        match self {
            IdList::Inline { len, ids } => {
                if (*len as usize) < ids.len() {
                    ids[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(8);
                    v.extend_from_slice(&ids[..]);
                    v.push(id);
                    *self = IdList::Heap(v);
                }
            }
            IdList::Heap(v) => v.push(id),
        }
    }

    fn as_slice(&self) -> &[AtomId] {
        match self {
            IdList::Inline { len, ids } => &ids[..*len as usize],
            IdList::Heap(v) => v,
        }
    }
}

/// The table of all *possible* ground atoms discovered during grounding.
///
/// Atoms are indexed three ways so the grounder's join planner can always pick the
/// smallest candidate list for the bound arguments at hand:
///
/// * by predicate (`with_pred`),
/// * by `(predicate, argument position, value)` (`with_pred_arg`), and
/// * by `(predicate, position₁, value₁, position₂, value₂)` for every pair of argument
///   positions among the first [`AtomTable::MAX_PAIR_INDEXED_ARGS`] (`with_pred_args2`) —
///   the multi-argument index that makes joins with two or more bound arguments O(hit
///   count) instead of O(single-argument candidate list).
///
/// All index lists are append-only: interning never reorders or removes entries, so a
/// caller iterating a list by position may intern *new* atoms mid-iteration and simply
/// re-fetch the slice (newly added ids land at the end, beyond the snapshot length).
///
/// # Views
///
/// A table made by [`AtomTable::view`] is a session request's table: it *reads* the
/// atoms a request keeps from a shared base table instead of copying them. Its id `i`
/// below `kept.len()` is the base atom `kept[i]` (the kept atoms in base order, so the
/// numbering is the one re-interning them would produce); atoms interned into a view —
/// the request's own facts and what they derive, including base atoms the request
/// excluded — land in a small overlay after them. A view keeps its own certainty bits
/// and externals, has no pair index, and builds the single-argument join indexes of a
/// predicate only when a join first probes it.
#[derive(Debug, Default, Clone)]
pub struct AtomTable {
    /// The atoms, or a view's overlay (view ids from `kept.len()` on).
    atoms: Vec<GroundAtom>,
    ids: FxHashMap<GroundAtom, AtomId>,
    by_pred: FxHashMap<SymbolId, Vec<AtomId>>,
    by_pred_arg: FxHashMap<(SymbolId, u8, Val), IdList>,
    by_pred_arg2: FxHashMap<(SymbolId, u8, Val, u8, Val), IdList>,
    /// Atoms known to be true in every model (input facts).
    certain: Vec<bool>,
    /// `#external` guard atoms: never derived by a rule, but still allowed to be true
    /// (their truth is fixed per solve by an assumption). Stored sparse — external
    /// declarations are rare (a handful of guards per program).
    external: Vec<AtomId>,
    /// The base side of a view; `None` for a table that owns all its atoms.
    view: Option<Box<BaseView>>,
}

/// Marks a base atom a view does not keep.
const EXCLUDED: AtomId = AtomId::MAX;

/// The base side of a view (see [`AtomTable::view`]).
#[derive(Debug, Clone)]
struct BaseView {
    base: Arc<AtomTable>,
    /// View id → base id of the kept atoms, ascending.
    kept: Vec<AtomId>,
    /// Base id → view id, or [`EXCLUDED`].
    remap: Vec<AtomId>,
    /// The view's join indexes, one entry per predicate, built on first probe.
    preds: FxHashMap<SymbolId, OnceLock<PredLists>>,
}

/// One predicate's join indexes in a view: all its atoms, and its atoms by the value
/// at each argument position.
#[derive(Debug, Default, Clone)]
struct PredLists {
    all: Vec<AtomId>,
    by_arg: FxHashMap<(u8, Val), IdList>,
}

impl PredLists {
    fn push(&mut self, id: AtomId, atom: &GroundAtom) {
        self.all.push(id);
        for (pos, &val) in atom.args.iter().enumerate().take(u8::MAX as usize) {
            self.by_arg.entry((pos as u8, val)).or_default().push(id);
        }
    }
}

impl BaseView {
    /// The indexes of `pred`, built from the kept base atoms on first use (overlay
    /// atoms are pushed by [`AtomTable::intern`] once the kept ones are in).
    fn lists(&self, pred: SymbolId) -> Option<&PredLists> {
        let cell = self.preds.get(&pred)?;
        Some(cell.get_or_init(|| {
            let mut lists = PredLists::default();
            for &b in self.base.with_pred(pred) {
                match self.remap[b as usize] {
                    EXCLUDED => {}
                    id => lists.push(id, self.base.atom(b)),
                }
            }
            lists
        }))
    }

    /// Index a new overlay atom.
    fn push(&mut self, id: AtomId, atom: &GroundAtom) {
        // A predicate the base never saw has no kept atoms to index first.
        self.preds.entry(atom.pred).or_insert_with(|| OnceLock::from(PredLists::default()));
        self.lists(atom.pred);
        let lists = self.preds.get_mut(&atom.pred).and_then(OnceLock::get_mut);
        lists.expect("built above").push(id, atom);
    }
}

impl AtomTable {
    /// Create an empty atom table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A view of `base` keeping the base atoms `kept` (ascending base ids; view id
    /// `i` is `kept[i]`), with `certain` parallel to `kept`. See the type docs.
    pub fn view(base: Arc<AtomTable>, kept: Vec<AtomId>, certain: Vec<bool>) -> Self {
        debug_assert!(base.view.is_none(), "a view's base owns its atoms");
        debug_assert!(kept.windows(2).all(|w| w[0] < w[1]), "kept atoms are in base order");
        debug_assert_eq!(kept.len(), certain.len());
        let mut remap = vec![EXCLUDED; base.len()];
        for (id, &b) in kept.iter().enumerate() {
            remap[b as usize] = id as AtomId;
        }
        let preds = base.by_pred.keys().map(|&p| (p, OnceLock::new())).collect();
        AtomTable {
            certain,
            view: Some(Box::new(BaseView { base, kept, remap, preds })),
            ..AtomTable::default()
        }
    }

    /// A view's id for the atom with id `base_id` in its base table (`None` when the
    /// view excludes it). Only meaningful on a view.
    pub(crate) fn kept_id(&self, base_id: AtomId) -> Option<AtomId> {
        let view = self.view.as_ref().expect("a view");
        Some(view.remap[base_id as usize]).filter(|&id| id != EXCLUDED)
    }

    /// Is the pair index maintained? The join planner must not consult it otherwise
    /// (views have none).
    pub fn pair_indexing(&self) -> bool {
        self.view.is_none()
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.view.as_ref().map_or(0, |v| v.kept.len()) + self.atoms.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of leading argument positions covered by the two-argument (pair)
    /// index; single-argument indexes cover every position. Bounding the pair index
    /// keeps its memory quadratic only in a small constant (C(4,2) = 6 entries per
    /// atom at most).
    pub const MAX_PAIR_INDEXED_ARGS: usize = 4;

    /// Intern an atom by reference: no allocation at all when the atom is already
    /// present (the overwhelmingly common case on the grounder's derive path); the
    /// atom is cloned only when it is genuinely new.
    pub fn intern_ref(&mut self, atom: &GroundAtom) -> (AtomId, bool) {
        if let Some(id) = self.get(atom) {
            return (id, false);
        }
        self.intern(atom.clone())
    }

    /// Intern an atom, returning `(id, is_new)`.
    pub fn intern(&mut self, atom: GroundAtom) -> (AtomId, bool) {
        if let Some(id) = self.get(&atom) {
            return (id, false);
        }
        let id = self.len() as AtomId;
        match self.view.as_deref_mut() {
            Some(view) => view.push(id, &atom),
            None => {
                self.by_pred.entry(atom.pred).or_default().push(id);
                for (pos, &val) in atom.args.iter().enumerate().take(u8::MAX as usize) {
                    self.by_pred_arg.entry((atom.pred, pos as u8, val)).or_default().push(id);
                }
                let paired = atom.args.iter().enumerate().take(Self::MAX_PAIR_INDEXED_ARGS);
                for (pos, &val) in paired.clone() {
                    for (pos2, &val2) in paired.clone().skip(pos + 1) {
                        self.by_pred_arg2
                            .entry((atom.pred, pos as u8, val, pos2 as u8, val2))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        self.ids.insert(atom.clone(), id);
        self.atoms.push(atom);
        self.certain.push(false);
        (id, true)
    }

    /// Append an atom that no join, [`AtomTable::get`] or [`AtomTable::intern`] will
    /// ever ask for — the grounder's auxiliary minimize atoms, added after the last
    /// join — without indexing it. The caller guarantees it is not already present.
    pub(crate) fn push_unindexed(&mut self, atom: GroundAtom) -> AtomId {
        let id = self.len() as AtomId;
        self.atoms.push(atom);
        self.certain.push(false);
        id
    }

    /// Look up an atom id without interning.
    pub fn get(&self, atom: &GroundAtom) -> Option<AtomId> {
        if let Some(view) = &self.view {
            let kept = view.base.get(atom).map(|b| view.remap[b as usize]);
            if let Some(id) = kept.filter(|&id| id != EXCLUDED) {
                return Some(id);
            }
        }
        self.ids.get(atom).copied()
    }

    /// The atom for an id.
    pub fn atom(&self, id: AtomId) -> &GroundAtom {
        match &self.view {
            Some(view) => match view.kept.get(id as usize) {
                Some(&b) => view.base.atom(b),
                None => &self.atoms[id as usize - view.kept.len()],
            },
            None => &self.atoms[id as usize],
        }
    }

    /// All atoms with a given predicate.
    pub fn with_pred(&self, pred: SymbolId) -> &[AtomId] {
        match &self.view {
            Some(view) => view.lists(pred).map_or(&[], |l| &l.all),
            None => self.by_pred.get(&pred).map_or(&[], |v| v.as_slice()),
        }
    }

    /// All atoms with a given predicate and a given value at argument position `pos`.
    pub fn with_pred_arg(&self, pred: SymbolId, pos: u8, val: Val) -> &[AtomId] {
        let list = match &self.view {
            Some(view) => view.lists(pred).and_then(|l| l.by_arg.get(&(pos, val))),
            None => self.by_pred_arg.get(&(pred, pos, val)),
        };
        list.map_or(&[], IdList::as_slice)
    }

    /// All atoms with a given predicate and given values at two argument positions
    /// (`pos1 < pos2`, both below [`AtomTable::MAX_PAIR_INDEXED_ARGS`]).
    pub fn with_pred_args2(
        &self,
        pred: SymbolId,
        pos1: u8,
        val1: Val,
        pos2: u8,
        val2: Val,
    ) -> &[AtomId] {
        self.by_pred_arg2.get(&(pred, pos1, val1, pos2, val2)).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Mark an atom as certainly true (an input fact).
    pub fn set_certain(&mut self, id: AtomId) {
        self.certain[id as usize] = true;
    }

    /// Is the atom certainly true?
    pub fn is_certain(&self, id: AtomId) -> bool {
        self.certain[id as usize]
    }

    /// Mark an atom as an `#external` guard: exempt from support-based elimination and
    /// the unfounded-set check, its truth fixed per solve by an assumption.
    pub fn set_external(&mut self, id: AtomId) {
        if !self.external.contains(&id) {
            self.external.push(id);
        }
    }

    /// Is the atom an `#external` guard?
    pub fn is_external(&self, id: AtomId) -> bool {
        self.external.contains(&id)
    }

    /// All `#external` guard atoms.
    pub fn externals(&self) -> &[AtomId] {
        &self.external
    }

    /// Iterate over all `(id, atom)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, &GroundAtom)> {
        let kept = self.view.as_ref().map(|v| (&*v.base, &v.kept));
        let kept = kept.into_iter().flat_map(|(base, kept)| kept.iter().map(|&b| base.atom(b)));
        kept.chain(&self.atoms).enumerate().map(|(i, a)| (i as AtomId, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_interning_is_stable() {
        let mut t = SymbolTable::new();
        let a = t.intern("hdf5");
        let b = t.intern("zlib");
        let a2 = t.intern("hdf5");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "hdf5");
        assert_eq!(t.lookup("zlib"), Some(b));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn atom_table_interning_and_indexes() {
        let mut syms = SymbolTable::new();
        let node = syms.intern("node");
        let dep = syms.intern("depends_on");
        let hdf5 = Val::Sym(syms.intern("hdf5"));
        let zlib = Val::Sym(syms.intern("zlib"));

        let mut atoms = AtomTable::new();
        let (a, new_a) = atoms.intern(GroundAtom::new(node, vec![hdf5]));
        let (b, new_b) = atoms.intern(GroundAtom::new(node, vec![zlib]));
        let (a2, new_a2) = atoms.intern(GroundAtom::new(node, vec![hdf5]));
        let (c, _) = atoms.intern(GroundAtom::new(dep, vec![hdf5, zlib]));

        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_eq!(atoms.with_pred(node).len(), 2);
        assert_eq!(atoms.with_pred(dep), &[c]);
        assert_eq!(atoms.with_pred_arg(node, 0, hdf5), &[a]);
        assert_eq!(atoms.with_pred_arg(dep, 1, zlib), &[c]);
        assert!(atoms.with_pred_arg(dep, 1, hdf5).is_empty());
        assert_eq!(atoms.with_pred_args2(dep, 0, hdf5, 1, zlib), &[c]);
        assert!(atoms.with_pred_args2(dep, 0, zlib, 1, hdf5).is_empty());
        assert_eq!(b, 1);
    }

    #[test]
    fn display_quotes_non_identifiers() {
        let mut syms = SymbolTable::new();
        let p = syms.intern("version_declared");
        let zlib = syms.intern("zlib");
        let ver = syms.intern("1.2.11");
        let atom = GroundAtom::new(p, vec![Val::Sym(zlib), Val::Sym(ver), Val::Int(0)]);
        assert_eq!(atom.display(&syms).to_string(), "version_declared(zlib,\"1.2.11\",0)");
    }
}
