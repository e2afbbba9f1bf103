//! Abstract syntax tree for the (first-order) ASP input language.
//!
//! The dialect covers what the paper's concretization program needs:
//!
//! * facts and normal rules with variables (`node(D) :- node(P), depends_on(P, D).`),
//! * integrity constraints (`:- path(A, B), path(B, A).`),
//! * choice rules with cardinality bounds (`1 { version(P, V) : possible_version(P, V) } 1
//!   :- node(P).`),
//! * default negation (`not`) and comparison literals (`A != B`, `W < 10`),
//! * conditional literals in rule bodies (`attr(N, A1) : condition_requirement(ID, N, A1)`),
//! * `#minimize { W@P,T : body }.` statements with priorities,
//! * `#const name = value.` definitions and simple integer arithmetic in terms, and
//! * `#external atom.` declarations of ground *guard atoms* whose truth is fixed per
//!   solve (through an assumption) instead of being derived by rules, and
//! * `#show name/arity.` directives: with at least one, a model lists only the atoms
//!   of the shown predicates (clingo's semantics); other `#show` forms are rejected.

use std::fmt;

/// A term: a constant, a variable, or an arithmetic expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Symbolic constant (`hdf5`) or quoted string (`"1.2.11"`).
    Sym(String),
    /// Integer constant.
    Int(i64),
    /// Variable (capitalized identifier, or `_`).
    Var(String),
    /// Binary arithmetic over integer terms.
    BinOp(ArithOp, Box<Term>, Box<Term>),
}

impl Term {
    /// True when the term contains no variable (including the wildcard).
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Sym(_) | Term::Int(_) => true,
            Term::Var(_) => false,
            Term::BinOp(_, a, b) => a.is_ground() && b.is_ground(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Sym(s) => {
                let bare = !s.is_empty()
                    && s.chars().next().unwrap().is_ascii_lowercase()
                    && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if bare {
                    write!(f, "{s}")
                } else {
                    write!(f, "\"{s}\"")
                }
            }
            Term::Int(i) => write!(f, "{i}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::BinOp(op, a, b) => write!(f, "({a}{op}{b})"),
        }
    }
}

/// Arithmetic operators allowed in terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithOp::Add => write!(f, "+"),
            ArithOp::Sub => write!(f, "-"),
            ArithOp::Mul => write!(f, "*"),
        }
    }
}

/// Comparison operators in comparison literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A (non-ground) atom: predicate applied to terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(pred: &str, args: Vec<Term>) -> Self {
        Atom { pred: pred.to_string(), args }
    }

    /// True when every argument is ground (no variables anywhere).
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A predicate literal, possibly negated with `not`.
    Pred {
        /// True when prefixed with `not`.
        negated: bool,
        /// The atom.
        atom: Atom,
    },
    /// A comparison between two terms.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left-hand side.
        lhs: Term,
        /// Right-hand side.
        rhs: Term,
    },
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pred { negated, atom } => {
                if *negated {
                    write!(f, "not ")?;
                }
                write!(f, "{atom}")
            }
            Literal::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

/// A body element: a plain literal or a conditional literal (`lit : cond1, cond2`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BodyElem {
    /// A plain literal.
    Lit(Literal),
    /// A conditional literal: `literal : conditions` — expands during grounding to the
    /// conjunction of `literal` instances over all groundings of the (local) condition
    /// variables for which the conditions are facts.
    Cond {
        /// The conditioned literal.
        literal: Literal,
        /// The conditions (restricted to input-fact predicates in this dialect).
        conditions: Vec<Literal>,
    },
}

impl fmt::Display for BodyElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyElem::Lit(l) => write!(f, "{l}"),
            BodyElem::Cond { literal, conditions } => {
                write!(f, "{literal}")?;
                for c in conditions {
                    write!(f, " : {c}")?;
                }
                Ok(())
            }
        }
    }
}

/// One element of a choice head: `atom : conditions`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChoiceElement {
    /// The choosable atom.
    pub atom: Atom,
    /// Conditions restricting which instances are choosable.
    pub conditions: Vec<Literal>,
}

/// The head of a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Head {
    /// No head: an integrity constraint.
    None,
    /// A single atom.
    Atom(Atom),
    /// A choice with optional cardinality bounds: `l { e1; e2; ... } u`.
    Choice {
        /// Lower cardinality bound, if given.
        lower: Option<Term>,
        /// Upper cardinality bound, if given.
        upper: Option<Term>,
        /// Choice elements.
        elements: Vec<ChoiceElement>,
    },
}

/// A rule: `head :- body.` A fact is a rule with an empty body; an integrity constraint
/// has head [`Head::None`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The rule head.
    pub head: Head,
    /// The rule body (conjunction).
    pub body: Vec<BodyElem>,
}

/// One element of a `#minimize` statement: `weight@priority,terms... : conditions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeElement {
    /// The weight term (must evaluate to an integer once ground).
    pub weight: Term,
    /// The priority term; higher priorities are optimized first.
    pub priority: Term,
    /// Distinguishing tuple terms.
    pub terms: Vec<Term>,
    /// Conditions under which the tuple contributes.
    pub conditions: Vec<Literal>,
}

/// A parsed program: rules, minimize statements, `#const` definitions, `#external`
/// declarations and `#show` directives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// All rules (facts, normal rules, choices, constraints).
    pub rules: Vec<Rule>,
    /// All minimize elements (from all `#minimize` statements).
    pub minimize: Vec<MinimizeElement>,
    /// `#const` definitions applied during grounding.
    pub consts: Vec<(String, Term)>,
    /// `#external` declarations: ground atoms whose truth is *not* determined by the
    /// program. The grounder interns them as possible atoms, the translation exempts
    /// them from support-based elimination, and the stability check treats a true
    /// external as founded — so a caller can fix each one per solve via an assumption
    /// without regrounding (the clingo `#external` / `assign_external` pattern).
    pub externals: Vec<Atom>,
    /// `#show name/arity.` directives, as `(name, arity)`. With none, a model lists
    /// every atom; with at least one, only atoms of a shown name and arity. Showing
    /// changes no grounding and no search, only what a model lists.
    pub shows: Vec<(String, usize)>,
}

impl Program {
    /// Merge another program into this one.
    pub fn extend(&mut self, other: Program) {
        self.rules.extend(other.rules);
        self.minimize.extend(other.minimize);
        self.consts.extend(other.consts);
        self.externals.extend(other.externals);
        self.shows.extend(other.shows);
    }

    /// Total number of statements.
    pub fn len(&self) -> usize {
        self.rules.len() + self.minimize.len() + self.externals.len() + self.shows.len()
    }

    /// True when the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_atoms_and_literals() {
        let atom = Atom::new("depends_on", vec![Term::Sym("hdf5".into()), Term::Var("D".into())]);
        assert_eq!(atom.to_string(), "depends_on(hdf5,D)");
        let lit = Literal::Pred { negated: true, atom };
        assert_eq!(lit.to_string(), "not depends_on(hdf5,D)");
        let cmp =
            Literal::Cmp { op: CmpOp::Ne, lhs: Term::Var("A".into()), rhs: Term::Var("B".into()) };
        assert_eq!(cmp.to_string(), "A != B");
    }

    #[test]
    fn display_quoted_symbols() {
        assert_eq!(Term::Sym("1.2.11".into()).to_string(), "\"1.2.11\"");
        assert_eq!(Term::Sym("zlib".into()).to_string(), "zlib");
    }
}
