//! Recursive-descent parser for the ASP input language.

use std::fmt;

use crate::ast::{
    ArithOp, Atom, BodyElem, ChoiceElement, CmpOp, Head, Literal, MinimizeElement, Program, Rule,
    Term,
};
use crate::lexer::{tokenize, LexError, Spanned, Token};

/// A parse error, with the source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// 1-based source line (0 when at end of input).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.message, line: e.line }
    }
}

/// Parse an ASP program from text.
pub fn parse_program(input: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut program = Program::default();
    while !parser.eof() {
        parser.parse_statement(&mut program)?;
    }
    Ok(program)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn line(&self) -> usize {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map(|s| s.line).unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), line: self.line() }
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected '{tok}', found '{t}'"))),
            None => Err(self.error(format!("expected '{tok}', found end of input"))),
        }
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_statement(&mut self, program: &mut Program) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Const) => {
                self.pos += 1;
                let name = match self.advance() {
                    Some(Token::Ident(s)) => s,
                    _ => return Err(self.error("expected identifier after #const")),
                };
                self.expect(&Token::Eq)?;
                let value = self.parse_term()?;
                self.expect(&Token::Dot)?;
                program.consts.push((name, value));
            }
            Some(Token::External) => {
                // `#external atom.` — the atom must be ground (variables would need a
                // domain to range over, which this dialect's externals do not have).
                self.pos += 1;
                let atom = self.parse_atom()?;
                if !atom.is_ground() {
                    return Err(self.error("#external atoms must be ground"));
                }
                self.expect(&Token::Dot)?;
                program.externals.push(atom);
            }
            Some(Token::Show) => {
                // `#show name/arity.` — the only `#show` form this dialect accepts.
                self.pos += 1;
                let name = match self.advance() {
                    Some(Token::Ident(s)) => s,
                    _ => return Err(self.error("expected `#show name/arity.`")),
                };
                if !self.eat(&Token::Slash) {
                    return Err(self.error("expected `#show name/arity.`"));
                }
                let arity = match self.advance() {
                    Some(Token::Int(n)) => n as usize,
                    _ => return Err(self.error("expected an arity after `#show name/`")),
                };
                self.expect(&Token::Dot)?;
                program.shows.push((name, arity));
            }
            Some(Token::Minimize) | Some(Token::Maximize) => {
                let maximize = self.peek() == Some(&Token::Maximize);
                if maximize {
                    return Err(
                        self.error("#maximize is not supported; negate weights and use #minimize")
                    );
                }
                self.pos += 1;
                self.expect(&Token::LBrace)?;
                loop {
                    let elem = self.parse_minimize_element()?;
                    program.minimize.push(elem);
                    if !self.eat(&Token::Semi) {
                        break;
                    }
                }
                self.expect(&Token::RBrace)?;
                self.expect(&Token::Dot)?;
            }
            Some(_) => {
                let rule = self.parse_rule()?;
                program.rules.push(rule);
            }
            None => {}
        }
        Ok(())
    }

    fn parse_minimize_element(&mut self) -> Result<MinimizeElement, ParseError> {
        // weight [@ priority] [, term]* [: conditions]
        let weight = self.parse_term()?;
        let priority = if self.eat(&Token::At) { self.parse_term()? } else { Term::Int(0) };
        let mut terms = Vec::new();
        while self.eat(&Token::Comma) {
            terms.push(self.parse_term()?);
        }
        let mut conditions = Vec::new();
        if self.eat(&Token::Colon) {
            loop {
                conditions.push(self.parse_literal()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        Ok(MinimizeElement { weight, priority, terms, conditions })
    }

    fn parse_rule(&mut self) -> Result<Rule, ParseError> {
        // Integrity constraint?
        if self.eat(&Token::If) {
            let body = self.parse_body()?;
            self.expect(&Token::Dot)?;
            return Ok(Rule { head: Head::None, body });
        }
        let head = self.parse_head()?;
        let body = if self.eat(&Token::If) { self.parse_body()? } else { Vec::new() };
        self.expect(&Token::Dot)?;
        Ok(Rule { head, body })
    }

    fn parse_head(&mut self) -> Result<Head, ParseError> {
        // Choice head: optional lower bound term followed by '{', or '{' directly.
        let starts_choice = matches!(self.peek(), Some(Token::LBrace))
            || (matches!(self.peek(), Some(Token::Int(_)) | Some(Token::Variable(_)))
                && matches!(self.peek2(), Some(Token::LBrace)));
        if starts_choice {
            let lower = if !matches!(self.peek(), Some(Token::LBrace)) {
                Some(self.parse_term()?)
            } else {
                None
            };
            self.expect(&Token::LBrace)?;
            let mut elements = Vec::new();
            if self.peek() != Some(&Token::RBrace) {
                loop {
                    let atom = self.parse_atom()?;
                    let mut conditions = Vec::new();
                    if self.eat(&Token::Colon) {
                        loop {
                            conditions.push(self.parse_literal()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    elements.push(ChoiceElement { atom, conditions });
                    if !self.eat(&Token::Semi) {
                        break;
                    }
                }
            }
            self.expect(&Token::RBrace)?;
            let upper = if matches!(self.peek(), Some(Token::Int(_)) | Some(Token::Variable(_))) {
                Some(self.parse_term()?)
            } else {
                None
            };
            return Ok(Head::Choice { lower, upper, elements });
        }
        Ok(Head::Atom(self.parse_atom()?))
    }

    fn parse_body(&mut self) -> Result<Vec<BodyElem>, ParseError> {
        let mut body = Vec::new();
        loop {
            let literal = self.parse_literal()?;
            // Conditional literal?
            if self.eat(&Token::Colon) {
                let mut conditions = Vec::new();
                loop {
                    conditions.push(self.parse_literal()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                body.push(BodyElem::Cond { literal, conditions });
                // After a conditional literal only ';' (or end of body) may follow.
                if self.eat(&Token::Semi) {
                    continue;
                }
                break;
            }
            body.push(BodyElem::Lit(literal));
            if self.eat(&Token::Comma) || self.eat(&Token::Semi) {
                continue;
            }
            break;
        }
        Ok(body)
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        if self.eat(&Token::Not) {
            let atom = self.parse_atom()?;
            return Ok(Literal::Pred { negated: true, atom });
        }
        // Could be an atom or a comparison: parse a term first when it cannot be an atom,
        // otherwise parse an atom and check for a comparison operator (which would make the
        // "atom" a plain term on the left-hand side).
        let is_atom_start = matches!(self.peek(), Some(Token::Ident(_)));
        if is_atom_start && matches!(self.peek2(), Some(Token::LParen)) {
            let atom = self.parse_atom()?;
            return Ok(Literal::Pred { negated: false, atom });
        }
        // Otherwise parse a term and see whether a comparison follows.
        let lhs = self.parse_term()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_term()?;
            return Ok(Literal::Cmp { op, lhs, rhs });
        }
        // A bare term used as a literal must be a 0-ary predicate.
        match lhs {
            Term::Sym(name) => Ok(Literal::Pred { negated: false, atom: Atom::new(&name, vec![]) }),
            other => Err(self.error(format!("expected a literal, found bare term '{other}'"))),
        }
    }

    fn parse_atom(&mut self) -> Result<Atom, ParseError> {
        let name = match self.advance() {
            Some(Token::Ident(s)) => s,
            Some(t) => return Err(self.error(format!("expected predicate name, found '{t}'"))),
            None => return Err(self.error("expected predicate name, found end of input")),
        };
        let mut args = Vec::new();
        if self.eat(&Token::LParen) {
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.parse_term()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
        }
        Ok(Atom { pred: name, args })
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_mul()?;
            lhs = Term::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_factor()?;
        while self.peek() == Some(&Token::Star) {
            self.pos += 1;
            let rhs = self.parse_factor()?;
            lhs = Term::BinOp(ArithOp::Mul, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> Result<Term, ParseError> {
        match self.advance() {
            Some(Token::Int(i)) => Ok(Term::Int(i)),
            Some(Token::Minus) => match self.advance() {
                Some(Token::Int(i)) => Ok(Term::Int(-i)),
                _ => Err(self.error("expected integer after unary '-'")),
            },
            Some(Token::Str(s)) => Ok(Term::Sym(s)),
            Some(Token::Ident(s)) => Ok(Term::Sym(s)),
            Some(Token::Variable(v)) => Ok(Term::Var(v)),
            Some(Token::LParen) => {
                let t = self.parse_term()?;
                self.expect(&Token::RParen)?;
                Ok(t)
            }
            Some(t) => Err(self.error(format!("expected a term, found '{t}'"))),
            None => Err(self.error("expected a term, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_facts_and_rules() {
        let p = parse_program(
            r#"
            node("hdf5").
            depends_on("hdf5", "mpi").
            node(Dependency) :- node(Package), depends_on(Package, Dependency).
            :- depends_on(Package, Package).
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 4);
        assert!(matches!(p.rules[0].head, Head::Atom(_)));
        assert!(p.rules[0].body.is_empty());
        assert!(matches!(p.rules[3].head, Head::None));
    }

    #[test]
    fn parse_choice_rule_with_bounds() {
        let p =
            parse_program("1 { version(P, V) : possible_version(P, V) } 1 :- node(P).").unwrap();
        match &p.rules[0].head {
            Head::Choice { lower, upper, elements } => {
                assert_eq!(lower, &Some(Term::Int(1)));
                assert_eq!(upper, &Some(Term::Int(1)));
                assert_eq!(elements.len(), 1);
                assert_eq!(elements[0].conditions.len(), 1);
            }
            other => panic!("expected choice head, got {other:?}"),
        }
        assert_eq!(p.rules[0].body.len(), 1);
    }

    #[test]
    fn parse_choice_without_bounds() {
        let p = parse_program("{ hash(P, Hash) : installed_hash(P, Hash) } 1 :- node(P).").unwrap();
        match &p.rules[0].head {
            Head::Choice { lower, upper, .. } => {
                assert_eq!(lower, &None);
                assert_eq!(upper, &Some(Term::Int(1)));
            }
            other => panic!("expected choice head, got {other:?}"),
        }
        // Fact-level choice, as in Fig. 3.
        let p = parse_program("1 { node(a); node(b) }.").unwrap();
        match &p.rules[0].head {
            Head::Choice { lower, upper, elements } => {
                assert_eq!(lower, &Some(Term::Int(1)));
                assert_eq!(upper, &None);
                assert_eq!(elements.len(), 2);
            }
            other => panic!("expected choice head, got {other:?}"),
        }
    }

    #[test]
    fn parse_minimize_statement() {
        let p = parse_program("#minimize{ W@3,P,V : version_weight(P, V, W)}.").unwrap();
        assert_eq!(p.minimize.len(), 1);
        let m = &p.minimize[0];
        assert_eq!(m.weight, Term::Var("W".into()));
        assert_eq!(m.priority, Term::Int(3));
        assert_eq!(m.terms.len(), 2);
        assert_eq!(m.conditions.len(), 1);
    }

    #[test]
    fn parse_minimize_with_arithmetic_priority() {
        let p = parse_program(
            "#minimize{ W@2+Priority,P : version_weight(P, W), build_priority(P, Priority) }.",
        )
        .unwrap();
        let m = &p.minimize[0];
        assert!(matches!(m.priority, Term::BinOp(ArithOp::Add, _, _)));
        assert_eq!(m.conditions.len(), 2);
    }

    #[test]
    fn parse_conditional_literals_in_body() {
        let p = parse_program(
            r#"
            condition_holds(ID) :-
                condition(ID);
                attr(N, A1) : condition_requirement(ID, N, A1);
                attr(N, A1, A2) : condition_requirement(ID, N, A1, A2).
            "#,
        )
        .unwrap();
        let body = &p.rules[0].body;
        assert_eq!(body.len(), 3);
        assert!(matches!(body[0], BodyElem::Lit(_)));
        assert!(matches!(body[1], BodyElem::Cond { .. }));
        assert!(matches!(body[2], BodyElem::Cond { .. }));
    }

    #[test]
    fn parse_negation_and_comparisons() {
        let p = parse_program(
            r#"
            build(P) :- not hash(P, _), node(P).
            :- node_target(P, T), not compiler_supports_target(C, V, T), node_compiler(P, C).
            ok(X) :- num(X), X != 3, X <= 10.
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 3);
        match &p.rules[0].body[0] {
            BodyElem::Lit(Literal::Pred { negated, .. }) => assert!(*negated),
            other => panic!("unexpected {other:?}"),
        }
        match &p.rules[2].body[1] {
            BodyElem::Lit(Literal::Cmp { op: CmpOp::Ne, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_const_definition() {
        let p = parse_program("#const max_builds = 200. x(max_builds).").unwrap();
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.consts[0].0, "max_builds");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_program("node(a) :- .").is_err());
        assert!(parse_program("node(a)").is_err());
        assert!(parse_program("#maximize{ 1@1 : a }.").is_err());
        assert!(parse_program(":- X + 1.").is_err());
    }

    #[test]
    fn parse_show_directives() {
        let p = parse_program("#show attr2/2. #show build/1.\n#show ok/0. a.").unwrap();
        assert_eq!(p.shows, [("attr2".into(), 2), ("build".into(), 1), ("ok".into(), 0)]);
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn malformed_show_directives_are_parse_errors() {
        for text in [
            "#show.",
            "#show",
            "#show p.",
            "#show p/.",
            "#show p/1",
            "#show p/-1.",
            "#show p/X.",
            "#show p/1/2.",
            "#show p(X) : q(X).",
            "#show X/1.",
            "#show \"p\"/1.",
            "#show -p/1.",
            "#show p/1 q/2.",
            "#show /1.",
            "#show p/99999999999999999999.",
            "a :- b/2.",
            "#show p/1.5.",
        ] {
            assert!(parse_program(text).is_err(), "{text:?} must not parse");
        }
        let err = parse_program("a.\n#show p(X).").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
    }

    #[test]
    fn paper_snippet_target_selection() {
        // Snippets from Section V of the paper, unmodified except whitespace.
        let text = r#"
            1 { node_target(Package, Target) : target(Target) } 1 :- node(Package).
            node_target(P, T) :- node(P), node_target_set(P, T).
            :- node_target(P, T),
               not compiler_supports_target(C, V, T),
               node_compiler(P, C),
               node_compiler_version(P, C, V).
            node_target_weight(P, W) :-
               node(P), node_target(P, T), target_weight(T, W).
            #minimize { W@5,P : node_target_weight(P, W) }.
        "#;
        let p = parse_program(text).unwrap();
        assert_eq!(p.rules.len(), 4);
        assert_eq!(p.minimize.len(), 1);
    }
}
