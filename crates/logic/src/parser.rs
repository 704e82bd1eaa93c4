//! Text syntax for formulas and clauses.
//!
//! Grammar (ASCII stand-ins for the paper's connectives):
//!
//! ```text
//! wff    := iff
//! iff    := imp ( "<->" imp )*
//! imp    := or ( "->" imp )?            (right associative)
//! or     := and ( "|" and )*
//! and    := unary ( "&" unary )*
//! unary  := "!" unary | "0" | "1" | name | "(" wff ")"
//! name   := [A-Za-z_][A-Za-z0-9_']*
//! ```
//!
//! Clauses are written `l1 | l2 | …` with `!` for negation; clause sets as
//! `{ clause , … }` (or newline/comma separated clauses without braces).
//! `[]` denotes the empty clause `□`.
//!
//! Parsing interns atom names into a caller-supplied [`AtomTable`], so a
//! schema's implicit atom order is exactly the order of first occurrence
//! (or a pre-seeded table).

use crate::atom::AtomTable;
use crate::clause::Clause;
use crate::clause_set::ClauseSet;
use crate::error::{LogicError, Result};
use crate::literal::Literal;
use crate::wff::Wff;

/// Length of the atom name that starts `text`: its longest prefix in
/// `[A-Za-z_][A-Za-z0-9_']*`, or 0 when `text` does not start with one.
///
/// The one atom-name grammar: the wff lexer, HLU mask parameters and the
/// durable store's name check all use it, so every name that parses is
/// a name that can be stored and re-parsed.
pub fn atom_name_len(text: &[u8]) -> usize {
    match text.first() {
        Some(&b) if b.is_ascii_alphabetic() || b == b'_' => {
            1 + text[1..]
                .iter()
                .take_while(|&&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'')
                .count()
        }
        _ => 0,
    }
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Name(String),
    Zero,
    One,
    Not,
    And,
    Or,
    Implies,
    Iff,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> LogicError {
        LogicError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn next_tok(&mut self) -> Result<Tok> {
        self.skip_ws();
        let Some(b) = self.peek_byte() else {
            return Ok(Tok::Eof);
        };
        let tok = match b {
            b'!' | b'~' => {
                self.pos += 1;
                Tok::Not
            }
            b'&' => {
                self.pos += 1;
                Tok::And
            }
            b'|' => {
                self.pos += 1;
                Tok::Or
            }
            b'-' => {
                if self.input.get(self.pos + 1) == Some(&b'>') {
                    self.pos += 2;
                    Tok::Implies
                } else {
                    return Err(self.err("expected '->'"));
                }
            }
            b'<' => {
                if self.input[self.pos..].starts_with(b"<->") {
                    self.pos += 3;
                    Tok::Iff
                } else {
                    return Err(self.err("expected '<->'"));
                }
            }
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b'[' => {
                self.pos += 1;
                Tok::LBracket
            }
            b']' => {
                self.pos += 1;
                Tok::RBracket
            }
            b',' | b'\n' | b';' => {
                self.pos += 1;
                Tok::Comma
            }
            b'0' => {
                self.pos += 1;
                Tok::Zero
            }
            b'1' => {
                self.pos += 1;
                Tok::One
            }
            other => {
                let start = self.pos;
                self.pos += atom_name_len(&self.input[start..]);
                if self.pos == start {
                    return Err(self.err(format!("unexpected character '{}'", other as char)));
                }
                let name = std::str::from_utf8(&self.input[start..self.pos])
                    .expect("ascii range checked")
                    .to_owned();
                Tok::Name(name)
            }
        };
        Ok(tok)
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    atoms: &'a mut AtomTable,
    lookahead: Tok,
    lookahead_at: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, atoms: &'a mut AtomTable) -> Result<Self> {
        let mut lexer = Lexer::new(input);
        let at = lexer.pos;
        let lookahead = lexer.next_tok()?;
        Ok(Parser {
            lexer,
            atoms,
            lookahead,
            lookahead_at: at,
        })
    }

    fn bump(&mut self) -> Result<Tok> {
        self.lookahead_at = self.lexer.pos;
        let next = self.lexer.next_tok()?;
        Ok(std::mem::replace(&mut self.lookahead, next))
    }

    fn err_here(&self, message: impl Into<String>) -> LogicError {
        LogicError::Parse {
            offset: self.lookahead_at,
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        if self.lookahead == tok {
            self.bump()?;
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}, found {:?}", self.lookahead)))
        }
    }

    // --- wff grammar -----------------------------------------------------

    fn wff(&mut self) -> Result<Wff> {
        let mut left = self.imp()?;
        while self.lookahead == Tok::Iff {
            self.bump()?;
            let right = self.imp()?;
            left = left.iff(right);
        }
        Ok(left)
    }

    fn imp(&mut self) -> Result<Wff> {
        let left = self.or()?;
        if self.lookahead == Tok::Implies {
            self.bump()?;
            let right = self.imp()?;
            Ok(left.implies(right))
        } else {
            Ok(left)
        }
    }

    fn or(&mut self) -> Result<Wff> {
        let mut left = self.and()?;
        while self.lookahead == Tok::Or {
            self.bump()?;
            let right = self.and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Wff> {
        let mut left = self.unary()?;
        while self.lookahead == Tok::And {
            self.bump()?;
            let right = self.unary()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Wff> {
        match self.bump()? {
            Tok::Not => Ok(self.unary()?.not()),
            Tok::Zero => Ok(Wff::False),
            Tok::One => Ok(Wff::True),
            Tok::Name(name) => Ok(Wff::Atom(self.atoms.intern(&name))),
            Tok::LParen => {
                let inner = self.wff()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(inner)
            }
            other => Err(self.err_here(format!("expected formula, found {other:?}"))),
        }
    }

    // --- clause grammar --------------------------------------------------

    fn clause(&mut self) -> Result<Clause> {
        if self.lookahead == Tok::LBracket {
            self.bump()?;
            self.expect(Tok::RBracket, "']' (empty clause)")?;
            return Ok(Clause::empty());
        }
        let mut lits = vec![self.literal()?];
        while self.lookahead == Tok::Or {
            self.bump()?;
            lits.push(self.literal()?);
        }
        Ok(Clause::new(lits))
    }

    fn literal(&mut self) -> Result<Literal> {
        let mut positive = true;
        while self.lookahead == Tok::Not {
            self.bump()?;
            positive = !positive;
        }
        match self.bump()? {
            Tok::Name(name) => Ok(Literal::new(self.atoms.intern(&name), positive)),
            other => Err(self.err_here(format!("expected literal, found {other:?}"))),
        }
    }

    fn clause_set(&mut self) -> Result<ClauseSet> {
        let braced = self.lookahead == Tok::LBrace;
        if braced {
            self.bump()?;
        }
        let mut set = ClauseSet::new();
        loop {
            // Allow stray separators and empty sets.
            while self.lookahead == Tok::Comma {
                self.bump()?;
            }
            if self.lookahead == Tok::Eof || (braced && self.lookahead == Tok::RBrace) {
                break;
            }
            set.insert(self.clause()?);
        }
        if braced {
            self.expect(Tok::RBrace, "'}'")?;
        }
        Ok(set)
    }

    fn finish(&mut self) -> Result<()> {
        if self.lookahead == Tok::Eof {
            Ok(())
        } else {
            Err(self.err_here(format!("trailing input: {:?}", self.lookahead)))
        }
    }
}

/// Parses a well-formed formula, interning names into `atoms`.
pub fn parse_wff(input: &str, atoms: &mut AtomTable) -> Result<Wff> {
    let mut p = Parser::new(input, atoms)?;
    let w = p.wff()?;
    p.finish()?;
    Ok(w)
}

/// Parses a single clause (`l1 | l2 | …` or `[]`).
pub fn parse_clause(input: &str, atoms: &mut AtomTable) -> Result<Clause> {
    let mut p = Parser::new(input, atoms)?;
    let c = p.clause()?;
    p.finish()?;
    Ok(c)
}

/// Parses a clause set: `{ c1, c2, … }` or separator-delimited clauses.
pub fn parse_clause_set(input: &str, atoms: &mut AtomTable) -> Result<ClauseSet> {
    let mut p = Parser::new(input, atoms)?;
    let s = p.clause_set()?;
    p.finish()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wff::Wff;

    fn a(i: u32) -> Wff {
        Wff::atom(i)
    }

    #[test]
    fn parses_precedence() {
        let mut t = AtomTable::new();
        let w = parse_wff("A1 | A2 & A3", &mut t).unwrap();
        assert_eq!(w, a(0).or(a(1).and(a(2))));
    }

    #[test]
    fn parses_parens_override() {
        let mut t = AtomTable::new();
        let w = parse_wff("(A1 | A2) & A3", &mut t).unwrap();
        assert_eq!(w, a(0).or(a(1)).and(a(2)));
    }

    #[test]
    fn implies_right_assoc() {
        let mut t = AtomTable::new();
        let w = parse_wff("p -> q -> r", &mut t).unwrap();
        assert_eq!(w, a(0).implies(a(1).implies(a(2))));
    }

    #[test]
    fn iff_left_assoc_chain() {
        let mut t = AtomTable::new();
        let w = parse_wff("p <-> q <-> r", &mut t).unwrap();
        assert_eq!(w, a(0).iff(a(1)).iff(a(2)));
    }

    #[test]
    fn negation_and_constants() {
        let mut t = AtomTable::new();
        let w = parse_wff("!p & 1 | 0", &mut t).unwrap();
        assert_eq!(w, a(0).not().and(Wff::True).or(Wff::False));
        let double = parse_wff("!!p", &mut t).unwrap();
        assert_eq!(double, a(0).not().not());
    }

    #[test]
    fn tilde_is_negation_alias() {
        let mut t = AtomTable::new();
        assert_eq!(parse_wff("~p", &mut t).unwrap(), a(0).not());
    }

    #[test]
    fn interning_respects_preseeded_table() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let w = parse_wff("A3 & A1", &mut t).unwrap();
        assert_eq!(w, a(2).and(a(0)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn display_parse_roundtrip() {
        let mut t = AtomTable::new();
        let w = parse_wff("!(A1 -> A2) <-> A3 & !A4 | 1", &mut t).unwrap();
        let mut t2 = AtomTable::new();
        let reparsed = parse_wff(&w.to_string(), &mut t2).unwrap();
        assert_eq!(w, reparsed);
    }

    #[test]
    fn parse_errors_report_offset() {
        let mut t = AtomTable::new();
        let err = parse_wff("A1 &", &mut t).unwrap_err();
        match err {
            LogicError::Parse { offset, .. } => assert_eq!(offset, 4),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse_wff("A1 @ A2", &mut t).is_err());
        assert!(parse_wff("A1 A2", &mut t).is_err());
        assert!(parse_wff("(A1", &mut t).is_err());
        assert!(parse_wff("A1 <- A2", &mut t).is_err());
    }

    #[test]
    fn parses_clause_forms() {
        let mut t = AtomTable::new();
        let c = parse_clause("!A1 | A2 | !A3", &mut t).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.to_string(), "!A1 | A2 | !A3");
        assert_eq!(parse_clause("[]", &mut t).unwrap(), Clause::empty());
    }

    #[test]
    fn parses_clause_sets() {
        let mut t = AtomTable::new();
        let s = parse_clause_set("{!A1 | A3, A1 | A4, A4 | A5, !A1 | !A2 | !A5}", &mut t).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.length(), 9);
        // Unbraced, newline separated.
        let mut t2 = AtomTable::new();
        let s2 = parse_clause_set("A1 | A2\n!A3", &mut t2).unwrap();
        assert_eq!(s2.len(), 2);
        // Empty set.
        let mut t3 = AtomTable::new();
        assert!(parse_clause_set("{}", &mut t3).unwrap().is_empty());
        assert!(parse_clause_set("", &mut t3).unwrap().is_empty());
    }

    #[test]
    fn clause_set_drops_tautologies_on_parse() {
        let mut t = AtomTable::new();
        let s = parse_clause_set("{A1 | !A1, A2}", &mut t).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clause_rejects_garbage() {
        let mut t = AtomTable::new();
        assert!(parse_clause("A1 &", &mut t).is_err());
        assert!(parse_clause("| A1", &mut t).is_err());
        assert!(parse_clause_set("{A1", &mut t).is_err());
    }

    #[test]
    fn atom_name_len_is_the_name_grammar() {
        for (text, len) in [
            ("A1 | A2", 2),
            ("_x'' & y", 4),
            ("snow_2)", 6),
            ("9a", 0),
            ("'a", 0),
            ("", 0),
        ] {
            assert_eq!(atom_name_len(text.as_bytes()), len, "{text:?}");
        }
    }
}
