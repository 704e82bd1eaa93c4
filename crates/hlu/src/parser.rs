//! Surface syntax for HLU programs.
//!
//! ```text
//! program := "(" "assert" formula ")"
//!          | "(" "clear" "[" name* "]" ")"
//!          | "(" "insert" formula ")"
//!          | "(" "delete" formula ")"
//!          | "(" "modify" formula formula ")"
//!          | "(" "where" formula program program? ")"
//!          | "(" "id" ")"
//! formula := "{" ⟨wff syntax of pwdb-logic⟩ "}"
//! ```
//!
//! Formulas are delimited by braces so the wff grammar (which itself uses
//! parentheses) nests cleanly inside the s-expression skeleton, matching
//! the paper's `(insert {A1 ∨ A2})` typography. Atom names intern into a
//! caller-supplied table, as in `pwdb-logic`.

use std::collections::BTreeSet;

use pwdb_logic::{atom_name_len, parse_wff, AtomId, AtomTable, LogicError, Result, Wff};

use crate::ast::HluProgram;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    atoms: &'a mut AtomTable,
}

impl<'a> Parser<'a> {
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

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn name(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        self.pos += atom_name_len(&self.input[start..]);
        if start == self.pos {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii")
            .to_owned())
    }

    fn formula(&mut self) -> Result<Wff> {
        self.expect(b'{')?;
        let start = self.pos;
        let mut depth = 0usize;
        loop {
            match self.input.get(self.pos) {
                None => return Err(self.err("unterminated formula (missing '}')")),
                Some(b'{') => depth += 1,
                Some(b'}') if depth == 0 => break,
                Some(b'}') => depth -= 1,
                Some(_) => {}
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii");
        let wff = parse_wff(text, self.atoms).map_err(|e| match e {
            LogicError::Parse { offset, message } => LogicError::Parse {
                offset: start + offset,
                message,
            },
            other => other,
        })?;
        self.pos += 1; // consume '}'
        Ok(wff)
    }

    fn mask(&mut self) -> Result<BTreeSet<AtomId>> {
        self.expect(b'[')?;
        let mut out = BTreeSet::new();
        while self.peek() != Some(b']') {
            if self.peek().is_none() {
                return Err(self.err("unterminated mask (missing ']')"));
            }
            let name = self.name()?;
            out.insert(self.atoms.intern(&name));
        }
        self.pos += 1; // consume ']'
        Ok(out)
    }

    fn program(&mut self) -> Result<HluProgram> {
        self.expect(b'(')?;
        let op = self.name()?;
        let prog = match op.as_str() {
            "id" => HluProgram::Identity,
            "assert" => HluProgram::Assert(self.formula()?),
            "insert" => HluProgram::Insert(self.formula()?),
            "delete" => HluProgram::Delete(self.formula()?),
            "modify" => {
                let from = self.formula()?;
                let to = self.formula()?;
                HluProgram::Modify(from, to)
            }
            "clear" | "mask" => HluProgram::Clear(self.mask()?),
            "where" => {
                let cond = self.formula()?;
                let then = self.program()?;
                let otherwise = if self.peek() == Some(b'(') {
                    self.program()?
                } else {
                    HluProgram::Identity
                };
                HluProgram::Where(cond, Box::new(then), Box::new(otherwise))
            }
            other => return Err(self.err(format!("unknown HLU operator '{other}'"))),
        };
        self.expect(b')')?;
        Ok(prog)
    }
}

/// A top-level HLU statement: a program to run, optionally wrapped in
/// `EXPLAIN` (case-insensitive) to request an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HluStatement {
    /// Run the program normally.
    Run(HluProgram),
    /// Run the program and return its trace (`EXPLAIN (insert {...})`).
    Explain(HluProgram),
}

impl HluStatement {
    /// The wrapped program, either way.
    pub fn program(&self) -> &HluProgram {
        match self {
            HluStatement::Run(p) | HluStatement::Explain(p) => p,
        }
    }
}

/// The canonical serializer: `Display` output reparses (via
/// [`parse_hlu_statement`] against a table with the same interning order)
/// to an equal statement. This textual form is what the write-ahead log
/// stores, so exactness is load-bearing — `tests/parser_fuzz.rs` fuzzes
/// the parse ↔ print ↔ parse round trip.
impl std::fmt::Display for HluStatement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HluStatement::Run(p) => write!(f, "{p}"),
            HluStatement::Explain(p) => write!(f, "EXPLAIN {p}"),
        }
    }
}

/// Parses a top-level statement: an HLU program with an optional leading
/// `EXPLAIN` keyword.
pub fn parse_hlu_statement(input: &str, atoms: &mut AtomTable) -> Result<HluStatement> {
    let trimmed = input.trim_start();
    let keyword_len = trimmed
        .bytes()
        .take_while(|b| b.is_ascii_alphabetic())
        .count();
    if trimmed[..keyword_len].eq_ignore_ascii_case("explain") && keyword_len > 0 {
        let rest = &trimmed[keyword_len..];
        return Ok(HluStatement::Explain(parse_hlu(rest, atoms)?));
    }
    Ok(HluStatement::Run(parse_hlu(input, atoms)?))
}

/// Parses an HLU program, interning atom names into `atoms`.
pub fn parse_hlu(input: &str, atoms: &mut AtomTable) -> Result<HluProgram> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        atoms,
    };
    let prog = p.program()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(prog)
}

/// Parses a newline/whitespace-separated script of HLU programs.
pub fn parse_hlu_script(input: &str, atoms: &mut AtomTable) -> Result<Vec<HluProgram>> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        atoms,
    };
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.program()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::Wff;

    fn a(i: u32) -> Wff {
        Wff::atom(i)
    }

    #[test]
    fn parses_simple_forms() {
        let mut t = AtomTable::with_indexed_atoms(3);
        assert_eq!(
            parse_hlu("(insert {A1 | A2})", &mut t).unwrap(),
            HluProgram::Insert(a(0).or(a(1)))
        );
        assert_eq!(
            parse_hlu("(assert {A3})", &mut t).unwrap(),
            HluProgram::Assert(a(2))
        );
        assert_eq!(
            parse_hlu("(delete {!A1})", &mut t).unwrap(),
            HluProgram::Delete(a(0).not())
        );
        assert_eq!(
            parse_hlu("(modify {A1} {A2})", &mut t).unwrap(),
            HluProgram::Modify(a(0), a(1))
        );
        assert_eq!(parse_hlu("(id)", &mut t).unwrap(), HluProgram::Identity);
    }

    #[test]
    fn parses_clear_and_mask_alias() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let expected: BTreeSet<AtomId> = [AtomId(0), AtomId(1)].into_iter().collect();
        assert_eq!(
            parse_hlu("(clear [A1 A2])", &mut t).unwrap(),
            HluProgram::Clear(expected.clone())
        );
        assert_eq!(
            parse_hlu("(mask [A2 A1])", &mut t).unwrap(),
            HluProgram::Clear(expected)
        );
        assert_eq!(
            parse_hlu("(clear [])", &mut t).unwrap(),
            HluProgram::Clear(BTreeSet::new())
        );
    }

    #[test]
    fn parses_where_forms() {
        let mut t = AtomTable::with_indexed_atoms(5);
        let p = parse_hlu("(where {A5} (insert {A1 | A2}))", &mut t).unwrap();
        assert_eq!(
            p,
            HluProgram::where1(a(4), HluProgram::Insert(a(0).or(a(1))))
        );
        let q = parse_hlu("(where {A5} (insert {A1}) (delete {A2}))", &mut t).unwrap();
        assert_eq!(
            q,
            HluProgram::where2(a(4), HluProgram::Insert(a(0)), HluProgram::Delete(a(1)))
        );
    }

    #[test]
    fn parses_nested_where() {
        let mut t = AtomTable::with_indexed_atoms(4);
        let p = parse_hlu(
            "(where {A1} (where {A2} (insert {A3})) (delete {A4}))",
            &mut t,
        )
        .unwrap();
        assert_eq!(p.where_depth(), 2);
    }

    #[test]
    fn formula_with_nested_parens() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let p = parse_hlu("(insert {(A1 -> A2) & !(A3 | A1)})", &mut t).unwrap();
        match p {
            HluProgram::Insert(w) => assert_eq!(w.props().len(), 3),
            _ => panic!("expected insert"),
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let mut t = AtomTable::with_indexed_atoms(5);
        let src = "(where {A5} (insert {A1 | A2}) (modify {A3} {A4}))";
        let p = parse_hlu(src, &mut t).unwrap();
        let mut t2 = AtomTable::with_indexed_atoms(5);
        let reparsed = parse_hlu(&p.to_string(), &mut t2).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn script_parsing() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let script = parse_hlu_script(
            "(insert {A1})\n(delete {A2})\n(where {A3} (insert {A1}))",
            &mut t,
        )
        .unwrap();
        assert_eq!(script.len(), 3);
        assert!(parse_hlu_script("", &mut t).unwrap().is_empty());
    }

    #[test]
    fn statement_parsing_recognizes_explain() {
        let mut t = AtomTable::with_indexed_atoms(3);
        assert_eq!(
            parse_hlu_statement("(insert {A1})", &mut t).unwrap(),
            HluStatement::Run(HluProgram::Insert(a(0)))
        );
        for src in [
            "EXPLAIN (insert {A1})",
            "explain (insert {A1})",
            "  Explain   (insert {A1})",
        ] {
            assert_eq!(
                parse_hlu_statement(src, &mut t).unwrap(),
                HluStatement::Explain(HluProgram::Insert(a(0))),
                "{src}"
            );
        }
        // EXPLAIN must wrap a valid program.
        assert!(parse_hlu_statement("EXPLAIN", &mut t).is_err());
        assert!(parse_hlu_statement("EXPLAIN junk", &mut t).is_err());
    }

    #[test]
    fn errors() {
        let mut t = AtomTable::with_indexed_atoms(3);
        assert!(parse_hlu("(frob {A1})", &mut t).is_err());
        assert!(parse_hlu("(insert {A1)", &mut t).is_err());
        assert!(parse_hlu("(insert A1)", &mut t).is_err());
        assert!(parse_hlu("(insert {A1 &})", &mut t).is_err());
        assert!(parse_hlu("(insert {A1}) junk", &mut t).is_err());
        assert!(parse_hlu("(clear [A1)", &mut t).is_err());
        assert!(parse_hlu("(modify {A1})", &mut t).is_err());
    }

    #[test]
    fn error_offsets_point_into_formula() {
        let mut t = AtomTable::with_indexed_atoms(3);
        let err = parse_hlu("(insert {A1 &})", &mut t).unwrap_err();
        match err {
            LogicError::Parse { offset, .. } => assert!(offset >= 9, "offset {offset}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mask_names_follow_the_wff_name_grammar() {
        // A mask accepts exactly the names a formula does, so every
        // interned name can be stored and parsed back.
        let mut t = AtomTable::new();
        for src in ["(clear [9])", "(clear ['a])", "(clear [A1 2b])"] {
            let at = src.find(['9', '\'', '2']).unwrap();
            assert_eq!(
                parse_hlu(src, &mut t),
                Err(LogicError::Parse {
                    offset: at,
                    message: "expected a name".into()
                }),
                "{src}"
            );
            assert!(parse_wff(&src[at..at + 2], &mut t).is_err(), "{src}");
        }
        assert!(t.lookup("9").is_err() && t.lookup("'a").is_err());
        assert_eq!(
            parse_hlu("(clear [_a a' b_1])", &mut t).unwrap(),
            HluProgram::Clear(BTreeSet::from([AtomId(1), AtomId(2), AtomId(3)]))
        );
    }
}
