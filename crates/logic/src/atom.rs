//! Proposition names and their interner.
//!
//! The paper (§1.1) takes the proposition set `P = {A1, …, An}` to be finite
//! and implicitly ordered by index. [`AtomId`] is that index; [`AtomTable`]
//! maps indices to and from human-readable names.

use std::collections::HashMap;
use std::fmt;

use crate::error::{LogicError, Result};

/// A proposition name, identified by its position in the implicit order of
/// the logic (the paper's `A_i`, zero-indexed here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(pub u32);

impl AtomId {
    /// Index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The paper's default display name, `A{i+1}` (atoms in the paper are
    /// one-indexed).
    pub fn default_name(self) -> String {
        format!("A{}", self.0 + 1)
    }
}

impl From<u32> for AtomId {
    fn from(v: u32) -> Self {
        AtomId(v)
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.default_name())
    }
}

/// Interner mapping atom names to dense [`AtomId`]s.
///
/// Downstream crates may work purely with ids; the table exists so parsers
/// and pretty-printers agree on names. Names are unique; interning an
/// existing name returns the existing id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomTable {
    names: Vec<String>,
    by_name: HashMap<String, AtomId>,
}

impl AtomTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table with `n` atoms named `A1 … An`, the paper's
    /// conventional presentation of a propositional logic.
    pub fn with_indexed_atoms(n: usize) -> Self {
        let mut t = Self::new();
        for i in 0..n {
            t.intern(&format!("A{}", i + 1));
        }
        t
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> AtomId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = AtomId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an existing name.
    pub fn lookup(&self, name: &str) -> Result<AtomId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| LogicError::UnknownAtom(name.to_owned()))
    }

    /// Returns the name of `id`, if it is in range.
    pub fn name(&self, id: AtomId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Drops every atom whose id is `len` or above. Ids are dense, so
    /// only a suffix of the table can go.
    pub fn truncate(&mut self, len: usize) {
        if len < self.names.len() {
            for name in self.names.drain(len..) {
                self.by_name.remove(&name);
            }
        }
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no atoms have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over `(id, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AtomId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = AtomTable::new();
        let a = t.intern("A1");
        let b = t.intern("A1");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn truncate_forgets_the_suffix() {
        let mut t = AtomTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        t.truncate(1);
        assert_eq!(t.len(), 1);
        assert!(t.lookup("b").is_err());
        assert_eq!(t.intern("c"), AtomId(1));
        t.truncate(5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut t = AtomTable::new();
        let a = t.intern("x");
        let b = t.intern("y");
        let c = t.intern("z");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert!(a < b && b < c);
    }

    #[test]
    fn lookup_known_and_unknown() {
        let mut t = AtomTable::new();
        let a = t.intern("p");
        assert_eq!(t.lookup("p").unwrap(), a);
        assert_eq!(
            t.lookup("q").unwrap_err(),
            LogicError::UnknownAtom("q".into())
        );
    }

    #[test]
    fn indexed_atoms_use_paper_names() {
        let t = AtomTable::with_indexed_atoms(3);
        assert_eq!(t.name(AtomId(0)), Some("A1"));
        assert_eq!(t.name(AtomId(2)), Some("A3"));
        assert_eq!(t.name(AtomId(3)), None);
    }

    #[test]
    fn default_name_is_one_indexed() {
        assert_eq!(AtomId(0).default_name(), "A1");
        assert_eq!(AtomId(41).to_string(), "A42");
    }

    #[test]
    fn iter_yields_in_order() {
        let t = AtomTable::with_indexed_atoms(2);
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v, vec![(AtomId(0), "A1"), (AtomId(1), "A2")]);
    }
}
