//! String interning for the simulation hot path.
//!
//! Fleet-scale replays dispatch millions of events. The [`Interner`] maps
//! each distinct name to a dense [`Sym`] (`u32`) once at registration
//! time, so the future-event list moves `Copy`-able ids and indexes `Vec`
//! tables directly instead of hashing a string per event.
//!
//! Names themselves are allocated once, as the `Arc<str>` the workflow's
//! DAG holds. The interner keys its map with clones of those `Arc`s, and
//! everything that outlives an event (workers, results, bus events, trace
//! steps) clones the same `Arc` from the DAG rather than copying the
//! string, so reporting a name never allocates.
//!
//! Ids are assigned in insertion order, so a simulation that registers its
//! workflows in a deterministic order gets deterministic ids — interning
//! never perturbs reproducibility.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use xanadu_simcore::Interner;
//!
//! let (checkout, thumbnail): (Arc<str>, Arc<str>) = ("checkout".into(), "thumbnail".into());
//! let mut names = Interner::new();
//! let a = names.intern(&checkout);
//! let b = names.intern(&thumbnail);
//! assert_eq!(names.intern(&checkout), a); // idempotent
//! assert_eq!(a.index(), 0);
//! assert_eq!(b.index(), 1);
//! assert_eq!(names.get("thumbnail"), Some(b));
//! assert_eq!(names.get("missing"), None);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

/// A dense interned-string id.
///
/// `Sym`s are plain `u32` ids, handed out by their [`Interner`] in
/// insertion order starting at 0 — suitable for direct `Vec` indexing via
/// [`Sym::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Builds a `Sym` from a raw table index.
    pub fn from_index(index: usize) -> Self {
        Sym(index as u32)
    }

    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// An insertion-ordered string interner with dense `u32` ids.
///
/// Lookups by name hash once. The map holds clones of the caller's
/// `Arc<str>`, so interning a new name allocates a table slot but never
/// a string. The intended use is one interner per simulation, owned by
/// the platform.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    ids: HashMap<Arc<str>, Sym>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Repeated calls with the same name
    /// return the same id; new names get the next dense index and keep a
    /// clone of `name`'s `Arc`.
    pub fn intern(&mut self, name: &Arc<str>) -> Sym {
        if let Some(&sym) = self.ids.get(&**name) {
            return sym;
        }
        let sym = Sym(self.ids.len() as u32);
        self.ids.insert(Arc::clone(name), sym);
        sym
    }

    /// The id of an already-interned name, or `None`.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.ids.get(name).copied()
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn ids_are_dense_and_insertion_ordered() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["a", "b", "c"].iter().map(|n| i.intern(&name(n))).collect();
        assert_eq!(
            syms.iter().map(|s| s.index()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let a = i.intern(&name("x"));
        let b = i.intern(&name("y"));
        assert_eq!(i.intern(&name("x")), a);
        assert_eq!(i.intern(&name("y")), b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("x"), Some(a));
        assert_eq!(i.get("y"), Some(b));
        assert_eq!(i.get("absent"), None);
    }
}
