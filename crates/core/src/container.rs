//! Item containers — the fixed/extensible split.
//!
//! Each MROM object holds four containers: fixed data, fixed methods,
//! extensible data, extensible methods (paper §4). The fixed pair is sealed
//! at construction — its structure is the stable basis for specialization —
//! while the extensible pair supports add/remove/replace at runtime.
//!
//! The representations also embody the paper's §3 performance observation
//! ("in static structures the location is determined at compile time as a
//! fixed offset"): a [`FixedContainer`] is a sorted array built once and
//! probed by binary search (and its slots can be cached by index), whereas
//! an [`ExtensibleContainer`] is an ordered map that must be searched on
//! every access because its shape can change under the caller's feet.

use std::collections::BTreeMap;

/// Which section of the object an item lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// The immutable core: guaranteed structure, usable for specialization.
    Fixed,
    /// The mutable adaptation surface: no long-term structural guarantees.
    Extensible,
}

impl Section {
    /// Lowercase name for descriptors (`"fixed"` / `"extensible"`).
    pub fn name(&self) -> &'static str {
        match self {
            Section::Fixed => "fixed",
            Section::Extensible => "extensible",
        }
    }
}

/// A sealed name→item table: sorted storage probed by binary search.
///
/// Built through [`FixedContainer::build`]; no mutation of the *structure*
/// is possible afterwards — which is exactly what makes every slot index
/// stable for the object's lifetime, the same way a compiler turns a
/// static layout into fixed offsets (callers cache the index from
/// [`FixedContainer::index_of`] and reuse it via
/// [`FixedContainer::get_by_index`]). Values themselves stay reachable
/// mutably — a fixed **data** item's *value* is writable (subject to ACL);
/// it is the set of names and their properties that is frozen.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedContainer<T> {
    names: Vec<String>,
    values: Vec<T>,
}

impl<T> FixedContainer<T> {
    /// Builds a sealed container from `(name, item)` pairs.
    ///
    /// Later duplicates replace earlier ones (the subclass-constructor
    /// copy-then-override pattern of static specialization relies on this).
    pub fn build<I: IntoIterator<Item = (String, T)>>(entries: I) -> FixedContainer<T> {
        let mut map: BTreeMap<String, T> = BTreeMap::new();
        for (name, item) in entries {
            map.insert(name, item);
        }
        let mut names = Vec::with_capacity(map.len());
        let mut values = Vec::with_capacity(map.len());
        for (name, item) in map {
            names.push(name);
            values.push(item);
        }
        FixedContainer { names, values }
    }

    /// An empty sealed container.
    pub fn empty() -> FixedContainer<T> {
        FixedContainer {
            names: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the container holds no items.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Index of `name`, if present. The index is stable for the object's
    /// lifetime — the "fixed offset" the paper contrasts with dynamic
    /// lookup — so callers may cache it and skip this probe entirely.
    #[inline]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names
            .binary_search_by(|probe| probe.as_str().cmp(name))
            .ok()
    }

    /// Looks an item up by name.
    pub fn get(&self, name: &str) -> Option<&T> {
        self.index_of(name).map(|i| &self.values[i])
    }

    /// Mutable lookup (value writes on fixed data items).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut T> {
        self.index_of(name).map(move |i| &mut self.values[i])
    }

    /// Direct access by stable index.
    pub fn get_by_index(&self, index: usize) -> Option<&T> {
        self.values.get(index)
    }

    /// `true` if `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Iterates `(name, item)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter())
    }

    /// The item names, sorted.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

impl<T> Default for FixedContainer<T> {
    fn default() -> Self {
        FixedContainer::empty()
    }
}

impl<T> FromIterator<(String, T)> for FixedContainer<T> {
    fn from_iter<I: IntoIterator<Item = (String, T)>>(iter: I) -> Self {
        FixedContainer::build(iter)
    }
}

/// A runtime-mutable name→item table.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensibleContainer<T> {
    map: BTreeMap<String, T>,
}

impl<T> ExtensibleContainer<T> {
    /// An empty container.
    pub fn new() -> ExtensibleContainer<T> {
        ExtensibleContainer {
            map: BTreeMap::new(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the container holds no items.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks an item up by name.
    pub fn get(&self, name: &str) -> Option<&T> {
        self.map.get(name)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut T> {
        self.map.get_mut(name)
    }

    /// `true` if `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Inserts a new item. Returns `false` (and leaves the container
    /// unchanged) when the name is taken — `addDataItem`/`addMethod` must
    /// not silently replace; replacement is `set`'s job.
    pub fn insert(&mut self, name: String, item: T) -> bool {
        use std::collections::btree_map::Entry;
        match self.map.entry(name) {
            Entry::Vacant(slot) => {
                slot.insert(item);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Replaces an existing item, returning the old one; `None` when the
    /// name is absent (nothing inserted).
    pub fn replace(&mut self, name: &str, item: T) -> Option<T> {
        self.map
            .get_mut(name)
            .map(|slot| std::mem::replace(slot, item))
    }

    /// Removes an item by name.
    pub fn remove(&mut self, name: &str) -> Option<T> {
        self.map.remove(name)
    }

    /// Iterates `(name, item)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The item names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(String::as_str).collect()
    }
}

impl<T> Default for ExtensibleContainer<T> {
    fn default() -> Self {
        ExtensibleContainer::new()
    }
}

impl<T> FromIterator<(String, T)> for ExtensibleContainer<T> {
    fn from_iter<I: IntoIterator<Item = (String, T)>>(iter: I) -> Self {
        ExtensibleContainer {
            map: iter.into_iter().collect(),
        }
    }
}

impl<T> Extend<(String, T)> for ExtensibleContainer<T> {
    fn extend<I: IntoIterator<Item = (String, T)>>(&mut self, iter: I) {
        self.map.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_container_lookup() {
        let c: FixedContainer<i32> = [
            ("b".to_owned(), 2),
            ("a".to_owned(), 1),
            ("c".to_owned(), 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.get("c"), Some(&3));
        assert_eq!(c.get("z"), None);
        assert!(c.contains("b"));
        // Names are sorted; indexes are stable.
        assert_eq!(c.names(), ["a", "b", "c"]);
        assert_eq!(c.index_of("b"), Some(1));
        assert_eq!(c.get_by_index(1), Some(&2));
        assert_eq!(c.get_by_index(9), None);
    }

    #[test]
    fn fixed_build_later_duplicates_win() {
        let c = FixedContainer::build([("x".to_owned(), 1), ("x".to_owned(), 2)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("x"), Some(&2));
    }

    #[test]
    fn fixed_values_stay_mutable() {
        let mut c = FixedContainer::build([("x".to_owned(), 1)]);
        *c.get_mut("x").unwrap() = 9;
        assert_eq!(c.get("x"), Some(&9));
    }

    #[test]
    fn fixed_empty() {
        let c: FixedContainer<i32> = FixedContainer::empty();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
        assert_eq!(FixedContainer::<i32>::default(), c);
    }

    #[test]
    fn extensible_insert_rejects_duplicates() {
        let mut c = ExtensibleContainer::new();
        assert!(c.insert("x".into(), 1));
        assert!(!c.insert("x".into(), 2));
        assert_eq!(c.get("x"), Some(&1));
    }

    #[test]
    fn extensible_replace_requires_presence() {
        let mut c = ExtensibleContainer::new();
        assert_eq!(c.replace("x", 5), None);
        assert!(!c.contains("x"));
        c.insert("x".into(), 1);
        assert_eq!(c.replace("x", 5), Some(1));
        assert_eq!(c.get("x"), Some(&5));
    }

    #[test]
    fn extensible_remove() {
        let mut c = ExtensibleContainer::new();
        c.insert("x".into(), 1);
        assert_eq!(c.remove("x"), Some(1));
        assert_eq!(c.remove("x"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn extensible_iteration_in_name_order() {
        let mut c = ExtensibleContainer::new();
        c.insert("z".into(), 26);
        c.insert("a".into(), 1);
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "z"]);
        assert_eq!(c.names(), ["a", "z"]);
    }

    #[test]
    fn section_names() {
        assert_eq!(Section::Fixed.name(), "fixed");
        assert_eq!(Section::Extensible.name(), "extensible");
    }
}
