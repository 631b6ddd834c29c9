//! Shared fixed-method tables and the per-site code table that interns
//! them.
//!
//! The paper freezes an object's fixed section for its lifetime, and in
//! HADAS the Ambassadors of one APO all carry the same code. So every
//! object stamped from one class, or arriving with the same fixed-method
//! bytes, holds one `Arc`-shared [`MethodTable`], and everything that
//! depends only on those methods hangs off the table: the canonical
//! image bytes and the solved effect table, computed at most once, and
//! the script-level admission reports (passes 1–3; pass 4 reads the
//! object and runs per object), kept from the table's second admission. The parsed programs are shared too, so
//! their compiled bytecode is built and verified once.
//!
//! A site's [`CodeTable`] maps the exact `fixed_methods` bytes of an
//! arriving image to the table they decoded to. The key is content,
//! never a method or class name: a changed body misses. It is bounded by
//! [`CODE_TABLE_ENTRIES`] and [`CODE_TABLE_BYTES`] and evicts in arrival
//! order, so its counters are a pure function of the arrivals.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use mrom_script::analyze::AnalysisReport;
use mrom_script::EffectSignature;
use mrom_value::wire::{self, ValidatedSpan};

use crate::container::FixedContainer;
use crate::method::Method;

/// Most fixed-method tables one site's code table holds. Small on
/// purpose: each held table keeps its programs, bytecode and reports
/// resident, and a larger table slows arrivals whose sections never
/// repeat (E21's every-section-distinct run) for no gain where they do.
pub const CODE_TABLE_ENTRIES: usize = 16;

/// Most `fixed_methods` image bytes one site's code table holds, summed
/// over its spans. A section larger than this is decoded but not kept.
pub const CODE_TABLE_BYTES: usize = 256 << 10;

/// An object's sealed fixed-method section plus the memos that depend on
/// it alone. Immutable once built; shared behind an `Arc`.
#[derive(Debug, Default)]
pub(crate) struct MethodTable {
    methods: FixedContainer<Method>,
    /// The `fixed_methods` value of the image, or the name of the first
    /// method (in name order) that cannot travel.
    encoded: OnceLock<Result<Box<[u8]>, String>>,
    /// `(context, report)` per script part, default budget, in the order
    /// admission visits them; kept from a table's second admission on.
    reports: OnceLock<Box<[(String, AnalysisReport)]>>,
    /// A default-budget admission has run over this table.
    admitted: AtomicBool,
    effects: OnceLock<Arc<BTreeMap<String, EffectSignature>>>,
}

impl MethodTable {
    pub(crate) fn new(methods: FixedContainer<Method>) -> MethodTable {
        MethodTable {
            methods,
            ..MethodTable::default()
        }
    }

    /// The canonical wire body of the image's `fixed_methods` map.
    ///
    /// # Errors
    ///
    /// The name of the first method carrying a native body.
    pub(crate) fn encoded(&self) -> Result<&[u8], &str> {
        self.encoded
            .get_or_init(|| {
                if let Some((name, _)) = self.methods.iter().find(|(_, m)| !m.is_mobile()) {
                    return Err(name.to_owned());
                }
                let mut out = Vec::new();
                wire::write_map_header(self.methods.len(), &mut out);
                for (name, m) in self.methods.iter() {
                    wire::write_str(name, &mut out);
                    wire::encode_value(&m.descriptor(), &mut out);
                }
                Ok(out.into_boxed_slice())
            })
            .as_deref()
            .map_err(String::as_str)
    }

    /// Passes 1–3 of admission over every script part, default budget,
    /// for a table admitted before; `None` the first time.
    ///
    /// A table admitted once (an image decoded without a code table, or a
    /// section no site sees twice) gains nothing from keeping its
    /// reports, and keeping them measurably slows that cold path (E21).
    pub(crate) fn reports(&self) -> Option<&[(String, AnalysisReport)]> {
        if !self.admitted.swap(true, Ordering::Relaxed) {
            return None;
        }
        Some(
            self.reports
                .get_or_init(|| crate::admission::script_reports(self.methods.iter()).into()),
        )
    }

    /// The effect table of an object whose only methods are these.
    pub(crate) fn effects(&self) -> Arc<BTreeMap<String, EffectSignature>> {
        Arc::clone(
            self.effects
                .get_or_init(|| Arc::new(crate::effects::solve_methods(self.methods.iter()))),
        )
    }

    /// The memoized effect table, if already solved.
    pub(crate) fn effects_if_cached(&self) -> Option<Arc<BTreeMap<String, EffectSignature>>> {
        self.effects.get().cloned()
    }
}

impl Deref for MethodTable {
    type Target = FixedContainer<Method>;

    fn deref(&self) -> &FixedContainer<Method> {
        &self.methods
    }
}

/// A site's bounded intern table: exact `fixed_methods` bytes → table.
///
/// Each span is held with a randomly keyed hash of its bytes. An arriving
/// section is probed by hashing its leading bytes at each held span's
/// length (no parse is needed to find where it ends), and a hit needs the
/// bytes to match exactly. The probe is bounded by the caps.
#[derive(Debug, Default)]
pub(crate) struct CodeTable {
    hasher: RandomState,
    /// Interned spans, their hashes and tables, oldest first.
    entries: VecDeque<(ValidatedSpan, u64, Arc<MethodTable>)>,
    bytes: usize,
}

impl CodeTable {
    /// The interned span that `ahead` (an arriving value's bytes and
    /// whatever follows them) begins with, and its table.
    pub(crate) fn find(&self, ahead: &[u8]) -> Option<(ValidatedSpan, Arc<MethodTable>)> {
        // One hash per distinct held length.
        let mut hashed: Vec<(usize, u64)> = Vec::new();
        self.entries
            .iter()
            .find(|(span, hash, _)| {
                let len = span.as_bytes().len();
                let Some(lead) = ahead.get(..len) else {
                    return false;
                };
                let lead_hash = match hashed.iter().find(|(l, _)| *l == len) {
                    Some(&(_, h)) => h,
                    None => {
                        let h = self.hasher.hash_one(lead);
                        hashed.push((len, h));
                        h
                    }
                };
                lead_hash == *hash && lead == span.as_bytes()
            })
            .map(|(span, _, table)| (span.clone(), Arc::clone(table)))
    }

    /// Interns `table` under `span`, evicting the oldest entries beyond
    /// the caps. Returns the number evicted.
    pub(crate) fn insert(&mut self, span: ValidatedSpan, table: &Arc<MethodTable>) -> usize {
        let len = span.as_bytes().len();
        let hash = self.hasher.hash_one(span.as_bytes());
        let held = |(s, h, _): &(ValidatedSpan, u64, _)| *h == hash && *s == span;
        if len > CODE_TABLE_BYTES || self.entries.iter().any(held) {
            return 0;
        }
        let mut evicted = 0;
        while self.entries.len() >= CODE_TABLE_ENTRIES || self.bytes + len > CODE_TABLE_BYTES {
            let (old, _, _) = self.entries.pop_front().expect("a full table has entries");
            self.bytes -= old.as_bytes().len();
            evicted += 1;
        }
        self.entries.push_back((span, hash, Arc::clone(table)));
        self.bytes += len;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodBody;
    use mrom_value::Value;

    fn table(src: &str) -> Arc<MethodTable> {
        let m = Method::public(MethodBody::script(src).unwrap());
        Arc::new(MethodTable::new(FixedContainer::build([("m".into(), m)])))
    }

    /// A validated span of `bytes` (a `Value::Bytes` map value), and the
    /// same span arriving in a fresh image.
    fn span(bytes: &[u8]) -> ValidatedSpan {
        let image = wire::encode(&Value::map([("k", Value::Bytes(bytes.to_vec()))]));
        let mut map = wire::MapReader::framed(&image).unwrap();
        let (_, value) = map.next_entry().unwrap().unwrap();
        value.value_and_span().unwrap().1
    }

    fn find(code: &CodeTable, bytes: &[u8]) -> Option<Arc<MethodTable>> {
        let image = wire::encode(&Value::map([("k", Value::Bytes(bytes.to_vec()))]));
        let mut map = wire::MapReader::framed(&image).unwrap();
        let (_, value) = map.next_entry().unwrap().unwrap();
        code.find(value.ahead()).map(|(_, table)| table)
    }

    #[test]
    fn hits_need_exact_bytes_and_eviction_is_fifo() {
        let mut code = CodeTable::default();
        let t = table("return 1;");
        assert_eq!(code.insert(span(b"a"), &t), 0);
        assert!(find(&code, b"a").is_some_and(|hit| Arc::ptr_eq(&hit, &t)));
        assert!(find(&code, b"a ").is_none());
        assert!(find(&code, b"").is_none());
        for i in 1..CODE_TABLE_ENTRIES {
            assert_eq!(code.insert(span(format!("k{i}").as_bytes()), &t), 0);
        }
        assert_eq!(code.insert(span(b"next"), &t), 1, "the cap evicts one");
        assert!(find(&code, b"a").is_none(), "the oldest went first");
        assert!(find(&code, b"k1").is_some());
        assert_eq!(code.insert(span(b"next"), &t), 0, "already interned");
        assert_eq!(code.entries.len(), CODE_TABLE_ENTRIES);
    }

    #[test]
    fn the_byte_cap_bounds_the_spans() {
        let mut code = CodeTable::default();
        let t = table("return 1;");
        let half = vec![1u8; CODE_TABLE_BYTES / 2 - 8];
        let mut other = half.clone();
        other[0] = 2;
        let mut third = half.clone();
        third[0] = 3;
        assert_eq!(code.insert(span(&half), &t), 0);
        assert_eq!(code.insert(span(&other), &t), 0);
        assert_eq!(code.insert(span(&third), &t), 1);
        assert!(find(&code, &half).is_none() && find(&code, &third).is_some());
        assert_eq!(code.insert(span(&vec![0u8; CODE_TABLE_BYTES]), &t), 0);
        assert_eq!(code.entries.len(), 2, "an oversized section is not kept");
    }

    #[test]
    fn encoded_names_the_first_native_method() {
        let native = Method::public(MethodBody::native(|_, _| Ok(Value::Null)));
        let script = Method::public(MethodBody::script("return 1;").unwrap());
        let t = MethodTable::new(FixedContainer::build([
            ("b".into(), native.clone()),
            ("c".into(), native),
            ("a".into(), script),
        ]));
        assert_eq!(t.encoded(), Err("b"));
    }
}
