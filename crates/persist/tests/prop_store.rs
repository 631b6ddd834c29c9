//! Model-based property tests: the file store must behave exactly like a
//! simple in-memory map under arbitrary operation sequences, including
//! across reopen (crash/restart) boundaries and compactions.

use std::collections::BTreeMap;

use mrom_persist::{BlobStore, FileStore};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(String, Vec<u8>),
    Delete(String),
    Reopen,
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let key = "[a-d]{1,2}"; // small key space to force collisions
    prop_oneof![
        4 => (key, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k, v)),
        2 => key.prop_map(Op::Delete),
        1 => Just(Op::Reopen),
        1 => Just(Op::Compact),
    ]
}

fn fresh_path(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mrom-prop-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("log-{tag}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The file store agrees with a map model under arbitrary op
    /// sequences with interleaved reopens and compactions.
    #[test]
    fn file_store_matches_model(ops in prop::collection::vec(arb_op(), 0..40), tag in any::<u64>()) {
        let path = fresh_path(tag);
        let _ = std::fs::remove_file(&path);
        let mut store = FileStore::open(&path).expect("open");
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    store.put(k, v).expect("put");
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    let existed = store.delete(k).expect("delete");
                    prop_assert_eq!(existed, model.remove(k).is_some());
                }
                Op::Reopen => {
                    drop(store);
                    store = FileStore::open(&path).expect("reopen");
                }
                Op::Compact => {
                    store.compact().expect("compact");
                    prop_assert_eq!(store.garbage_bytes(), 0);
                }
            }
            // Full-state agreement after every step.
            prop_assert_eq!(store.keys(), model.keys().cloned().collect::<Vec<_>>());
            if let Op::Put(k, _) | Op::Delete(k) = op {
                prop_assert_eq!(store.contains(k), model.contains_key(k));
            }
            for (k, v) in &model {
                let stored = store.get(k).expect("get");
                prop_assert_eq!(stored.as_deref(), Some(v.as_slice()));
            }
        }
        drop(store);
        // One final restart must recover the exact model.
        let store = FileStore::open(&path).expect("final reopen");
        prop_assert_eq!(store.keys(), model.keys().cloned().collect::<Vec<_>>());
        let _ = std::fs::remove_file(&path);
    }

    /// Chopping any number of bytes off the log tail never breaks earlier
    /// records: the store recovers a prefix of the model history.
    #[test]
    fn torn_tails_recover_a_prefix(
        puts in prop::collection::vec((("k[0-9]"), prop::collection::vec(any::<u8>(), 1..32)), 1..10),
        chop in 1usize..40,
        tag in any::<u64>(),
    ) {
        let path = fresh_path(tag.wrapping_add(1));
        let _ = std::fs::remove_file(&path);
        {
            let mut store = FileStore::open(&path).expect("open");
            for (k, v) in &puts {
                store.put(k, v).expect("put");
            }
        }
        let len = std::fs::metadata(&path).expect("meta").len();
        let new_len = len.saturating_sub(chop as u64);
        let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open for chop");
        f.set_len(new_len).expect("truncate");
        drop(f);

        // Recovery must not panic, and every surviving key maps to a value
        // it held at *some* point in history (prefix consistency).
        let store = FileStore::open(&path).expect("recover");
        for key in store.keys() {
            let got = store.get(&key).expect("get").expect("present");
            let held: Vec<&Vec<u8>> = puts
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .collect();
            prop_assert!(
                held.iter().any(|v| **v == got),
                "key {} recovered to a value never written",
                key
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
