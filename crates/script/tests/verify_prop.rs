//! Compiler/verifier agreement properties: every compiled form the
//! compiler emits must pass independent bytecode verification. (Hostile
//! bytecode — single-operand and cost mutants of these same
//! programs — is covered in-crate, next to the verifier, because only the
//! crate can edit a compiled form.)
//!
//! The random programs come from the same seeded generator the
//! interpreter/VM differential battery sweeps (`tests/common/mod.rs`),
//! so the verifier is exercised over the identical program distribution
//! that the execution-equivalence evidence covers. `MROM_DIFF_SEEDS`
//! widens the sweep in CI exactly as it does for the differential tests.

use mrom_script::{verify, Program};
use proptest::prelude::*;

mod common;
use common::GenCtx;

fn sweep_seeds() -> u64 {
    std::env::var("MROM_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// The hand corpus: the same shapes the differential battery pins, plus
/// verifier-relevant extremes (empty body, loop control, deep nesting).
const CORPUS: &[&str] = &[
    "return null;",
    "param a; return a + 1;",
    "let x = 0; while (x < 5) { let x = x + 1; } return x;",
    "let i = 0; while (true) { let i = i + 1; if (i > 3) { break; } continue; } return i;",
    "param who; return self.get(\"greeting\") + \", \" + who;",
    "self.set(\"n\", self.get(\"n\") + 1); return self.get(\"n\");",
    "let m = {\"a\": 1, \"b\": [1, 2, 3]}; return m[\"b\"][2];",
    "param k; return self.invoke(k, []);",
    "self.add_method(\"x\", \"return 1;\"); return null;",
    "if (1 < 2) { return \"yes\"; } else { return \"no\"; }",
    "let acc = 0; let xs = [1, 2, 3, 4]; let i = 0; \
     while (i < len(xs)) { let acc = acc + xs[i]; let i = i + 1; } return acc;",
];

#[test]
fn every_compiled_program_verifies_cleanly() {
    for (i, src) in CORPUS.iter().enumerate() {
        let p = Program::parse(src).unwrap_or_else(|e| panic!("corpus {i}: {e}"));
        verify(&p.compiled()).unwrap_or_else(|e| panic!("corpus {i} failed verification: {e}"));
    }
    for seed in 0..sweep_seeds() {
        let p = GenCtx::program(seed);
        verify(&p.compiled()).unwrap_or_else(|e| panic!("seed {seed} failed verification: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiler→verifier agreement over proptest-driven seeds (beyond
    /// the fixed sweep): whatever the compiler emits, the independent
    /// abstract interpreter accepts.
    #[test]
    fn random_programs_compile_to_verified_bytecode(seed in 0u64..1_000_000) {
        let p = GenCtx::program(seed);
        prop_assert!(verify(&p.compiled()).is_ok(), "seed {seed} must verify");
    }
}
