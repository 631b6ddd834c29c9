//! Decentralized object identity.
//!
//! The paper requires "built-in decentralized mechanisms for assigning
//! distinct names for objects" — no central registry may be involved,
//! because the universe of objects is unbounded and widely dispersed.
//!
//! An [`ObjectId`] is a 128-bit triple `(node, seq, entropy)`:
//!
//! * `node` — 64-bit identifier of the node that *created* the object.
//!   Nodes pick their identifiers independently (in deployment: hash of
//!   address + boot time; in the simulator: assigned by the scenario).
//! * `seq`  — 32-bit per-node creation counter.
//! * `entropy` — 32 bits drawn from the generator's stream, protecting
//!   against node-id reuse after restarts.
//!
//! Two generators with distinct node ids can never collide; a single
//! generator never repeats. Identity is *location independent*: an object
//! keeps its id as it migrates.

use std::fmt;
use std::str::FromStr;

use crate::error::ValueError;

/// Identifier of a node (a site / host) in the object universe.
///
/// Newtype over `u64` so node ids cannot be confused with sequence numbers
/// or arbitrary integers.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{:x}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

/// Globally unique, decentralized, location-independent object identity.
///
/// # Example
///
/// ```
/// use mrom_value::{IdGenerator, NodeId};
///
/// let mut gen_a = IdGenerator::new(NodeId(1));
/// let mut gen_b = IdGenerator::new(NodeId(2));
/// let a = gen_a.next_id();
/// let b = gen_b.next_id();
/// assert_ne!(a, b);
/// assert_eq!(a.node(), NodeId(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ObjectId {
    node: NodeId,
    seq: u32,
    entropy: u32,
}

impl ObjectId {
    /// The reserved identity of "the system itself" — used as the caller
    /// principal for host-initiated operations before any object exists.
    pub const SYSTEM: ObjectId = ObjectId {
        node: NodeId(0),
        seq: 0,
        entropy: 0,
    };

    /// Assembles an id from raw parts. Prefer [`IdGenerator::next_id`];
    /// this constructor exists for deserialization and tests.
    pub fn from_parts(node: NodeId, seq: u32, entropy: u32) -> Self {
        ObjectId { node, seq, entropy }
    }

    /// The node on which this object was created.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The per-node creation sequence number.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// The anti-reuse entropy word.
    pub fn entropy(&self) -> u32 {
        self.entropy
    }

    /// Packs the identity into 16 bytes (big-endian `node, seq, entropy`).
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.node.0.to_be_bytes());
        out[8..12].copy_from_slice(&self.seq.to_be_bytes());
        out[12..].copy_from_slice(&self.entropy.to_be_bytes());
        out
    }

    /// Rebuilds an identity from [`ObjectId::to_bytes`] output.
    pub fn from_bytes(raw: [u8; 16]) -> Self {
        let node = u64::from_be_bytes(raw[..8].try_into().expect("8 bytes"));
        let seq = u32::from_be_bytes(raw[8..12].try_into().expect("4 bytes"));
        let entropy = u32::from_be_bytes(raw[12..].try_into().expect("4 bytes"));
        ObjectId::from_parts(NodeId(node), seq, entropy)
    }
}

/// The length of an id's text form, `{node:016x}-{seq:08x}-{entropy:08x}`.
pub(crate) const TEXT_LEN: usize = 34;

impl ObjectId {
    /// The text form's bytes, built on the stack: ASCII hex digits and
    /// two dashes.
    pub(crate) fn text(&self) -> [u8; TEXT_LEN] {
        let mut buf = [b'-'; TEXT_LEN];
        hex_into(&mut buf[..16], self.node.0);
        hex_into(&mut buf[17..25], u64::from(self.seq));
        hex_into(&mut buf[26..], u64::from(self.entropy));
        buf
    }
}

impl fmt::Display for ObjectId {
    /// Writes the 34-character text with one `write_str` from a stack
    /// buffer, so `to_string` (a depot key) is one exact allocation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&self.text()).map_err(|_| fmt::Error)?)
    }
}

/// Fills `out` with the low `out.len()` hex digits of `x`, zero-padded,
/// most significant first.
fn hex_into(out: &mut [u8], mut x: u64) {
    for digit in out.iter_mut().rev() {
        *digit = b"0123456789abcdef"[(x & 0xf) as usize];
        x >>= 4;
    }
}

impl FromStr for ObjectId {
    type Err = ValueError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('-');
        let (Some(a), Some(b), Some(c), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(ValueError::Malformed(format!(
                "object id must have three dash-separated fields, got {s:?}"
            )));
        };
        let node = u64::from_str_radix(a, 16)
            .map_err(|e| ValueError::Malformed(format!("bad node field {a:?}: {e}")))?;
        let seq = u32::from_str_radix(b, 16)
            .map_err(|e| ValueError::Malformed(format!("bad seq field {b:?}: {e}")))?;
        let entropy = u32::from_str_radix(c, 16)
            .map_err(|e| ValueError::Malformed(format!("bad entropy field {c:?}: {e}")))?;
        Ok(ObjectId::from_parts(NodeId(node), seq, entropy))
    }
}

/// Per-node generator of [`ObjectId`]s.
///
/// Each node owns exactly one generator. The entropy stream is a small
/// xorshift PRNG seeded from the node id, so generation is deterministic
/// within a simulation run while still exercising the anti-reuse word.
#[derive(Debug, Clone)]
pub struct IdGenerator {
    node: NodeId,
    next_seq: u32,
    rng_state: u64,
}

impl IdGenerator {
    /// Creates a generator for `node` with a seed derived from the node id.
    pub fn new(node: NodeId) -> Self {
        Self::with_seed(node, node.0 ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Creates a generator with an explicit entropy seed (e.g. boot time in
    /// deployment, scenario seed in simulation).
    pub fn with_seed(node: NodeId, seed: u64) -> Self {
        IdGenerator {
            node,
            next_seq: 1,
            // xorshift must not start at 0
            rng_state: seed | 1,
        }
    }

    /// The node this generator mints identities for.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Mints the next identity.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` identities are minted from one
    /// generator (2^32 objects on a single node exceeds any simulated run).
    pub fn next_id(&mut self) -> ObjectId {
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("object id sequence exhausted on this node");
        // xorshift64
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        ObjectId::from_parts(self.node, seq, (x >> 32) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_from_one_generator_are_distinct() {
        let mut g = IdGenerator::new(NodeId(7));
        let ids: HashSet<_> = (0..10_000).map(|_| g.next_id()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn ids_from_distinct_nodes_never_collide() {
        let mut a = IdGenerator::new(NodeId(1));
        let mut b = IdGenerator::new(NodeId(2));
        for _ in 0..1000 {
            assert_ne!(a.next_id(), b.next_id());
        }
    }

    #[test]
    fn same_node_same_seed_is_deterministic() {
        let mut a = IdGenerator::with_seed(NodeId(3), 42);
        let mut b = IdGenerator::with_seed(NodeId(3), 42);
        for _ in 0..100 {
            assert_eq!(a.next_id(), b.next_id());
        }
    }

    #[test]
    fn byte_round_trip() {
        let mut g = IdGenerator::new(NodeId(0xdead_beef));
        for _ in 0..100 {
            let id = g.next_id();
            assert_eq!(ObjectId::from_bytes(id.to_bytes()), id);
        }
    }

    #[test]
    fn string_round_trip() {
        let mut g = IdGenerator::new(NodeId(9));
        for _ in 0..100 {
            let id = g.next_id();
            let parsed: ObjectId = id.to_string().parse().expect("parse");
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not-an-id-at-all-really".parse::<ObjectId>().is_err());
        assert!("".parse::<ObjectId>().is_err());
        assert!("12".parse::<ObjectId>().is_err());
        assert!("zz-1-1".parse::<ObjectId>().is_err());
    }

    #[test]
    fn system_id_is_stable() {
        assert_eq!(ObjectId::SYSTEM.node(), NodeId(0));
        assert_eq!(ObjectId::SYSTEM.seq(), 0);
    }

    /// The `format!` spelling the one-write `Display` replaced, kept as
    /// its oracle.
    fn oracle(id: ObjectId) -> String {
        format!("{:016x}-{:08x}-{:08x}", id.node.0, id.seq, id.entropy)
    }

    #[test]
    fn display_matches_the_format_oracle_and_round_trips() {
        let mut ids = vec![
            ObjectId::SYSTEM,
            ObjectId::from_parts(NodeId(u64::MAX), u32::MAX, u32::MAX),
            ObjectId::from_parts(NodeId(u64::MAX), 0, 0),
            ObjectId::from_parts(NodeId(0), u32::MAX, 0),
            ObjectId::from_parts(NodeId(0), 0, u32::MAX),
            ObjectId::from_parts(NodeId(u64::from(u32::MAX)), u32::MAX, 1),
        ];
        let mut g = IdGenerator::with_seed(NodeId(0x0123_4567_89ab_cdef), 1997);
        ids.extend((0..1000).map(|_| g.next_id()));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1000 {
            // splitmix64: whole-range node, seq and entropy words.
            let mut next = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let (node, words) = (next(), next());
            ids.push(ObjectId::from_parts(
                NodeId(node),
                (words >> 32) as u32,
                words as u32,
            ));
        }
        for id in ids {
            let text = id.to_string();
            assert_eq!(text, oracle(id));
            assert_eq!((text.len(), text.capacity()), (TEXT_LEN, TEXT_LEN));
            assert_eq!(text.parse::<ObjectId>().expect("parse"), id);
        }
    }

    #[test]
    fn display_is_nonempty_and_parseable() {
        let id = ObjectId::from_parts(NodeId(1), 2, 3);
        let s = id.to_string();
        assert_eq!(s, "0000000000000001-00000002-00000003");
    }
}
