//! # mrom-value
//!
//! The dynamic value system underlying the MROM reproduction (Holder &
//! Ben-Shaul, *A Reflective Model for Mobile Software Objects*, ICDCS '97).
//!
//! MROM is *weakly typed*: method parameters and data items carry untyped
//! values whose interpretation is finalized at runtime, and the model
//! provides *generic coercion* between representations (the paper's example
//! is turning a value "represented as HTML text into an integer, when an
//! arithmetic operation should be performed on that value").
//!
//! This crate provides:
//!
//! * [`Value`] — the dynamic value tree ([`Value::Null`], booleans, integers,
//!   floats, strings, byte strings, lists, maps, and [`ObjectId`]
//!   references);
//! * [`ValueKind`] — the runtime type tags, used for dynamic type
//!   constraints and coercion targets;
//! * [`Value::coerce`] — the generic coercion engine (including HTML text →
//!   number);
//! * [`ObjectId`] / [`IdGenerator`] — decentralized identity and naming, the
//!   paper's "built-in decentralized mechanisms for assigning distinct names
//!   for objects";
//! * [`wire`] — a self-contained tag-length-value encoding. Mobile objects
//!   must carry their own (de)serialization scheme rather than lean on host
//!   facilities, so the format is hand-rolled, versioned, and byte-stable.
//!
//! ## Example
//!
//! ```
//! use mrom_value::{Value, ValueKind};
//!
//! # fn main() -> Result<(), mrom_value::ValueError> {
//! // The paper's motivating coercion: an HTML-wrapped figure used in
//! // arithmetic.
//! let html = Value::from("<td><b> 42 </b></td>");
//! let n = html.coerce(ValueKind::Int)?;
//! assert_eq!(n, Value::Int(42));
//!
//! // Round-trip through the self-contained wire format.
//! let bytes = mrom_value::wire::encode(&n);
//! assert_eq!(mrom_value::wire::decode(&bytes)?, n);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coerce;
mod error;
mod id;
mod value;
pub mod wire;

pub use error::ValueError;
pub use id::{IdGenerator, NodeId, ObjectId};
pub use value::{Value, ValueKind};

/// Crate-local result alias over [`ValueError`].
pub type Result<T> = std::result::Result<T, ValueError>;
