//! # hadas
//!
//! A reproduction of **HADAS** (Heterogeneous, Autonomous, Distributed
//! Abstraction System) — the interoperability framework §5 of the paper
//! builds on top of MROM — running over the deterministic network
//! simulator instead of Java RMI.
//!
//! ## The architecture (Figure 2)
//!
//! Each logical site is an **IOO** (InterOperability Object) holding:
//!
//! * **Home** — APplication Objects (**APO**s) integrated at this site;
//! * **Vicinity** — *IOO Ambassadors* of remote sites a cooperation
//!   agreement exists with;
//! * **Interop** — coordination-level programs.
//!
//! APOs deploy **Ambassadors** into foreign IOO territory: mobile MROM
//! objects owned and maintained by their origin APO (`origin` principal =
//! the APO), carrying a chosen subset of the APO's methods and data. The
//! split between APO and Ambassador is dynamic: methods and data migrate
//! in either direction at runtime via the MROM meta-methods
//! ([`Federation::migrate_method`]), and the origin can rewrite deployed
//! Ambassadors' semantics remotely ([`Federation::push_update`]) — the
//! paper's database-maintenance example.
//!
//! ## Protocol operations
//!
//! * [`Federation::link`] — IOO↔IOO handshake installing an IOO Ambassador
//!   in the requester's Vicinity (prerequisite for everything else);
//! * [`Federation::import_apo`] — Import/Export: the exporting site
//!   verifies access, instantiates an APO Ambassador, ships it as data;
//!   the importing site unpacks it, passes an installation context, and
//!   invokes its `install` method;
//! * [`Federation::remote_invoke`] — invoke a method on a remote object;
//! * [`Federation::call_through_ambassador`] — invoke locally when the
//!   method has migrated, relay to the origin APO otherwise.
//!
//! All cross-site traffic rides [`mrom_net::SimNet`]; every byte is
//! accounted in the simulator's stats, which is what the E6/E7/E9
//! experiments measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
mod ambassador;
pub mod chaos;
mod error;
mod federation;
mod ioo;
mod protocol;
mod retry;
pub mod scenarios;

pub use advisor::{Advisor, AdvisorConfig, AdvisorDecision, AdvisorInput, AdvisorPass, Candidate};
pub use ambassador::{
    capability_card, instantiate_ambassador, instantiate_ambassador_with_policy, AmbassadorSpec,
    GuestInfo,
};
pub use error::HadasError;
pub use federation::{ExportPolicy, Federation, SiteStats};
pub use ioo::build_ioo;
pub use protocol::{ProtocolMsg, UpdateOp};
pub use retry::RetryPolicy;

/// Crate-local result alias over [`HadasError`].
pub type Result<T> = std::result::Result<T, HadasError>;
