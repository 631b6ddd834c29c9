//! # mrom-fleet
//!
//! The scenario engine: parameterized topology generators over the
//! deterministic simulator, a seeded Zipf-distributed invocation
//! workload from two sites up to 10³ sites × 10⁵ objects, a fault
//! schedule (crash/restart churn, link loss, duplication, reordering,
//! lost acknowledgements, partitions and heals) executed mid-run, and an
//! end-of-run [`FleetReport`] of global invariants that is byte-identical
//! per seed.
//!
//! ## Why a fleet harness
//!
//! The paper's claims are *per-mechanism* (reflection, migration,
//! ambassadors); every earlier experiment exercises one mechanism on a
//! handful of sites. The fleet suite is the composition check: all of
//! the mechanisms at once, at population scale, under churn and link
//! faults — and the invariants that must survive the composition:
//!
//! * **single host** — every object lives at exactly one site after the
//!   drain, however many migrations raced the churn and the faults;
//! * **exactly-once windows** — each cell's non-idempotent counter sits
//!   inside `[acknowledged, acknowledged + ambiguous]`;
//! * **clean recovery** — nothing in doubt, nothing on the wire;
//! * **balanced accounting** — the simulator explains every send;
//! * **telemetry accounting** — the windowed recorder's per-object
//!   application counts match the state-derived counts, and per-site
//!   telemetry slices fold back (via
//!   [`mrom_obs::TelemetrySnapshot::absorb`]) to the global view.
//!
//! ## Entry points
//!
//! * [`run_fleet`] — one scenario run: `(FleetConfig, seed)` →
//!   [`FleetRun`] (report + telemetry snapshot);
//! * [`chaos_presets`] — the seven fault-injection scenarios (loss,
//!   duplication, reordering, partition, lost acks, crash mid-migration,
//!   heal and resume) as small [`FleetConfig`]s with a [`Fault`]
//!   schedule;
//! * [`run_marketplace`] — the agent-marketplace headline scenario:
//!   ambassadors advertise capability cards, consumers negotiate method
//!   imports, Strict admission refuses migration-unsafe ones;
//! * the `mrom-fleet` binary — CLI over both, plus the capacity bench
//!   that emits `BENCH_FLEET.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convergence;
mod harness;
mod marketplace;
mod report;
mod workload;

pub use convergence::{run_convergence, ConvergenceReport};
pub use hadas::AdvisorConfig;
pub use harness::{cell_image_bytes, run_fleet, FleetRun};
pub use marketplace::{run_marketplace, MarketReport};
pub use report::{AdvisorReport, FleetReport, LatencyReport};
pub use workload::{chaos_presets, Fault, FleetConfig, Zipf};
