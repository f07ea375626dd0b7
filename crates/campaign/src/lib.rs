//! `bc-campaign`: deterministic Monte-Carlo campaigns over the `bc-des`
//! engine.
//!
//! A single `bc_des::run` answers "what happens for this scenario"; a
//! *campaign* answers "what happens across N seeds" — and at paper
//! scale that means thousand-seed sweeps of million-event runs. This
//! crate turns single runs into measured campaigns:
//!
//! - a **driver** ([`driver::run_campaign`]) fans seeds across cores
//!   via `bc_core::par`, isolates every per-seed panic as a typed
//!   [`driver::SeedFailure`] (a poisoned seed is recorded, never lost,
//!   and never aborts the sweep), and merges per-seed
//!   `bc_obs` snapshots in canonical seed order so the merged JSON is
//!   byte-identical across worker counts and completion orders;
//! - streaming **sinks** ([`sinks::RotatingJsonl`]) replace the bounded
//!   in-memory trace ring with size-rotated JSONL trace files, each
//!   independently valid;
//! - a **smoke harness** ([`smoke::run_smoke`]) behind both
//!   `repro campaign` and the `campaign_smoke` bench bin: queue-backend
//!   throughput at 10⁶ pending events, SoA state footprint, seeds/sec,
//!   and a merge-determinism hash, rendered as `BENCH_campaign.json`.
//!
//! The scale story leans on two `bc-des` features grown alongside this
//! crate: the calendar-queue [`bc_des::QueueBackend`] for large pending
//! sets and the SoA [`bc_des::SensorBank`] battery state (~36.4
//! bytes/sensor).
//!
//! ```
//! use bc_campaign::{run_campaign, CampaignConfig};
//! use bc_campaign::smoke::smoke_scenario;
//!
//! let seeds = [1000, 1001, 1002];
//! let report = run_campaign(&seeds, &CampaignConfig::new(2), |seed| {
//!     smoke_scenario(12, 2.0, seed)
//! })
//! .unwrap();
//! assert_eq!(report.completed(), 3);
//! // Byte-identical regardless of workers / completion order:
//! let _trend_line = report.merge_hash();
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod sinks;
pub mod smoke;

pub use driver::{
    run_campaign, CampaignConfig, CampaignError, CampaignReport, SeedFailure, SeedOutcome,
    SeedResult, SeedSummary, TraceConfig,
};
pub use sinks::RotatingJsonl;
pub use smoke::{run_smoke, SmokeError, SmokeOptions, SmokeReport};
