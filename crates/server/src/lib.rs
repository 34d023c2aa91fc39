//! Campaign server: simulation-as-a-service over the supervised sweep
//! engine.
//!
//! The repo's sweeps are library calls; this crate puts an HTTP job API
//! in front of them so long simulation campaigns can be submitted,
//! monitored, shared, and resumed. Std-only by design — the build
//! environment is offline, so the HTTP layer, the JSON, and the signal
//! handling are all hand-rolled on `std`.
//!
//! * [`http`] — minimal HTTP/1.1 server- and client-side plumbing.
//! * [`client`] — [`Client`]: submit / wait / results / stats / shutdown
//!   over that plumbing, the one copy every test and CLI drives.
//! * [`grid`] — sweep-grid submissions (`base × seeds × loads`).
//! * [`cache`] — content-addressed result cache keyed on canonical
//!   config digests and [`flexsim::ENGINE_VERSION`].
//! * [`lease`] — per-config lease files arbitrating ownership across
//!   fleet members sharing one data dir.
//! * [`state`] — job table, one work queue and its worker pool, per-job
//!   checkpoint appends in the core record format.
//! * [`server`] — [`CampaignServer`]: endpoints, crash recovery,
//!   fleet reconciliation, graceful shutdown.
//!
//! The server is the repo's one resumable-campaign path; a direct
//! [`flexsim::sweep_supervised`] is one-shot. Results served over the API
//! are digest-identical to a direct sweep of the same grid because both
//! run each configuration through one function,
//! [`flexsim::run_supervised`]. The integration suite asserts this end
//! to end.

pub mod cache;
pub mod client;
pub mod grid;
pub mod http;
pub mod lease;
pub mod server;
pub mod signal;
pub mod state;

pub use cache::{config_key, ResultCache};
pub use client::Client;
pub use grid::SweepGrid;
pub use http::{http_request, http_request_full};
pub use lease::LeaseDir;
pub use server::{CampaignServer, ServerOptions};
