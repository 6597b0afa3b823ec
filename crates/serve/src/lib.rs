//! `snr-serve`: the typed request→plan→execute API behind both the
//! `smart-ndr` CLI and its resident daemon (`smart-ndr serve`).
//!
//! The crate splits flow execution into three explicit stages:
//!
//! 1. **Request** ([`request`]) — a typed, validated description of what
//!    the caller wants ([`Request`]), parsed either from CLI flags or
//!    from a line-delimited JSON envelope ([`Envelope`]).
//! 2. **Plan** ([`plan()`]) — a fully resolved work order ([`Plan`]): design
//!    bytes located, technology chosen, budgets and parallelism pinned,
//!    plus the content-hash [`CacheKey`] that names the warm parse+CTS
//!    artifact this work depends on.
//! 3. **Execute** ([`exec`]) — [`execute`] runs a plan inside an
//!    [`ExecCtx`] that optionally carries a [`WarmCache`], a streaming
//!    event sink, and a cancellation-token hook. The CLI runs it with
//!    [`ExecCtx::oneshot`]; the daemon attaches all three.
//!
//! Rendering ([`render`]) is the single serializer for both entry points,
//! so `run --json` output and daemon responses cannot drift; the daemon
//! loop itself lives in [`server`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod error;
pub mod exec;
pub mod json;
pub mod plan;
pub mod queue;
pub mod render;
pub mod request;
pub mod server;

pub use cache::{CacheKey, CacheStatus, WarmCache};
pub use error::{ApiCode, ApiError};
pub use exec::{
    execute, Event, ExecCtx, ExportNdrResponse, ImportResponse, LintResponse, ParetoFrontRow,
    ParetoResponse, ReplayedRun, Response, RunResponse, SuiteResponse, SuiteRow,
};
pub use plan::{plan, ExportNdrPlan, ImportPlan, LintPlan, ParetoPlan, Plan, RunPlan, SuitePlan};
pub use request::{
    CacheMode, Control, DesignSource, Envelope, ExportNdrRequest, ImportRequest, LintRequest,
    Method, Op, ParetoRequest, Request, RunRequest, SuiteRequest, SuiteSource, TechId,
};
pub use server::{serve_stdio, ServeConfig, ServerState};
pub use snr_store::{Lookup, QuarantineReason, ResultStore, StoreKind, StoreStats};

#[cfg(feature = "fault-inject")]
pub use snr_store::faultinject::{corrupt_entry, StoreFault};

#[cfg(feature = "fault-inject")]
pub use request::ServeFault;

#[cfg(unix)]
pub use server::serve_socket;
