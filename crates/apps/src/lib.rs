//! # pta-apps — client analyses and transformations
//!
//! The paper argues (§6.1) that points-to analysis is a *building
//! block*; this crate implements the clients it describes:
//!
//! - [`alias_pairs`] — generating traditional alias pairs from points-to
//!   sets by transitive closure (the §7.1 comparison with Landi/Ryder,
//!   Figures 8 and 9);
//! - [`pointer_replace`] — the pointer-replacement transformation
//!   (`x = *q` → `x = y` when `(q, y, D)`);
//! - [`rw_sets`] — per-statement and per-function read/write sets (the
//!   basis for the ALPHA IR construction and dependence testing);
//! - [`mod@call_graph`] — the function-level call multigraph extracted from
//!   the invocation graph (with resolved function-pointer targets).
//!
//! Every client reads the finished `AnalysisResult` through a shared
//! reference, except [`rw_sets`] (its module docs say why).
//! NULL-dereference findings are `pta-lint`'s `null-deref` check.

pub mod alias_pairs;
pub mod call_graph;
pub mod pointer_replace;
pub mod rw_sets;

pub use alias_pairs::{alias_pairs_at, AliasPair};
pub use call_graph::{call_graph, CallGraph};
pub use pointer_replace::{replaceable_refs, Replacement};
pub use rw_sets::{function_rw_sets, modref_summaries, stmt_rw_sets, RwSets};
