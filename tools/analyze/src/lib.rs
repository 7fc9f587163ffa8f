//! `noc-analyze`: dataflow-aware static analysis for the nbti-noc
//! workspace.
//!
//! The pipeline:
//!
//! 1. [`lexer`] — a Rust lexer that understands strings, raw strings,
//!    byte literals, char-vs-lifetime, and nested comments, so a
//!    forbidden token inside a literal can never fire a rule;
//! 2. [`items`] — fn/impl/mod extraction with `#[cfg(test)]`/`#[test]`
//!    region tracking;
//! 3. [`graph`] — a workspace-level, name-resolved call graph with
//!    reachability from the per-cycle entry points;
//! 4. [`passes`] / [`locks`] — the five token rules plus four
//!    interprocedural passes: `alloc-in-hot-path`, `panic-reachability`,
//!    `lock-order`, and `blocking-under-lock`.
//!
//! See DESIGN.md §14 for architecture and soundness caveats.

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod graph;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod passes;
pub mod report;

pub use passes::{analyze_root, Analysis, Finding, Options, Workspace};
