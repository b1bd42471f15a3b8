//! The PIER framework and prioritization algorithms — the paper's primary
//! contribution (Gazzarri & Herschel, *Progressive Entity Resolution over
//! Incremental Data*, EDBT 2023).
//!
//! The framework (Figure 3 / Algorithm 1) inserts a novel **Incremental
//! Comparison Prioritization** component between incremental blocking and
//! incremental classification. Its job: maintain a *global comparison index*
//! (`CmpIndex`) of the best unexecuted comparisons over **all** profiles
//! seen so far, emit the best `K` of them whenever the matcher is ready, and
//! pick `K` adaptively from the observed input/service rates.
//!
//! Three interchangeable prioritization strategies are provided:
//!
//! * [`ipcs`] — **I-PCS**, comparison-centric (Algorithm 2): one bounded
//!   priority queue over CBS-weighted comparisons.
//! * [`ipbs`] — **I-PBS**, block-centric (Algorithm 3): processes blocks
//!   smallest-first via cardinality/profile indexes.
//! * [`ipes`] — **I-PES**, entity-centric (Algorithm 4): per-entity priority
//!   queues plus an entity queue, with double pruning against the running
//!   average weight. The paper's method of choice.
//!
//! Supporting modules: [`framework`] (the emitter abstraction shared with
//! the baselines, plus common generation helpers), [`stage_a`] (the one
//! step machine sequencing blocker and emitter behind every executor),
//! [`findk`] (the adaptive batch-size controller), [`selector`] (the
//! data-driven strategy recommendation heuristic the paper lists as future
//! work), and [`driver`] (a synchronous push/drain pipeline for library
//! users).

#![warn(missing_docs)]

pub mod driver;
pub mod findk;
pub mod framework;
pub mod ipbs;
pub mod ipcs;
pub mod ipes;
pub mod selector;
pub mod stage_a;

pub use driver::PierPipeline;
pub use findk::AdaptiveK;
pub use framework::{drain_all_unique, BlockCursor, ComparisonEmitter, PierConfig, PivotGroups};
pub use ipbs::Ipbs;
pub use ipcs::Ipcs;
pub use ipes::Ipes;
pub use selector::{recommend, Recommendation, Strategy};
pub use stage_a::{Ingested, StageA, Tick};
