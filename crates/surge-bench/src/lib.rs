//! # surge-bench
//!
//! Experiment harness regenerating every table and figure of the SURGE
//! paper's evaluation (§VII). The [`experiments`] module exposes one runner
//! per table/figure returning structured rows; the `surge-exp` binary prints
//! them in the paper's layout. Per-layer and end-to-end performance is
//! measured by the separate `bench/` harness, not here.
//!
//! Experiment ↔ paper mapping (§VII of the paper):
//!
//! | Runner | Paper artifact |
//! |--------|----------------|
//! | [`experiments::table1`] | Table I (dataset statistics) |
//! | [`experiments::fig5`]   | Fig. 5 (exact runtime vs window / rect size) |
//! | [`experiments::table2`] | Table II (search trigger ratio CCS vs B-CCS) |
//! | [`experiments::fig6`]   | Fig. 6 (approx runtime vs window / rect size) |
//! | [`experiments::fig7`]   | Fig. 7 (runtime vs α) |
//! | [`experiments::table3`] | Table III (approx ratio vs α) |
//! | [`experiments::table4`] | Table IV (approx ratio vs window) |
//! | [`experiments::fig8`]   | Fig. 8 (scalability vs arrival rate) |
//! | [`experiments::fig9`]   | Fig. 9 (top-k runtime vs window / k) |
//! | [`experiments::case_study`] | §VII-G / App. L (burst localization) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod print;

pub use experiments::{
    case_study, fig5, fig6, fig7, fig8, fig9, table1, table2, table3, table4, Algo, ExpConfig,
    SweepAxis,
};
