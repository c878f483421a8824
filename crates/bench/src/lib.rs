//! Reproduction harness for every table and figure in the paper's
//! evaluation (§7), plus the flag grammar its binaries share ([`cli`]).
//!
//! Entry points mirror the paper's artifacts one-to-one:
//!
//! | Paper artifact | Function | `repro` subcommand |
//! |---|---|---|
//! | Table 2 (METIS comm imbalance) | [`experiments::table2`] | `table2` |
//! | Table 3 (dataset properties) | [`experiments::table3`] | `table3` |
//! | Fig. 3 (1D epoch times) | [`experiments::fig3`] | `fig3` |
//! | Fig. 4 (1D breakdown) | [`experiments::fig4`] | `fig4` |
//! | Fig. 5 (Papers @ 16) | [`experiments::fig5`] | `fig5` |
//! | Fig. 6 (GVB vs METIS) | [`experiments::fig6`] | `fig6` |
//! | Fig. 7 (1.5D epoch times) | [`experiments::fig7`] | `fig7` |

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod out;
pub mod schemes;
pub mod table;
pub mod traceio;

pub use schemes::{prepare, prepare_full, Prepared, Scheme};
