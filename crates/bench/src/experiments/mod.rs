//! One module per table/figure of the paper's evaluation.
//!
//! Every `run(scale)` prints the paper's expectation followed by the
//! measured rows, and returns nothing — the `repro` binary is the
//! driver. `EXPERIMENTS.md` records a captured run against the paper.

pub mod ablations;
pub mod costs;
pub mod crypto_bench;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod rpc_bench;
pub mod serving_bench;
pub mod storage_bench;
pub mod table1;
pub mod table3;
