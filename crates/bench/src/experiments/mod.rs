//! Experiment implementations, one per paper exhibit.

mod ablations;
mod barrier;
mod coherence;
mod extensions;
mod load;
mod megasweep;
mod traces;
mod tracing;
mod variants;

pub use ablations::{ablation_arbitration, ablation_cap, ablation_determinism};
pub use barrier::{barrier_figures, fig4, hardware, sec71, BarrierFigures};
pub use coherence::{fig1, table1, table2};
pub use extensions::{
    combining, netback, resource, NETBACK_CIRCUIT, NETBACK_CIRCUIT_POLICIES, NETBACK_PACKET,
    NETBACK_PACKET_POLICIES,
};
pub use load::{fairness, loadsweep, LoadExhibit};
pub use megasweep::{megasweep, MegaExhibit};
pub use traces::{fig3, table3};
pub use tracing::sim_trace;
pub use variants::{single, snoopy};
