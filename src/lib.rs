//! # cebinae-repro
//!
//! Facade crate for the from-scratch Rust reproduction of **Cebinae:
//! Scalable In-network Fairness Augmentation** (SIGCOMM 2022). It
//! re-exports the workspace's crates under one roof and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! Start with [`prelude`] — or see `README.md` for the guided tour and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

pub use cebinae;
pub use cebinae_engine as engine;
pub use cebinae_faults as faults;
pub use cebinae_fq as fq;
pub use cebinae_harness as harness;
pub use cebinae_metrics as metrics;
pub use cebinae_net as net;
pub use cebinae_sim as sim;
pub use cebinae_traffic as traffic;
pub use cebinae_transport as transport;

/// The common imports for building and running experiments.
pub mod prelude {
    pub use cebinae::{CebinaeConfig, CebinaeQdisc};
    pub use cebinae_engine::{
        cca_mix, chain, dumbbell, parking_lot, Discipline, DumbbellFlow, ParkingLotGroup,
        ScenarioParams, SimConfig, SimResult, Simulation,
    };
    pub use cebinae_faults::{
        chaos_plan, FaultFamily, FaultPlan, LinkEvent, LinkEventKind, LinkFaultSpec, LossModel,
        ReorderSpec, StallWindow,
    };
    pub use cebinae_metrics::{jfi, jfi_maxmin_normalized, water_filling, MaxMinFlow};
    pub use cebinae_net::{BufferConfig, FlowId, LinkId, Packet, Qdisc, Topology};
    pub use cebinae_sim::{Duration, Time};
    pub use cebinae_transport::{CcKind, TcpConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = CcKind::NewReno.label();
        let _ = Duration::from_millis(1);
        let _ = Discipline::Cebinae.label();
    }
}
