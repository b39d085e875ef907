//! # spray-lulesh — a miniature LULESH-like shock-hydrodynamics proxy
//!
//! The paper's third test case (§VI-C) is LULESH 2.0, whose
//! `IntegrateStressForElems` and `CalcFBHourglassForceForElems` sweeps
//! scatter per-element corner forces to shared nodal arrays — a sparse
//! reduction with data-dependent indices. LULESH ships a domain-specific
//! parallelization that replicates the output array 8× and adds a
//! combination sweep; the paper deletes that machinery and drops in SPRAY
//! reducers instead, then compares run time and memory.
//!
//! This crate is a from-scratch miniature reproduction of that setting
//! (full LULESH physics is simplified to a gamma-law EOS and a
//! von Neumann–Richtmyer viscosity — see DESIGN.md substitution 4):
//!
//! * a structured hexahedral mesh with element→node indirection
//!   ([`Mesh`]),
//! * the Sedov-like blast problem state ([`Domain`], [`Params`]),
//! * LULESH's hex geometry kernels ([`elem_volume`], [`node_normals`],
//!   [`char_length`]),
//! * both force formulas, computed from one corner gather and scattered
//!   in one sweep, with selectable accumulation ([`ForceScheme`]:
//!   sequential, any spray [`spray::Strategy`], or the 8-copy
//!   domain-specific baseline),
//! * a Lagrangian leapfrog integrator ([`step`], [`run`]).
//!
//! ```
//! use spray_lulesh::{Domain, ForceScheme, Params, run};
//! use spray::Strategy;
//! use ompsim::ThreadPool;
//!
//! let pool = ThreadPool::new(2);
//! let mut d = Domain::new(4, Params::default());
//! let stats = run(&mut d, &pool,
//!     ForceScheme::Spray(Strategy::BlockLock { block_size: 512 }), 5);
//! assert_eq!(stats.cycles, 5);
//! assert!(stats.max_velocity > 0.0);
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod domain;
mod forces;
mod hex;
mod history;
mod hydro;
mod mesh;
mod qmono;
mod vtk;

pub use checkpoint::{read_checkpoint, write_checkpoint, CheckpointError};
pub use domain::{Domain, Params, QMode};
pub use forces::{
    calc_force_for_nodes, calc_force_for_nodes_service, calc_force_for_nodes_with, ForceAccum,
    ForceScheme, ForceStats, ParseForceSchemeError,
};
pub use hex::{char_length, elem_volume, node_normals, GAMMA};
pub use history::{run_with_history, CycleStats, History};
pub use hydro::{run, step, step_with, RunStats, U_CUT};
pub use mesh::Mesh;
pub use vtk::write_vtk;
