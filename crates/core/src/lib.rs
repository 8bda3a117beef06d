//! FlowDiff: diagnosing data center behavior flow by flow.
//!
//! A reproduction of the ICDCS 2013 paper by Arefin, Singh, Jiang,
//! Zhang, and Lumezanu. FlowDiff passively captures the OpenFlow control
//! traffic of a data center ([`netsim::log::ControllerLog`]), builds
//! behavioral models from three perspectives — applications,
//! infrastructure, and operators — and detects operational problems by
//! *diffing* the current model against a known-good baseline, filtering
//! out changes explained by learned operator-task automata.
//!
//! # Pipeline
//!
//! ```text
//! log L1 (healthy) -> BehaviorModel + StabilityReport       (baseline)
//! log L2 (current) -> BehaviorModel + task time series
//! diff::compare(L1, L2) -> ModelDiff
//! diagnosis::diagnose(..) -> known/unknown changes, problem classes,
//!                            ranked suspect components
//! ```
//!
//! The pipeline is streaming end to end: events flow through a
//! [`records::RecordAssembler`] (behind a [`records::Sequencer`] when
//! they arrive online) into a
//! [`model::IncrementalModelBuilder`], and the batch calls above are
//! thin wrappers that feed a whole log through it and snapshot once.
//! [`diff::OnlineDiffer`] drives the same machinery continuously,
//! diffing a sliding window against the baseline at epoch boundaries,
//! and [`engine`] runs it as a service: a differ that owns its
//! checkpoint and one loop over any event iterator.
//!
//! # Example
//!
//! ```
//! use flowdiff::prelude::*;
//! use netsim::log::ControllerLog;
//!
//! let config = FlowDiffConfig::default();
//! let baseline_log = ControllerLog::new(); // normally: a captured log
//! let current_log = ControllerLog::new();
//!
//! let baseline = BehaviorModel::build(&baseline_log, &config);
//! let current = BehaviorModel::build(&current_log, &config);
//! let stability = StabilityReport::all_stable(&baseline);
//!
//! let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
//! let report = flowdiff::diagnosis::diagnose(&diff, &current, &[], &config);
//! assert!(report.is_healthy());
//! ```

pub mod change;
pub mod checkpoint;
pub mod config;
mod derived;
pub mod diagnosis;
pub mod diff;
pub mod engine;
pub mod epoch;
pub mod groups;
pub mod harness_seam;
pub mod ids;
pub mod model;
mod panes;
pub mod records;
pub mod signatures;
pub mod stability;
pub mod stats;
pub mod tasks;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::change::Locus;
    pub use crate::checkpoint::{BaselineBundle, Checkpoint, PersistError};
    pub use crate::config::{ConfigError, FlowDiffConfig};
    pub use crate::diagnosis::{
        diagnose, Change, Component, DiagnosisReport, ProblemClass, SignatureKind,
    };
    pub use crate::diff::{
        compare, EpochSnapshot, EpochTimings, GateReason, ModelDiff, OnlineDiffer, SignatureHealth,
    };
    pub use crate::engine::{supervise, RunReport, Supervision};
    pub use crate::epoch::EpochClock;
    pub use crate::groups::{discover_groups, AppGroup, Edge};
    pub use crate::harness_seam::*;
    pub use crate::ids::{
        EntityCatalog, HostId, IRecord, InternedLog, PortId, RecordIndex, SwitchId, WindowRecords,
    };
    pub use crate::model::{BehaviorModel, GroupSignatures, IncrementalModelBuilder};
    pub use crate::records::{
        extract_records, FlowRecord, FlowTuple, IngestAnomaly, IngestHealth, RecordAssembler,
        Sequencer,
    };
    pub use crate::signatures::{DiffCtx, Signature, SignatureInputs, StabilityCtx, StabilityMask};
    pub use crate::stability::{analyze, StabilityReport};
    pub use crate::tasks::{learn_task, TaskAutomaton, TaskEvent, TaskLibrary};
}
