//! The lint passes. Each pass is a pure function over [`PassCx`] that
//! appends [`Diagnostic`]s; the pipeline in `lib.rs` runs them in order
//! after the structural mapping and property propagation.

pub mod bounded;
pub mod deadcode;
pub mod deadlock;
pub mod granularity;
pub mod rate;
pub mod recovery;
pub mod resource;
pub mod structure;

use crate::analysis::StreamProps;
use crate::diag::Diagnostic;
use crate::model::{DeployGraph, DeployModel};
use crate::LintConfig;
use sl_dsn::DsnDocument;
use sl_netsim::Topology;
use sl_pubsub::SensorRegistry;
use sl_stt::SchemaRef;
use std::collections::{BTreeMap, HashMap};

/// Everything a pass may look at.
pub struct PassCx<'a> {
    /// The document under analysis (the canonical form of the dataflow).
    pub doc: &'a DsnDocument,
    /// Declared source schemas (possibly partial for hand-authored text).
    pub schemas: &'a HashMap<String, SchemaRef>,
    /// Propagated stream properties per producer.
    pub props: &'a BTreeMap<String, StreamProps>,
    /// Services in execution order.
    pub topo_order: &'a [String],
    /// `producer → (consumer, port)` adjacency.
    pub consumers: &'a HashMap<String, Vec<(String, usize)>>,
    /// The deployment target, when known.
    pub topology: Option<&'a Topology>,
    /// The live sensor registry, when known.
    pub registry: Option<&'a SensorRegistry>,
    /// Thresholds.
    pub config: &'a LintConfig,
    /// The deployment model (engine config + fault plan + durability),
    /// when the deployment tier is running.
    pub model: Option<&'a DeployModel<'a>>,
    /// The deployment graph derived from the model, document, and
    /// environment. Present exactly when `model` is.
    pub graph: Option<&'a DeployGraph>,
}

impl PassCx<'_> {
    /// The propagated properties of a producer, if it resolved.
    pub fn props_of(&self, name: &str) -> Option<&StreamProps> {
        self.props.get(name)
    }
}

/// One analysis pass.
pub type PassFn = fn(&PassCx<'_>, &mut Vec<Diagnostic>);

/// The pipeline, in execution order. Structural mapping runs before these
/// (it feeds on the accumulating validators, not on [`PassCx`]).
pub const PIPELINE: &[(&str, PassFn)] = &[
    ("granularity", granularity::run),
    ("bounded", bounded::run),
    ("rate", rate::run),
    ("deadcode", deadcode::run),
    ("deadlock", deadlock::run),
    ("recovery", recovery::run),
    ("resource", resource::run),
];
