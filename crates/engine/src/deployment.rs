//! Runtime state of a deployed dataflow.
//!
//! [`Engine::deploy`](crate::Engine::deploy) compiles a conceptual dataflow
//! to SCN commands and actuates each one into the structures here: every
//! source becomes a [`SourceRuntime`] (a broker subscription plus the set of
//! currently bound sensors and the acquisition gate that Trigger-On/Off
//! flip), every operator a [`ServiceRuntime`] (a live [`Operator`] process
//! pinned to a network node — the node changes when the engine migrates it
//! off an overloaded host), and every sink a [`SinkRuntime`]. The edges
//! record the network flows reserved for inter-node tuple transfer, and the
//! `consumers` map is the fan-out table the execution loop consults when an
//! operator emits.
//!
//! Everything here is plain state — the behaviour (delivery, ticking,
//! migration, accounting) lives in [`crate::engine`].

use sl_dataflow::Dataflow;
use sl_dsn::SinkKind;
use sl_netsim::{FlowId, NodeId, ProcessId};
use sl_ops::Operator;
use sl_pubsub::{SubscriptionFilter, SubscriptionId};
use sl_stt::{SchemaRef, SensorId};
use std::collections::{BTreeMap, BTreeSet};

/// Runtime state of one dataflow source.
pub struct SourceRuntime {
    /// The sensor filter.
    pub filter: SubscriptionFilter,
    /// The broker subscription backing it.
    pub subscription: SubscriptionId,
    /// Declared tuple schema (tuples are projected onto it).
    pub schema: SchemaRef,
    /// Whether acquisition is currently active (triggers flip this).
    pub active: bool,
    /// Sensors currently bound.
    pub sensors: BTreeSet<SensorId>,
}

/// Runtime state of one operator process.
pub struct ServiceRuntime {
    /// The process id in the load tracker.
    pub process: ProcessId,
    /// The live operator.
    pub op: Box<dyn Operator>,
    /// Node currently hosting the process.
    pub node: NodeId,
    /// Producer names in port order.
    pub inputs: Vec<String>,
    /// Whether a periodic tick is scheduled (blocking operators).
    pub blocking: bool,
}

/// Runtime state of one sink.
pub struct SinkRuntime {
    /// Destination kind.
    pub kind: SinkKind,
    /// Node hosting the sink endpoint.
    pub node: NodeId,
}

/// One dataflow edge with its installed flow (service/sink edges only;
/// sensor→source edges route dynamically).
#[derive(Debug, Clone)]
pub struct EdgeRuntime {
    /// Producer name.
    pub from: String,
    /// Consumer name.
    pub to: String,
    /// Consumer port.
    pub port: usize,
    /// Installed flow, when both endpoints are placed.
    pub flow: Option<FlowId>,
}

/// A deployed dataflow.
pub struct Deployment {
    /// The validated conceptual dataflow.
    pub dataflow: Dataflow,
    /// Its DSN text (shown in demo P2).
    pub dsn_text: String,
    /// Source runtimes by name.
    pub sources: BTreeMap<String, SourceRuntime>,
    /// Service runtimes by name.
    pub services: BTreeMap<String, ServiceRuntime>,
    /// Sink runtimes by name.
    pub sinks: BTreeMap<String, SinkRuntime>,
    /// Edges with flows.
    pub edges: Vec<EdgeRuntime>,
    /// `consumers[name]` = (consumer, port) pairs reading from `name`.
    pub consumers: BTreeMap<String, Vec<(String, usize)>>,
}

/// A read-only snapshot of one service's placement and capabilities, for
/// external analyzers (sl-lint's deployment tier, dashboards). Everything
/// here is derived from live runtime state at the moment of the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceView {
    /// Service name.
    pub name: String,
    /// Operator kind (`filter`, `aggregate`, …).
    pub kind: String,
    /// Node currently hosting the process.
    pub node: NodeId,
    /// Whether a periodic tick is scheduled (blocking operators).
    pub blocking: bool,
    /// The live operator persists window state through checkpoints.
    pub checkpointable: bool,
    /// Producer names in port order.
    pub inputs: Vec<String>,
}

/// A read-only snapshot of a whole deployment: per-service capability and
/// placement facts plus the acquisition state of each source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentView {
    /// Deployment name.
    pub name: String,
    /// Service snapshots, in name order.
    pub services: Vec<ServiceView>,
    /// Sources currently acquiring.
    pub active_sources: Vec<String>,
    /// Sources deployed but dormant (awaiting a Trigger-On).
    pub gated_sources: Vec<String>,
}

impl Deployment {
    /// A read-only capability/placement snapshot of this deployment.
    pub fn view(&self, name: &str) -> DeploymentView {
        let services = self
            .services
            .iter()
            .map(|(n, s)| ServiceView {
                name: n.clone(),
                kind: s.op.kind().to_string(),
                node: s.node,
                blocking: s.blocking,
                checkpointable: s.op.checkpoint().is_some(),
                inputs: s.inputs.clone(),
            })
            .collect();
        let (active, gated): (Vec<_>, Vec<_>) = self.sources.iter().partition(|(_, s)| s.active);
        DeploymentView {
            name: name.to_string(),
            services,
            active_sources: active.into_iter().map(|(n, _)| n.clone()).collect(),
            gated_sources: gated.into_iter().map(|(n, _)| n.clone()).collect(),
        }
    }

    /// The node hosting a named endpoint (service or sink).
    pub fn node_of(&self, name: &str) -> Option<NodeId> {
        self.services
            .get(name)
            .map(|s| s.node)
            .or_else(|| self.sinks.get(name).map(|s| s.node))
    }

    /// Names of services placed on `node`.
    pub fn services_on(&self, node: NodeId) -> Vec<&str> {
        self.services
            .iter()
            .filter(|(_, s)| s.node == node)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}
