//! The DSN document model.

use sl_netsim::QosSpec;
use sl_ops::OpSpec;
use sl_pubsub::SubscriptionFilter;
use std::fmt;

/// Whether a source acquires from the start or waits for a Trigger-On.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// Acquiring from deployment.
    #[default]
    Active,
    /// Deployed but dormant until a Trigger-On activates it ("the
    /// computation and acquisition ... can be triggered", paper §2).
    Gated,
}

impl fmt::Display for SourceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceMode::Active => write!(f, "active"),
            SourceMode::Gated => write!(f, "gated"),
        }
    }
}

/// A dataflow source: a content-based sensor binding.
#[derive(Debug, Clone)]
pub struct SourceDecl {
    /// Stream name referenced by services and triggers.
    pub name: String,
    /// Which sensors feed this stream.
    pub filter: SubscriptionFilter,
    /// Initial acquisition mode.
    pub mode: SourceMode,
}

/// A service: one Table-1 operation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDecl {
    /// Service name.
    pub name: String,
    /// The operation it runs.
    pub spec: OpSpec,
    /// Producer names, in port order (two for Join).
    pub inputs: Vec<String>,
}

/// Where a sink delivers its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// The Event Data Warehouse (paper reference 6).
    Warehouse,
    /// Log to the monitoring console.
    Console,
    /// A visualisation tool (the paper demos Sticker, reference 11).
    Visualization,
}

impl SinkKind {
    /// Canonical identifier.
    pub fn name(self) -> &'static str {
        match self {
            SinkKind::Warehouse => "warehouse",
            SinkKind::Console => "console",
            SinkKind::Visualization => "visualization",
        }
    }

    /// Parse the identifier.
    pub fn parse(s: &str) -> Option<SinkKind> {
        match s.trim() {
            "warehouse" => Some(SinkKind::Warehouse),
            "console" => Some(SinkKind::Console),
            "visualization" => Some(SinkKind::Visualization),
            _ => None,
        }
    }
}

impl fmt::Display for SinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A sink declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkDecl {
    /// Sink name.
    pub name: String,
    /// Destination kind.
    pub kind: SinkKind,
    /// Producer names feeding the sink.
    pub inputs: Vec<String>,
}

/// A channel with QoS requirements between two declared endpoints.
/// Channels are optional: edges without a channel declaration default to
/// best-effort.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelDecl {
    /// Producer name.
    pub from: String,
    /// Consumer name.
    pub to: String,
    /// Requested QoS.
    pub qos: QosSpec,
}

/// A complete DSN document.
#[derive(Debug, Clone, Default)]
pub struct DsnDocument {
    /// Dataflow name.
    pub name: String,
    /// Source declarations.
    pub sources: Vec<SourceDecl>,
    /// Service declarations.
    pub services: Vec<ServiceDecl>,
    /// Sink declarations.
    pub sinks: Vec<SinkDecl>,
    /// Channel declarations.
    pub channels: Vec<ChannelDecl>,
}

impl DsnDocument {
    /// An empty document with the given name.
    pub fn new(name: &str) -> DsnDocument {
        DsnDocument {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Look up a source by name.
    pub fn source(&self, name: &str) -> Option<&SourceDecl> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// Look up a service by name.
    pub fn service(&self, name: &str) -> Option<&ServiceDecl> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Look up a sink by name.
    pub fn sink(&self, name: &str) -> Option<&SinkDecl> {
        self.sinks.iter().find(|s| s.name == name)
    }

    /// The QoS declared for edge `from → to`, or best-effort.
    pub fn qos_for(&self, from: &str, to: &str) -> QosSpec {
        self.channels
            .iter()
            .find(|c| c.from == from && c.to == to)
            .map(|c| c.qos)
            .unwrap_or_default()
    }

    /// Every declared name, in declaration order (sources, services, sinks).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sources
            .iter()
            .map(|s| s.name.as_str())
            .chain(self.services.iter().map(|s| s.name.as_str()))
            .chain(self.sinks.iter().map(|s| s.name.as_str()))
    }

    /// All dataflow edges `(from, to, port)` implied by `inputs:` clauses.
    pub fn edges(&self) -> Vec<(String, String, usize)> {
        let mut edges = Vec::new();
        for svc in &self.services {
            for (port, input) in svc.inputs.iter().enumerate() {
                edges.push((input.clone(), svc.name.clone(), port));
            }
        }
        for sink in &self.sinks {
            for (port, input) in sink.inputs.iter().enumerate() {
                edges.push((input.clone(), sink.name.clone(), port));
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;
    use sl_stt::Duration;

    fn doc() -> DsnDocument {
        let mut d = DsnDocument::new("test");
        d.sources.push(SourceDecl {
            name: "temp".into(),
            filter: SubscriptionFilter::any(),
            mode: SourceMode::Active,
        });
        d.services.push(ServiceDecl {
            name: "f".into(),
            spec: OpSpec::Filter {
                condition: "v > 1".into(),
            },
            inputs: vec!["temp".into()],
        });
        d.sinks.push(SinkDecl {
            name: "out".into(),
            kind: SinkKind::Console,
            inputs: vec!["f".into()],
        });
        d.channels.push(ChannelDecl {
            from: "temp".into(),
            to: "f".into(),
            qos: QosSpec::best_effort().with_max_latency(Duration::from_millis(10)),
        });
        d
    }

    #[test]
    fn lookups() {
        let d = doc();
        assert!(d.source("temp").is_some());
        assert!(d.service("f").is_some());
        assert!(d.sink("out").is_some());
        assert!(d.source("nope").is_none());
        assert_eq!(d.names().count(), 3);
    }

    #[test]
    fn qos_lookup_defaults_to_best_effort() {
        let d = doc();
        assert!(!d.qos_for("temp", "f").is_best_effort());
        assert!(d.qos_for("f", "out").is_best_effort());
    }

    #[test]
    fn edges_enumerate_ports() {
        let d = doc();
        let e = d.edges();
        assert_eq!(e.len(), 2);
        assert!(e.contains(&("temp".into(), "f".into(), 0)));
        assert!(e.contains(&("f".into(), "out".into(), 0)));
    }

    #[test]
    fn sink_kind_round_trip() {
        for k in [
            SinkKind::Warehouse,
            SinkKind::Console,
            SinkKind::Visualization,
        ] {
            assert_eq!(SinkKind::parse(k.name()), Some(k));
        }
        assert_eq!(SinkKind::parse("printer"), None);
    }
}
