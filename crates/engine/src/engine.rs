//! The [`Engine`]: deployment actuation and the discrete-event execution
//! loop.

use crate::config::{EngineConfig, OverflowPolicy, PlacementPolicy};
use crate::deployment::{
    Deployment, DeploymentView, EdgeRuntime, ServiceRuntime, SinkRuntime, SourceRuntime,
};
use crate::error::EngineError;
use crate::monitor::{ControlRecord, Monitor, PlacementChange};
use crate::overload::IngressTable;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sl_cq::{CqHub, CqPoll, QueuePolicy, SubscriberId, ViewId};
use sl_dataflow::{to_dsn, validate, Dataflow};
use sl_dsn::{compile, print_document, ScnCommand, SinkKind};
use sl_durable::{CompactionStats, DurableConfig, DurableWarehouse};
use sl_faults::{
    BreakerDecision, BreakerState, CircuitBreaker, DeadLetterQueue, DropReason, FaultAction,
    FaultPlan, ShedPolicy,
};
use sl_netsim::{
    EventQueue, FlowTable, LinkId, LoadTracker, NetError, NetStats, NodeId, ProcessId, QosSpec,
    Route, RoutingTable, Topology,
};
use sl_obs::{Metrics, MetricsSnapshot, SpanKey, Tracer};
use sl_ops::{ControlAction, OpCheckpoint, OpContext, PriorityClass};
use sl_pubsub::enrich::{enrich, EnrichPolicy};
use sl_pubsub::{Broker, BrokerEvent, SensorAdvertisement, SubscriptionId};
use sl_sensors::{decode_payload, SensorSim};
use sl_stt::{Duration, Event, SchemaRef, SensorId, Timestamp, Tuple, Value};
use sl_warehouse::{CubeCell, CubeQuery, EventQuery, EventWarehouse};
use std::collections::{BTreeMap, HashMap};

/// Events driving the engine.
enum Ev {
    /// A sensor's sampling instant.
    SensorEmit(u64),
    /// A tuple arrives at a service or sink after network transfer.
    Deliver {
        deployment: String,
        target: String,
        port: usize,
        tuple: Tuple,
    },
    /// A blocking operator's periodic tick.
    Tick { deployment: String, service: String },
    /// Monitor sampling (rates, demand refresh, migration check).
    MonitorSample,
    /// A scheduled fault-plan action fires.
    Fault(FaultAction),
    /// Re-attempt a delivery that previously found no route.
    RetryDeliver {
        deployment: String,
        target: String,
        port: usize,
        tuple: Tuple,
        /// Node the tuple is buffered on (where it was produced).
        from_node: NodeId,
        /// Retry attempt number (1-based: the first retry is attempt 1).
        attempt: u32,
        /// When the original delivery failed (recovery-latency baseline).
        first_failed_at: Timestamp,
    },
}

struct SensorEntry {
    sim: Box<dyn SensorSim>,
    ad: SensorAdvertisement,
    /// Silently stalled (fault injection): scheduled but not emitting.
    stalled: bool,
    /// Corrupting wire payloads (fault injection).
    corrupt: bool,
    /// Clock skew applied to emitted tuple timestamps, in milliseconds.
    skew_ms: i64,
    /// Unpublished from the broker (dropout or liveness expiry); the next
    /// successful emission re-publishes the advertisement (clean rejoin).
    expired: bool,
    /// Emission-rate multiplier (fault injection: a traffic burst). 1 is
    /// the advertised period; `n` emits `n`× faster.
    rate_scale: u32,
}

/// The Event Data Warehouse backend: plain in-memory indexes, or the
/// crash-safe tier from `sl-durable` (hot indexes over the recent tail,
/// checksummed segment log underneath). Either way the hot
/// [`EventWarehouse`] is reachable, so the read-side API is identical.
enum WarehouseTier {
    Memory(Box<EventWarehouse>),
    Durable(Box<DurableWarehouse>),
}

impl WarehouseTier {
    fn hot(&self) -> &EventWarehouse {
        match self {
            WarehouseTier::Memory(w) => w,
            WarehouseTier::Durable(d) => d.hot(),
        }
    }

    fn hot_mut(&mut self) -> &mut EventWarehouse {
        match self {
            WarehouseTier::Memory(w) => w,
            WarehouseTier::Durable(d) => d.hot_mut(),
        }
    }
}

/// The engine's ingress [`OverflowPolicy`] vocabulary, translated onto
/// `sl-cq`'s subscriber queues (variant for variant) so one config idiom
/// covers both ends of the pipeline.
fn queue_policy(p: OverflowPolicy) -> QueuePolicy {
    match p {
        OverflowPolicy::Block => QueuePolicy::Block,
        OverflowPolicy::ShedOldest => QueuePolicy::ShedOldest,
        OverflowPolicy::ShedNewest => QueuePolicy::ShedNewest,
        OverflowPolicy::Sample(p) => QueuePolicy::Sample(p),
    }
}

/// A terminally undeliverable tuple, parked in the engine's dead-letter
/// queue together with its [`DropReason`].
#[derive(Debug, Clone)]
pub struct DeadTuple {
    /// Deployment the tuple belonged to.
    pub deployment: String,
    /// Operator or sink it was headed for.
    pub target: String,
    /// The tuple itself.
    pub tuple: Tuple,
}

/// The StreamLoader execution engine. See the crate docs for the model.
pub struct Engine {
    topology: Topology,
    queue: EventQueue<Ev>,
    broker: Broker,
    flows: FlowTable,
    loads: LoadTracker,
    net_stats: NetStats,
    monitor: Monitor,
    warehouse: WarehouseTier,
    sensors: BTreeMap<u64, SensorEntry>,
    deployments: BTreeMap<String, Deployment>,
    /// subscription -> (deployment, source).
    sub_index: HashMap<u64, (String, String)>,
    /// Route cache keyed by (from, to) node.
    route_cache: HashMap<(u32, u32), Option<Route>>,
    /// Last few tuples seen per (deployment, source) — the Figure 2 bottom
    /// panel's "data sample coming from each source" (demo P1).
    recent_samples: HashMap<(String, String), std::collections::VecDeque<Tuple>>,
    config: EngineConfig,
    rng: StdRng,
    last_monitor_at: Timestamp,
    next_pid: u64,
    /// Terminally undeliverable tuples, classified by drop reason.
    dlq: DeadLetterQueue<DeadTuple>,
    /// Latest blocking-operator state snapshots, keyed (deployment, service),
    /// restored onto the migration target after a node crash.
    checkpoints: HashMap<(String, String), OpCheckpoint>,
    /// Engine-level instruments: event-loop timing, enrichment counters,
    /// per-tuple spans, end-to-end latency, queue depth.
    metrics: Metrics,
    /// Wall-clock origin for span timestamps (virtual time measures the
    /// simulation; spans measure the host's processing cost).
    epoch: std::time::Instant,
    /// Overload control: per-operator in-flight depths, deferred shed
    /// markers, and per-window high-watermarks.
    ingress: IngressTable,
    /// Circuit breakers per delivery path, keyed (deployment, target).
    breakers: BTreeMap<(String, String), CircuitBreaker>,
    /// Last backlog-driven re-placement per operator (ping-pong damper).
    last_backlog_migration: HashMap<(String, String), Timestamp>,
    /// Continuous queries: standing subscriptions and materialized views,
    /// fed inline by the warehouse ingest path. Idle (and free) until the
    /// first registration.
    cq: CqHub,
}

impl Engine {
    /// Create an engine on the given network, with the virtual clock at
    /// `start`.
    pub fn new(topology: Topology, config: EngineConfig, start: Timestamp) -> Engine {
        let mut queue = EventQueue::new(start);
        queue.schedule_in(config.monitor_period, Ev::MonitorSample);
        Engine {
            topology,
            queue,
            broker: Broker::new(),
            flows: FlowTable::new(),
            loads: LoadTracker::new(),
            net_stats: NetStats::new(),
            monitor: Monitor::new(),
            warehouse: WarehouseTier::Memory(Box::new(EventWarehouse::with_defaults())),
            sensors: BTreeMap::new(),
            deployments: BTreeMap::new(),
            sub_index: HashMap::new(),
            route_cache: HashMap::new(),
            recent_samples: HashMap::new(),
            rng: StdRng::seed_from_u64(config.seed),
            last_monitor_at: start,
            dlq: DeadLetterQueue::new(config.dlq_capacity),
            checkpoints: HashMap::new(),
            config,
            next_pid: 0,
            metrics: Metrics::new(),
            epoch: std::time::Instant::now(),
            ingress: IngressTable::new(),
            breakers: BTreeMap::new(),
            last_backlog_migration: HashMap::new(),
            cq: CqHub::new(),
        }
    }

    /// Create an engine whose Event Data Warehouse persists to the segment
    /// log at `durable.dir`, recovering whatever a previous incarnation
    /// left there: hot indexes are rebuilt from the non-evicted log tail,
    /// and blocking-operator checkpoints are staged so the next
    /// [`Engine::deploy`] of the same dataflow restores their window
    /// caches. A torn log tail (crash mid-write) is truncated, surfaced in
    /// the monitor's durability section, and accounted in the DLQ under
    /// [`DropReason::TornTail`].
    pub fn open_durable(
        topology: Topology,
        config: EngineConfig,
        start: Timestamp,
        durable: DurableConfig,
    ) -> Result<Engine, EngineError> {
        let mut engine = Engine::new(topology, config, start);
        let mut dw = DurableWarehouse::open(durable)?;
        let report = dw.recovery_report();
        let recovered = dw.take_checkpoints();
        engine.monitor.durability.push(format!(
            "[{start}] opened durable warehouse: {} events hot, {} checkpoints staged, {} segments",
            dw.hot().len(),
            recovered.len(),
            dw.segment_count()
        ));
        if report.lossy() {
            // The torn tail held records that were appended but never made
            // stable; they are gone by design (only fsynced bytes are
            // promised). Account the loss in the drop taxonomy.
            engine.dlq.note(DropReason::TornTail);
            engine
                .metrics
                .counter(&format!("dlq/{}", DropReason::TornTail.metric_key()))
                .inc();
            *engine
                .monitor
                .dead_letters
                .entry(DropReason::TornTail.metric_key())
                .or_insert(0) += 1;
            engine.monitor.durability.push(format!(
                "[{start}] recovery truncated a torn tail: {} bytes, {} segments dropped",
                report.truncated_bytes, report.dropped_segments
            ));
            engine.monitor.recovery.push(format!(
                "[{start}] durable log: torn tail truncated ({} bytes)",
                report.truncated_bytes
            ));
        }
        engine.checkpoints.extend(recovered);
        engine.warehouse = WarehouseTier::Durable(Box::new(dw));
        Ok(engine)
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.queue.now()
    }

    /// The monitor (Figure 3 data).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The Event Data Warehouse (the hot in-memory view under either
    /// backend).
    pub fn warehouse(&self) -> &EventWarehouse {
        self.warehouse.hot()
    }

    /// Mutable warehouse access (for queries, which update stats). With a
    /// durable backend this is the *hot* tier only; prefer
    /// [`Engine::query_warehouse`] and [`Engine::evict_warehouse_before`],
    /// which include the cold segments and spill instead of discarding.
    pub fn warehouse_mut(&mut self) -> &mut EventWarehouse {
        self.warehouse.hot_mut()
    }

    /// The durable warehouse, when the engine was created with
    /// [`Engine::open_durable`].
    pub fn durable_warehouse(&self) -> Option<&DurableWarehouse> {
        match &self.warehouse {
            WarehouseTier::Memory(_) => None,
            WarehouseTier::Durable(d) => Some(d),
        }
    }

    /// Answer an [`EventQuery`] against the full warehouse: hot indexes
    /// only for the in-memory backend, hot merged with the cold segment
    /// scan for the durable one.
    pub fn query_warehouse(&mut self, q: &EventQuery) -> Result<Vec<Event>, EngineError> {
        match &mut self.warehouse {
            WarehouseTier::Memory(w) => Ok(w.query(q).into_iter().cloned().collect()),
            WarehouseTier::Durable(d) => Ok(d.query(q)?),
        }
    }

    /// Apply the retention horizon: the in-memory backend discards events
    /// older than `horizon`, the durable backend spills them to cold
    /// segments (they remain queryable). Returns how many events left the
    /// hot indexes.
    pub fn evict_warehouse_before(&mut self, horizon: Timestamp) -> Result<usize, EngineError> {
        let evicted = match &mut self.warehouse {
            WarehouseTier::Memory(w) => w.evict_before(horizon),
            WarehouseTier::Durable(d) => d.evict_before(horizon)?,
        };
        // Materialized views mirror the hot tier: retract the evicted
        // events' contributions under the same horizon predicate.
        if !self.cq.is_idle() {
            self.cq.on_evict(horizon);
        }
        Ok(evicted)
    }

    /// Force all durable-log appends onto stable storage (no-op for the
    /// in-memory backend).
    pub fn sync_warehouse(&mut self) -> Result<(), EngineError> {
        match &mut self.warehouse {
            WarehouseTier::Memory(_) => Ok(()),
            WarehouseTier::Durable(d) => Ok(d.sync()?),
        }
    }

    /// True when the durable backend's compaction policy is enabled (always
    /// false for the in-memory backend). Drives the monitor-tick
    /// maintenance step and lint SL092's deployment model.
    pub fn compaction_enabled(&self) -> bool {
        match &self.warehouse {
            WarehouseTier::Memory(_) => false,
            WarehouseTier::Durable(d) => d.compaction_enabled(),
        }
    }

    /// Force-merge every sealed cold segment now, regardless of policy
    /// thresholds (`Ok(None)` for the in-memory backend or when fewer than
    /// two sealed segments exist). The background equivalent runs from the
    /// monitor tick when the policy is enabled.
    pub fn compact_warehouse(&mut self) -> Result<Option<CompactionStats>, EngineError> {
        let now = self.now();
        match &mut self.warehouse {
            WarehouseTier::Memory(_) => Ok(None),
            WarehouseTier::Durable(d) => {
                let stats = d.compact_now(now)?;
                if let Some(s) = &stats {
                    self.metrics.counter("maintenance/compactions").inc();
                    self.monitor.durability.push(format!(
                        "[{now}] compaction (explicit): {} segments -> 1 (gen {}), {} bytes reclaimed",
                        s.segments_in,
                        s.generation,
                        s.bytes_reclaimed()
                    ));
                }
                Ok(stats)
            }
        }
    }

    /// Register a standing [`EventQuery`]: every warehouse-bound event
    /// matching `q` is pushed to a per-subscriber queue of `capacity`
    /// deltas (`None` = unbounded; lint SL091 flags that under admission
    /// control), governed by `policy` on overflow — the same shed/block
    /// vocabulary as ingress overload control. Drain with
    /// [`Engine::poll_deltas`].
    pub fn subscribe_events(
        &mut self,
        name: &str,
        q: EventQuery,
        capacity: Option<usize>,
        policy: OverflowPolicy,
    ) -> SubscriberId {
        self.cq.subscribe(name, q, capacity, queue_policy(policy))
    }

    /// Remove a standing subscription.
    pub fn unsubscribe_events(&mut self, id: SubscriberId) -> Result<(), EngineError> {
        if self.cq.unsubscribe(id) {
            Ok(())
        } else {
            Err(EngineError::UnknownSubscriber(id.0))
        }
    }

    /// Drain a subscriber's pending deltas (matched events since the last
    /// poll). If the poll reports `lagged`, the subscriber's queue
    /// overflowed under `Block` and deltas are withheld until
    /// [`Engine::catch_up`].
    pub fn poll_deltas(&mut self, id: SubscriberId) -> Result<CqPoll, EngineError> {
        self.cq.poll(id).ok_or(EngineError::UnknownSubscriber(id.0))
    }

    /// Re-synchronise a late or lagged subscriber: returns a snapshot of
    /// the full warehouse (cold segments included under a durable backend)
    /// under the subscription's query, plus the hub sequence number the
    /// snapshot is current to, and clears the lag flag. Deltas polled
    /// afterwards strictly follow the snapshot.
    pub fn catch_up(&mut self, id: SubscriberId) -> Result<(Vec<Event>, u64), EngineError> {
        let q = self
            .cq
            .subscription_query(id)
            .ok_or(EngineError::UnknownSubscriber(id.0))?
            .clone();
        let snapshot = self.query_warehouse(&q)?;
        self.cq.mark_caught_up(id);
        Ok((snapshot, self.cq.seq()))
    }

    /// Register a materialized roll-up view over `q`: the answer is
    /// maintained incrementally from the ingest path (O(affected cells)
    /// per tuple, retraction on eviction) and read with
    /// [`Engine::view_cells`] — byte-identical to rerunning the roll-up,
    /// without the rescan. The view is seeded from the hot store, so late
    /// registration is exact too.
    pub fn register_view(&mut self, name: &str, q: CubeQuery) -> ViewId {
        let seed: Vec<Event> = self.warehouse.hot().iter().cloned().collect();
        self.cq.register_view(name, q, seed.iter())
    }

    /// The current cells of a materialized view (sorted, same order and
    /// bits as `EventWarehouse::rollup` over the hot store).
    pub fn view_cells(&self, id: ViewId) -> Result<Vec<CubeCell>, EngineError> {
        self.cq.view_cells(id).ok_or(EngineError::UnknownView(id.0))
    }

    /// Remove a materialized view.
    pub fn drop_view(&mut self, id: ViewId) -> Result<(), EngineError> {
        if self.cq.drop_view(id) {
            Ok(())
        } else {
            Err(EngineError::UnknownView(id.0))
        }
    }

    /// The continuous-query hub (registration stats for monitors/lint).
    pub fn cq(&self) -> &CqHub {
        &self.cq
    }

    /// Network statistics.
    pub fn net_stats(&self) -> &NetStats {
        &self.net_stats
    }

    /// The pub/sub broker (discovery lives here).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The span tracer: per-operator span latency histograms and the recent
    /// completed spans (each carries the per-tuple trace id).
    pub fn tracer(&self) -> &Tracer {
        self.metrics.tracer_ref()
    }

    /// One unified observability snapshot across every subsystem. Keys are
    /// prefixed by origin: `engine/` (event-loop timing, enrichment, spans,
    /// queue depth), `op/` (per-operator counters and processing latency),
    /// `broker/` (pub/sub matching), `net/` (per-link transfer latency and
    /// queued bytes), `warehouse/` (ingest latency, roll-ups), `cq/`
    /// (continuous queries: match latency, delta fan-out/drops, view and
    /// subscriber gauges), and — with a durable backend — `durable/`
    /// (fsync latency, bytes written/read, recovery duration, segment
    /// counts).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.absorb("engine", &self.metrics.snapshot());
        snap.absorb("op", &self.monitor.metrics_snapshot());
        snap.absorb("broker", &self.broker.metrics_snapshot());
        snap.absorb("net", &self.net_stats.metrics_snapshot());
        snap.absorb("warehouse", &self.warehouse.hot().metrics_snapshot());
        if let WarehouseTier::Durable(d) = &self.warehouse {
            snap.absorb("durable", &d.metrics_snapshot());
        }
        snap.absorb("cq", &self.cq.metrics_snapshot());
        snap
    }

    /// The load tracker (node utilisation view).
    pub fn loads(&self) -> &LoadTracker {
        &self.loads
    }

    /// Names of active deployments.
    pub fn deployment_names(&self) -> Vec<&str> {
        self.deployments.keys().map(String::as_str).collect()
    }

    /// The DSN text of a deployment (demo P2's translation display).
    pub fn dsn_text(&self, deployment: &str) -> Result<&str, EngineError> {
        self.deployments
            .get(deployment)
            .map(|d| d.dsn_text.as_str())
            .ok_or_else(|| EngineError::UnknownDeployment(deployment.to_string()))
    }

    /// The deployed dataflow (for rendering).
    pub fn dataflow(&self, deployment: &str) -> Result<&Dataflow, EngineError> {
        self.deployments
            .get(deployment)
            .map(|d| &d.dataflow)
            .ok_or_else(|| EngineError::UnknownDeployment(deployment.to_string()))
    }

    /// A read-only capability/placement snapshot of a deployment (see
    /// [`DeploymentView`]): per-service checkpoint capabilities,
    /// current placement, and source acquisition state.
    pub fn deployment_view(&self, deployment: &str) -> Result<DeploymentView, EngineError> {
        self.deployments
            .get(deployment)
            .map(|d| d.view(deployment))
            .ok_or_else(|| EngineError::UnknownDeployment(deployment.to_string()))
    }

    /// Node currently hosting a service.
    pub fn node_of(&self, deployment: &str, service: &str) -> Option<NodeId> {
        self.deployments
            .get(deployment)
            .and_then(|d| d.node_of(service))
    }

    /// Whether a source is currently acquiring.
    pub fn source_active(&self, deployment: &str, source: &str) -> Option<bool> {
        self.deployments
            .get(deployment)
            .and_then(|d| d.sources.get(source))
            .map(|s| s.active)
    }

    /// The last few tuples (at most 8, newest last) a source produced —
    /// what the design GUI shows as the per-source data sample (demo P1).
    pub fn recent_samples(&self, deployment: &str, source: &str) -> Vec<Tuple> {
        self.recent_samples
            .get(&(deployment.to_string(), source.to_string()))
            .map(|d| d.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Sensors currently bound to a source.
    pub fn bound_sensors(&self, deployment: &str, source: &str) -> Vec<SensorId> {
        self.deployments
            .get(deployment)
            .and_then(|d| d.sources.get(source))
            .map(|s| s.sensors.iter().copied().collect())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Sensor lifecycle (demo P3: plug-and-play)
    // ------------------------------------------------------------------

    /// Plug a sensor in: publish its advertisement, bind it to matching
    /// deployed sources, and start its sampling schedule.
    pub fn add_sensor(&mut self, sim: Box<dyn SensorSim>) -> Result<SensorId, EngineError> {
        let ad = sim.advertisement();
        let id = ad.id;
        let events = self.broker.publish(ad.clone())?;
        self.apply_broker_events(events);
        self.monitor
            .membership
            .push(format!("[{}] + {} joined", self.now(), ad.name));
        // Seed the liveness watchdog so grace counts from the join instant.
        self.broker.heartbeat(id, self.now());
        self.queue.schedule_in(ad.period, Ev::SensorEmit(id.0));
        self.sensors.insert(
            id.0,
            SensorEntry {
                sim,
                ad,
                stalled: false,
                corrupt: false,
                skew_ms: 0,
                expired: false,
                rate_scale: 1,
            },
        );
        Ok(id)
    }

    /// Unplug a sensor: unbind it everywhere and stop its schedule.
    pub fn remove_sensor(&mut self, id: SensorId) -> Result<(), EngineError> {
        let entry = self
            .sensors
            .remove(&id.0)
            .ok_or(EngineError::UnknownSensor(id.0))?;
        // The liveness watchdog may already have unpublished it — a clean
        // removal of an expired sensor is not an error.
        let events = self.broker.unpublish(id).unwrap_or_default();
        self.apply_broker_events(events);
        self.monitor
            .membership
            .push(format!("[{}] - {} left", self.now(), entry.ad.name));
        Ok(())
    }

    fn apply_broker_events(&mut self, events: Vec<BrokerEvent>) {
        for ev in events {
            match ev {
                BrokerEvent::SensorJoined { subscription, ad } => {
                    let Some((dep, source)) = self.sub_index.get(&subscription.0).cloned() else {
                        continue;
                    };
                    let Some(deployment) = self.deployments.get_mut(&dep) else {
                        continue;
                    };
                    let Some(src) = deployment.sources.get_mut(&source) else {
                        continue;
                    };
                    if src.schema.subsumed_by(&ad.schema) {
                        src.sensors.insert(ad.id);
                    } else {
                        self.monitor.membership.push(format!(
                            "[{}] ! {} matches `{dep}/{source}` but lacks required attributes; skipped",
                            self.queue.now(),
                            ad.name
                        ));
                    }
                }
                BrokerEvent::SensorLeft {
                    subscription,
                    sensor,
                } => {
                    if let Some((dep, source)) = self.sub_index.get(&subscription.0).cloned() {
                        if let Some(deployment) = self.deployments.get_mut(&dep) {
                            if let Some(src) = deployment.sources.get_mut(&source) {
                                src.sensors.remove(&sensor);
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Deployment (Figure 1: translate → configure network → execute)
    // ------------------------------------------------------------------

    /// Deploy a conceptual dataflow: validate, translate to DSN, compile to
    /// SCN and actuate every command on the network.
    pub fn deploy(&mut self, dataflow: Dataflow) -> Result<(), EngineError> {
        let name = dataflow.name.clone();
        if self.deployments.contains_key(&name) {
            return Err(EngineError::DuplicateDeployment(name));
        }
        let report = validate(&dataflow)?;
        let doc = to_dsn(&dataflow);
        let dsn_text = print_document(&doc);
        let program = compile(&doc).map_err(sl_dataflow::DataflowError::from)?;

        let mut deployment = Deployment {
            dataflow,
            dsn_text,
            sources: BTreeMap::new(),
            services: BTreeMap::new(),
            sinks: BTreeMap::new(),
            edges: Vec::new(),
            consumers: BTreeMap::new(),
        };

        for command in &program.commands {
            match command {
                ScnCommand::BindSource {
                    source,
                    filter,
                    active,
                } => {
                    let subscription: SubscriptionId = self.broker.subscribe(filter.clone());
                    self.sub_index
                        .insert(subscription.0, (name.clone(), source.clone()));
                    let schema = report.schemas[source].clone();
                    let mut runtime = SourceRuntime {
                        filter: filter.clone(),
                        subscription,
                        schema,
                        active: *active,
                        sensors: Default::default(),
                    };
                    for ad in self.broker.matching(subscription)? {
                        if runtime.schema.subsumed_by(&ad.schema) {
                            runtime.sensors.insert(ad.id);
                        } else {
                            self.monitor.membership.push(format!(
                                "[{}] ! {} matches `{name}/{source}` but lacks required attributes; skipped",
                                self.queue.now(),
                                ad.name
                            ));
                        }
                    }
                    deployment.sources.insert(source.clone(), runtime);
                }
                ScnCommand::SpawnProcess {
                    service,
                    spec,
                    inputs,
                } => {
                    let input_schemas: Vec<SchemaRef> =
                        inputs.iter().map(|i| report.schemas[i].clone()).collect();
                    let mut op =
                        spec.instantiate(&input_schemas)
                            .map_err(|error| EngineError::Op {
                                deployment: name.clone(),
                                operator: service.clone(),
                                error,
                            })?;
                    let demand = self.config.initial_demand * op.cost_per_tuple();
                    let node = self.pick_node(&deployment, inputs, demand)?;
                    let process = ProcessId(self.next_pid);
                    self.next_pid += 1;
                    self.loads
                        .place(&self.topology, process, node, demand, false)?;
                    self.monitor.placements.push(PlacementChange {
                        at: self.queue.now(),
                        deployment: name.clone(),
                        operator: service.clone(),
                        from: None,
                        to: node,
                        reason: "initial placement".into(),
                    });
                    let blocking = op.is_blocking();
                    // A checkpoint staged under this (deployment, service)
                    // — recovered from the durable log by `open_durable` —
                    // re-seeds the window cache before the first tuple
                    // arrives: the restart continues where the crashed
                    // process checkpointed.
                    if self.config.checkpoint_enabled && blocking {
                        if let Some(ckpt) = self
                            .checkpoints
                            .get(&(name.clone(), service.to_string()))
                            .cloned()
                        {
                            let (n_tuples, n_bytes) = (ckpt.len(), ckpt.byte_size());
                            op.restore(ckpt);
                            self.metrics
                                .counter("checkpoint/restored_tuples")
                                .add(n_tuples as u64);
                            self.metrics
                                .counter("checkpoint/restored_bytes")
                                .add(n_bytes as u64);
                            self.monitor.durability.push(format!(
                                "[{}] {name}/{service}: window cache restored from checkpoint ({n_tuples} tuples, {n_bytes} B)",
                                self.queue.now()
                            ));
                        }
                    }
                    if let Some(period) = op.timer_period() {
                        self.queue.schedule_in(
                            period,
                            Ev::Tick {
                                deployment: name.clone(),
                                service: service.clone(),
                            },
                        );
                    }
                    deployment.services.insert(
                        service.clone(),
                        ServiceRuntime {
                            process,
                            op,
                            node,
                            inputs: inputs.clone(),
                            blocking,
                        },
                    );
                }
                ScnCommand::ConfigureSink { sink, kind } => {
                    // Sinks live on the least-loaded node (the EDW endpoint).
                    let node = self
                        .loads
                        .least_loaded(&self.topology, self.topology.node_ids(), 0.0)
                        .unwrap_or(NodeId(0));
                    self.monitor.placements.push(PlacementChange {
                        at: self.queue.now(),
                        deployment: name.clone(),
                        operator: sink.clone(),
                        from: None,
                        to: node,
                        reason: "sink endpoint".into(),
                    });
                    deployment
                        .sinks
                        .insert(sink.clone(), SinkRuntime { kind: *kind, node });
                }
                ScnCommand::InstallFlow {
                    from,
                    to,
                    port,
                    qos,
                } => {
                    let flow = match (deployment.node_of(from), deployment.node_of(to)) {
                        (Some(a), Some(b)) if a != b => {
                            Some(self.install_flow_with_fallback(a, b, qos, &name, from, to)?)
                        }
                        _ => None, // source-fed edge or co-located endpoints
                    };
                    deployment.edges.push(EdgeRuntime {
                        from: from.clone(),
                        to: to.clone(),
                        port: *port,
                        flow,
                    });
                    deployment
                        .consumers
                        .entry(from.clone())
                        .or_default()
                        .push((to.clone(), *port));
                }
            }
        }
        self.deployments.insert(name, deployment);
        Ok(())
    }

    fn install_flow_with_fallback(
        &mut self,
        a: NodeId,
        b: NodeId,
        qos: &QosSpec,
        dep: &str,
        from: &str,
        to: &str,
    ) -> Result<sl_netsim::FlowId, EngineError> {
        match self.flows.install(&self.topology, a, b, qos) {
            Ok(f) => Ok(f),
            Err(NetError::QosUnsatisfiable { reason }) => {
                self.monitor.console.push(format!(
                    "[{}] warn: {dep}: QoS for {from}->{to} unsatisfiable ({reason}); best effort",
                    self.queue.now()
                ));
                Ok(self
                    .flows
                    .install(&self.topology, a, b, &QosSpec::best_effort())?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Tear a deployment down: drop subscriptions, flows and processes.
    pub fn undeploy(&mut self, name: &str) -> Result<(), EngineError> {
        let deployment = self
            .deployments
            .remove(name)
            .ok_or_else(|| EngineError::UnknownDeployment(name.to_string()))?;
        for (_, src) in deployment.sources {
            let _ = self.broker.unsubscribe(src.subscription);
            self.sub_index.remove(&src.subscription.0);
        }
        for (_, svc) in deployment.services {
            self.loads.remove(svc.process);
        }
        for edge in deployment.edges {
            if let Some(flow) = edge.flow {
                let _ = self.flows.uninstall(flow);
            }
        }
        // Drop the deployment's checkpoints: a later deployment reusing the
        // name must start from clean operator state, not resurrect this one.
        self.checkpoints.retain(|(dep, _), _| dep != name);
        Ok(())
    }

    /// Flip a source's acquisition gate (also exercised by triggers).
    pub fn set_source_active(
        &mut self,
        deployment: &str,
        source: &str,
        active: bool,
    ) -> Result<(), EngineError> {
        let dep = self
            .deployments
            .get_mut(deployment)
            .ok_or_else(|| EngineError::UnknownDeployment(deployment.to_string()))?;
        let src = dep
            .sources
            .get_mut(source)
            .ok_or_else(|| EngineError::UnknownDeployment(format!("{deployment}/{source}")))?;
        src.active = active;
        Ok(())
    }

    /// Replace an operator of a running deployment on the fly (demo P3).
    /// The replacement must validate; processing state of the old operator
    /// is discarded (its window cache restarts empty).
    pub fn replace_operator(
        &mut self,
        deployment: &str,
        service: &str,
        spec: sl_ops::OpSpec,
    ) -> Result<(), EngineError> {
        let dep = self
            .deployments
            .get_mut(deployment)
            .ok_or_else(|| EngineError::UnknownDeployment(deployment.to_string()))?;
        let mut df = dep.dataflow.clone();
        df.replace_spec(service, spec.clone())?;
        let report = validate(&df)?;
        let svc = dep
            .services
            .get_mut(service)
            .ok_or_else(|| EngineError::UnknownDeployment(format!("{deployment}/{service}")))?;
        let input_schemas: Vec<SchemaRef> = svc
            .inputs
            .iter()
            .map(|i| report.schemas[i].clone())
            .collect();
        let op = spec
            .instantiate(&input_schemas)
            .map_err(|error| EngineError::Op {
                deployment: deployment.to_string(),
                operator: service.to_string(),
                error,
            })?;
        let was_blocking = svc.blocking;
        svc.blocking = op.is_blocking();
        let period = op.timer_period();
        svc.op = op;
        dep.dataflow = df;
        dep.dsn_text = print_document(&to_dsn(&dep.dataflow));
        if let (false, Some(period)) = (was_blocking, period) {
            self.queue.schedule_in(
                period,
                Ev::Tick {
                    deployment: deployment.to_string(),
                    service: service.to_string(),
                },
            );
        }
        self.monitor.console.push(format!(
            "[{}] {deployment}/{service} replaced on the fly",
            self.queue.now()
        ));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Network failure injection (demo P3: network performance)
    // ------------------------------------------------------------------

    /// Fail or restore a link at run time. Routes recompute lazily; traffic
    /// with no remaining path is dropped (and logged) until connectivity
    /// returns.
    pub fn set_link_up(&mut self, link: sl_netsim::LinkId, up: bool) -> Result<(), EngineError> {
        self.topology.set_link_up(link, up)?;
        self.route_cache.clear();
        self.monitor.console.push(format!(
            "[{}] network: {link} {}",
            self.queue.now(),
            if up { "restored" } else { "FAILED" }
        ));
        Ok(())
    }

    /// Install a declarative chaos schedule: every [`FaultPlan`] event is
    /// queued at its offset from *now* and replayed deterministically,
    /// interleaved with regular engine events.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.queue.schedule_in(ev.at, Ev::Fault(ev.action));
        }
    }

    /// Apply a single fault action immediately.
    pub fn inject_fault(&mut self, action: FaultAction) {
        let now = self.now();
        self.apply_fault(now, action);
    }

    /// The installed-flow table (reservations and routes), for inspecting
    /// consistency across link failures and repairs.
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// The dead-letter queue: terminally undeliverable tuples and the
    /// monotonic per-reason drop counters.
    pub fn dlq(&self) -> &DeadLetterQueue<DeadTuple> {
        &self.dlq
    }

    /// The latest blocking-operator snapshot for `(deployment, service)` —
    /// taken live, or staged by [`Engine::open_durable`] recovery.
    pub fn checkpoint_of(&self, deployment: &str, service: &str) -> Option<&OpCheckpoint> {
        self.checkpoints
            .get(&(deployment.to_string(), service.to_string()))
    }

    /// The active configuration (read-only).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The overload-control ingress table: per-operator in-flight depths
    /// and watermarks (populated once deliveries flow).
    pub fn ingress(&self) -> &IngressTable {
        &self.ingress
    }

    /// Current circuit-breaker state for a delivery path, if one has been
    /// created (breakers materialise on the first failure of a path).
    pub fn breaker_state(&self, deployment: &str, target: &str) -> Option<BreakerState> {
        self.breakers
            .get(&(deployment.to_string(), target.to_string()))
            .map(|b| b.state())
    }

    fn apply_fault(&mut self, now: Timestamp, action: FaultAction) {
        self.metrics
            .counter(&format!("faults/{}", action.kind()))
            .inc();
        match action {
            FaultAction::LinkDown { link } => {
                let _ = self.set_link_up(LinkId(link), false);
            }
            FaultAction::LinkUp { link } => {
                let _ = self.set_link_up(LinkId(link), true);
            }
            FaultAction::NodeCrash { node } => self.crash_node(now, NodeId(node)),
            FaultAction::NodeRestart { node } => {
                if self.topology.set_node_up(NodeId(node), true).is_ok() {
                    self.route_cache.clear();
                    self.monitor
                        .console
                        .push(format!("[{now}] network: {} restored", NodeId(node)));
                    self.monitor
                        .recovery
                        .push(format!("[{now}] {} restarted", NodeId(node)));
                }
            }
            FaultAction::SensorStall { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.stalled = true;
                    let name = entry.ad.name.clone();
                    self.monitor
                        .recovery
                        .push(format!("[{now}] sensor {name} stalled silently"));
                }
            }
            FaultAction::SensorDropout { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.stalled = true;
                    entry.expired = true;
                    let name = entry.ad.name.clone();
                    let events = self.broker.unpublish(SensorId(sensor)).unwrap_or_default();
                    self.apply_broker_events(events);
                    self.monitor
                        .membership
                        .push(format!("[{now}] - {name} dropped out"));
                    self.monitor
                        .recovery
                        .push(format!("[{now}] sensor {name} dropped out"));
                }
            }
            FaultAction::SensorResume { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.stalled = false;
                    // If it was unpublished (dropout or watchdog expiry), the
                    // next emission performs the clean rejoin.
                }
            }
            FaultAction::CorruptStart { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.corrupt = true;
                }
            }
            FaultAction::CorruptStop { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.corrupt = false;
                }
            }
            FaultAction::ClockSkew { sensor, skew_ms } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.skew_ms = skew_ms;
                }
            }
            FaultAction::BurstStart { sensor, factor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.rate_scale = factor.max(1);
                    let name = entry.ad.name.clone();
                    self.monitor.pressure.push(format!(
                        "[{now}] burst: sensor '{name}' emitting x{} faster",
                        factor.max(1)
                    ));
                }
            }
            FaultAction::BurstStop { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.rate_scale = 1;
                    let name = entry.ad.name.clone();
                    self.monitor.pressure.push(format!(
                        "[{now}] burst over: sensor '{name}' back to its advertised period"
                    ));
                }
            }
        }
    }

    /// Crash a node: down its links, evacuate hosted operator processes to
    /// live nodes (restoring checkpointed window state), and move sink
    /// endpoints off it.
    fn crash_node(&mut self, now: Timestamp, node: NodeId) {
        if self.topology.set_node_up(node, false).is_err() {
            return;
        }
        self.route_cache.clear();
        self.monitor
            .console
            .push(format!("[{now}] network: {node} FAILED"));
        self.monitor
            .recovery
            .push(format!("[{now}] {node} crashed"));

        // Services hosted on the crashed node, with their current demands.
        let on_node: HashMap<u64, f64> = self
            .loads
            .processes_on(node)
            .into_iter()
            .map(|(p, d)| (p.0, d))
            .collect();
        let mut victims: Vec<(String, String, ProcessId, f64)> = Vec::new();
        for (dep_name, dep) in &self.deployments {
            for (s_name, s) in dep.services.iter().filter(|(_, s)| s.node == node) {
                let demand = on_node.get(&s.process.0).copied().unwrap_or(1.0);
                victims.push((dep_name.clone(), s_name.clone(), s.process, demand));
            }
        }
        for (dep_name, svc_name, process, demand) in victims {
            self.recover_service(now, &dep_name, &svc_name, process, demand, node);
        }

        // Sink endpoints on the crashed node move to the least-loaded live
        // node (their tuples would otherwise dead-letter until restart).
        let sink_victims: Vec<(String, String)> = self
            .deployments
            .iter()
            .flat_map(|(d, dep)| {
                dep.sinks
                    .iter()
                    .filter(|(_, s)| s.node == node)
                    .map(move |(s_name, _)| (d.clone(), s_name.clone()))
            })
            .collect();
        for (dep_name, sink_name) in sink_victims {
            let candidates: Vec<NodeId> = self
                .topology
                .node_ids()
                .filter(|n| self.topology.node_is_up(*n))
                .collect();
            let Some(target) = self
                .loads
                .least_loaded(&self.topology, candidates.iter().copied(), 0.0)
                .or_else(|| candidates.first().copied())
            else {
                continue;
            };
            if let Some(sink) = self
                .deployments
                .get_mut(&dep_name)
                .and_then(|d| d.sinks.get_mut(&sink_name))
            {
                sink.node = target;
            }
            self.monitor.placements.push(PlacementChange {
                at: now,
                deployment: dep_name.clone(),
                operator: sink_name.clone(),
                from: Some(node),
                to: target,
                reason: "recovery: node crash".into(),
            });
            self.reinstall_flows_for(&dep_name, &sink_name);
        }
    }

    /// Re-place one service off a crashed node and restore its operator
    /// state from the latest checkpoint (or wipe it when checkpointing is
    /// off — modelling the unrecovered state loss).
    fn recover_service(
        &mut self,
        now: Timestamp,
        dep_name: &str,
        svc_name: &str,
        process: ProcessId,
        demand: f64,
        crashed: NodeId,
    ) {
        let candidates: Vec<NodeId> = self
            .topology
            .node_ids()
            .filter(|n| self.topology.node_is_up(*n))
            .collect();
        let Some(target) = self
            .loads
            .least_loaded(&self.topology, candidates.iter().copied(), demand)
            .or_else(|| candidates.first().copied())
        else {
            self.monitor.recovery.push(format!(
                "[{now}] {dep_name}/{svc_name}: no live node to recover onto"
            ));
            return;
        };
        // Non-strict placement: recovery beats capacity guarantees.
        let _ = self
            .loads
            .place(&self.topology, process, target, demand, false);
        let restored = if self.config.checkpoint_enabled {
            self.checkpoints
                .get(&(dep_name.to_string(), svc_name.to_string()))
                .cloned()
                .unwrap_or_default()
        } else {
            OpCheckpoint::empty()
        };
        let (n_tuples, n_bytes) = (restored.len(), restored.byte_size());
        if let Some(svc) = self
            .deployments
            .get_mut(dep_name)
            .and_then(|d| d.services.get_mut(svc_name))
        {
            svc.node = target;
            // The crash lost the in-memory window cache; re-seed it from the
            // checkpoint (an empty checkpoint wipes it).
            svc.op.restore(restored);
        }
        self.metrics
            .counter("checkpoint/restored_tuples")
            .add(n_tuples as u64);
        self.metrics
            .counter("checkpoint/restored_bytes")
            .add(n_bytes as u64);
        self.monitor.placements.push(PlacementChange {
            at: now,
            deployment: dep_name.to_string(),
            operator: svc_name.to_string(),
            from: Some(crashed),
            to: target,
            reason: "recovery: node crash".into(),
        });
        self.monitor.recovery.push(format!(
            "[{now}] {dep_name}/{svc_name}: recovered onto {target} ({n_tuples} tuples, {n_bytes} B restored)"
        ));
        self.reinstall_flows_for(dep_name, svc_name);
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    fn pick_node(
        &mut self,
        deployment: &Deployment,
        inputs: &[String],
        demand: f64,
    ) -> Result<NodeId, EngineError> {
        let fallback = || NodeId(0);
        match self.config.placement {
            PlacementPolicy::SourceLocal => {
                // Node of the first placed upstream service, or the node
                // hosting most sensors of the first upstream source.
                for input in inputs {
                    if let Some(node) = deployment.node_of(input) {
                        return Ok(node);
                    }
                    if let Some(src) = deployment.sources.get(input) {
                        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
                        for sid in &src.sensors {
                            if let Some(entry) = self.sensors.get(&sid.0) {
                                *counts.entry(entry.ad.node).or_insert(0) += 1;
                            }
                        }
                        if let Some((node, _)) = counts
                            .into_iter()
                            .max_by_key(|(n, c)| (*c, std::cmp::Reverse(n.0)))
                        {
                            return Ok(node);
                        }
                    }
                }
                Ok(self
                    .loads
                    .least_loaded(&self.topology, self.topology.node_ids(), demand)
                    .unwrap_or_else(fallback))
            }
            PlacementPolicy::LeastLoaded => Ok(self
                .loads
                .least_loaded(&self.topology, self.topology.node_ids(), demand)
                .unwrap_or_else(fallback)),
            PlacementPolicy::Random => {
                let candidates: Vec<NodeId> = self
                    .topology
                    .node_ids()
                    .filter(|n| {
                        self.topology.node(*n).is_ok_and(|spec| {
                            self.loads.demand_on(*n) + demand <= spec.cpu_capacity
                        })
                    })
                    .collect();
                if candidates.is_empty() {
                    Ok(fallback())
                } else {
                    Ok(candidates[self.rng.gen_range(0..candidates.len())])
                }
            }
        }
    }

    fn route_between(&mut self, a: NodeId, b: NodeId) -> Option<Route> {
        if a == b {
            // A crashed node cannot even deliver to itself.
            return self.topology.node_is_up(a).then(|| Route::local(a));
        }
        let key = (a.0, b.0);
        if let Some(cached) = self.route_cache.get(&key) {
            return cached.clone();
        }
        let route = RoutingTable::compute(&self.topology, a)
            .ok()
            .and_then(|rt| rt.route_to(b).ok());
        self.route_cache.insert(key, route.clone());
        route
    }

    /// Network delay of a tuple from node `a` to node `b`, recording link
    /// statistics; `None` when unreachable.
    fn transfer(&mut self, a: NodeId, b: NodeId, bytes: usize) -> Option<Duration> {
        let route = self.route_between(a, b)?;
        let mut total = Duration::ZERO;
        for link in route.links.clone() {
            let spec = *self.topology.link(link).ok()?;
            let d = sl_netsim::link_delay(spec.latency, spec.bandwidth_bps, bytes);
            self.net_stats.record_link(link, bytes, d);
            total = total + d;
        }
        self.net_stats.record_node_rx(b, bytes);
        Some(total)
    }

    // ------------------------------------------------------------------
    // Retrying delivery & dead letters
    // ------------------------------------------------------------------

    /// Handle a delivery that found no route: log and count the failure,
    /// then either schedule a backed-off retry or dead-letter the tuple.
    #[allow(clippy::too_many_arguments)]
    fn fail_delivery(
        &mut self,
        now: Timestamp,
        deployment: String,
        target: String,
        port: usize,
        tuple: Tuple,
        from_node: NodeId,
        target_node: NodeId,
        attempt: u32,
        first_failed_at: Timestamp,
    ) {
        if attempt == 0 {
            // Never a silent drop: the failure is logged and counted even
            // when retries are disabled.
            self.metrics.counter("drops/no_route").inc();
            self.monitor.console.push(format!(
                "[{now}] warn: no route {from_node} -> {target_node} for {deployment}/{target}"
            ));
        }
        if self.config.overload.breaker_enabled {
            // Record the failure on the path's breaker; once it is open the
            // tuple fails fast to the DLQ instead of feeding a retry storm
            // against a route that is known dead.
            let threshold = self.config.overload.breaker_threshold;
            let cooldown = self.config.overload.breaker_cooldown;
            let br = self
                .breakers
                .entry((deployment.clone(), target.clone()))
                .or_insert_with(|| CircuitBreaker::new(threshold, cooldown));
            let opened = br.on_failure(now);
            let open_now = br.state() == BreakerState::Open;
            if opened {
                self.metrics.counter("breaker/opened").inc();
                self.monitor.pressure.push(format!(
                    "[{now}] breaker OPEN for {deployment}/{target}: failing fast for {} ms",
                    cooldown.as_millis()
                ));
            }
            if open_now {
                self.metrics.counter("breaker/fail_fast").inc();
                self.dead_letter(now, deployment, target, tuple, DropReason::BreakerOpen);
                return;
            }
        }
        if self.config.retry_enabled && attempt < self.config.retry.max_attempts {
            let backoff = self.config.retry.backoff(attempt);
            self.metrics.counter("retry/scheduled").inc();
            self.queue.schedule_at(
                now + backoff,
                Ev::RetryDeliver {
                    deployment,
                    target,
                    port,
                    tuple,
                    from_node,
                    attempt: attempt + 1,
                    first_failed_at,
                },
            );
        } else {
            let reason = if self.config.retry_enabled {
                DropReason::RetriesExhausted
            } else {
                DropReason::NoRoute
            };
            self.dead_letter(now, deployment, target, tuple, reason);
        }
    }

    /// Park a terminally undeliverable tuple in the DLQ.
    fn dead_letter(
        &mut self,
        now: Timestamp,
        deployment: String,
        target: String,
        tuple: Tuple,
        reason: DropReason,
    ) {
        self.metrics
            .counter(&format!("dlq/{}", reason.metric_key()))
            .inc();
        *self
            .monitor
            .dead_letters
            .entry(reason.metric_key())
            .or_insert(0) += 1;
        if matches!(reason, DropReason::Shed { .. }) {
            self.metrics.counter("backpressure/shed").inc();
        }
        self.monitor.recovery.push(format!(
            "[{now}] {deployment}/{target}: tuple dead-lettered ({reason})"
        ));
        self.dlq.push(
            reason,
            DeadTuple {
                deployment,
                target,
                tuple,
            },
        );
        self.metrics.gauge("dlq/depth").set(self.dlq.depth() as i64);
    }

    /// Re-attempt a failed delivery after its backoff. Route placement is
    /// re-resolved, so retries survive target migration and link repair.
    #[allow(clippy::too_many_arguments)]
    fn on_retry_deliver(
        &mut self,
        now: Timestamp,
        deployment: String,
        target: String,
        port: usize,
        tuple: Tuple,
        from_node: NodeId,
        attempt: u32,
        first_failed_at: Timestamp,
    ) {
        if self.config.overload.breaker_enabled {
            if let Some(br) = self.breakers.get_mut(&(deployment.clone(), target.clone())) {
                match br.decide(now) {
                    BreakerDecision::FailFast => {
                        self.metrics.counter("breaker/fail_fast").inc();
                        self.dead_letter(now, deployment, target, tuple, DropReason::BreakerOpen);
                        return;
                    }
                    BreakerDecision::Probe => {
                        self.metrics.counter("breaker/probes").inc();
                        self.monitor.pressure.push(format!(
                            "[{now}] breaker half-open: probing {deployment}/{target}"
                        ));
                    }
                    BreakerDecision::Allow => {}
                }
            }
        }
        let target_node = match self
            .deployments
            .get(&deployment)
            .and_then(|d| d.node_of(&target))
        {
            Some(n) => n,
            None => {
                // Undeployed or re-wired while the tuple waited.
                return self.dead_letter(
                    now,
                    deployment,
                    target,
                    tuple,
                    DropReason::TargetVanished,
                );
            }
        };
        let bytes = tuple.byte_size();
        match self.transfer(from_node, target_node, bytes) {
            Some(delay) => {
                self.metrics.counter("retry/delivered").inc();
                self.metrics
                    .hist("recovery/redelivery_ms")
                    .record(now.since(first_failed_at).as_millis());
                let deliver_at = now + delay + self.config.processing_delay;
                self.admit_and_schedule(now, deliver_at, deployment, target, port, tuple);
            }
            None => self.fail_delivery(
                now,
                deployment,
                target,
                port,
                tuple,
                from_node,
                target_node,
                attempt,
                first_failed_at,
            ),
        }
    }

    // ------------------------------------------------------------------
    // Execution loop
    // ------------------------------------------------------------------

    /// Run the virtual clock forward to `deadline`.
    pub fn run_until(&mut self, deadline: Timestamp) {
        while let Some((now, ev)) = self.queue.pop_until(deadline) {
            self.handle(now, ev);
        }
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    fn handle(&mut self, now: Timestamp, ev: Ev) {
        let t0 = self.epoch.elapsed().as_micros() as u64;
        let kind = match ev {
            Ev::SensorEmit(id) => {
                self.on_sensor_emit(now, id);
                "ev/emit_us"
            }
            Ev::Deliver {
                deployment,
                target,
                port,
                tuple,
            } => {
                self.on_deliver(now, &deployment, &target, port, tuple);
                "ev/deliver_us"
            }
            Ev::Tick {
                deployment,
                service,
            } => {
                self.on_tick(now, &deployment, &service);
                "ev/tick_us"
            }
            Ev::MonitorSample => {
                self.on_monitor_sample(now);
                "ev/monitor_us"
            }
            Ev::Fault(action) => {
                self.apply_fault(now, action);
                "ev/fault_us"
            }
            Ev::RetryDeliver {
                deployment,
                target,
                port,
                tuple,
                from_node,
                attempt,
                first_failed_at,
            } => {
                self.on_retry_deliver(
                    now,
                    deployment,
                    target,
                    port,
                    tuple,
                    from_node,
                    attempt,
                    first_failed_at,
                );
                "ev/retry_us"
            }
        };
        let t1 = self.epoch.elapsed().as_micros() as u64;
        self.metrics.hist(kind).record(t1.saturating_sub(t0));
    }

    fn on_sensor_emit(&mut self, now: Timestamp, id: u64) {
        let Some(entry) = self.sensors.get_mut(&id) else {
            return;
        };
        let ad = entry.ad.clone();
        // Fault injection: a bursting sensor emits `rate_scale`× faster
        // than its advertised period (floored at 1 ms).
        let scale = entry.rate_scale.max(1) as u64;
        let period = if scale > 1 {
            Duration::from_millis((ad.period.as_millis() / scale).max(1))
        } else {
            ad.period
        };
        if entry.stalled {
            // A stalled or dropped-out sensor keeps its emit timer alive so
            // SensorResume picks up on the next period — but produces
            // nothing and sends no heartbeat (the watchdog must notice).
            self.queue.schedule_in(period, Ev::SensorEmit(id));
            return;
        }
        let corrupt = entry.corrupt;
        let skew_ms = entry.skew_ms;
        let was_expired = entry.expired;
        // Block-mode flow control: when a saturated bound first-hop
        // operator queue is fed by this sensor, skip the sampling instant
        // entirely — no tuple is generated, so nothing can be lost — and
        // revoke the sensor's credit through the broker. The heartbeat
        // still goes out: a throttled sensor is alive, not dead, and must
        // not be expired by the liveness watchdog.
        let block_mode = self.config.overload.queue_capacity.is_some()
            && self.config.overload.policy == OverflowPolicy::Block;
        if block_mode {
            if self.blocked_by_backpressure(&ad) {
                self.queue.schedule_in(period, Ev::SensorEmit(id));
                self.broker.heartbeat(SensorId(id), now);
                self.metrics.counter("backpressure/throttled").inc();
                if self.broker.set_credit(SensorId(id), false) {
                    self.monitor.pressure.push(format!(
                        "[{now}] credit revoked for sensor '{}' (downstream queue full)",
                        ad.name
                    ));
                }
                if let Some(entry) = self.sensors.get_mut(&id) {
                    entry.sim.on_throttled(now);
                }
                return;
            }
            if self.broker.set_credit(SensorId(id), true) {
                self.monitor
                    .pressure
                    .push(format!("[{now}] credit re-granted to sensor '{}'", ad.name));
            }
        }
        let Some(entry) = self.sensors.get_mut(&id) else {
            return;
        };
        if was_expired {
            entry.expired = false;
        }
        let wire = entry.sim.wire_format();
        let (payload, raw) = entry.sim.emit(now);
        self.queue.schedule_in(period, Ev::SensorEmit(id));
        self.broker.heartbeat(SensorId(id), now);
        if was_expired {
            // Clean rejoin: a sensor the watchdog expired (or that dropped
            // out) re-publishes its advertisement the moment it produces
            // again, re-binding matching sources.
            if let Ok(events) = self.broker.publish(ad.clone()) {
                self.apply_broker_events(events);
            }
            self.metrics.counter("liveness/rejoined").inc();
            self.monitor
                .membership
                .push(format!("[{now}] + sensor '{}' rejoined", ad.name));
            self.monitor.recovery.push(format!(
                "[{now}] sensor '{}' rejoined after expiry",
                ad.name
            ));
        }
        // Fault injection: a corrupting sensor ships a truncated payload
        // ending in an invalid UTF-8 byte, so extraction fails regardless
        // of wire format.
        let payload = if corrupt {
            let mut broken = payload[..payload.len() / 2].to_vec();
            broken.push(0xFF);
            Bytes::from(broken)
        } else {
            payload
        };
        // Extraction: decode the wire payload against the advertised schema.
        let mut tuple = match decode_payload(&payload, wire, &ad.schema, raw.meta.clone()) {
            Ok(t) => t,
            Err(_) if corrupt => {
                // Undecodable garbage: account for it in the DLQ instead of
                // pretending the sample never happened.
                self.metrics.counter("drops/corrupt").inc();
                self.dead_letter(
                    now,
                    "~ingest".to_string(),
                    ad.name.clone(),
                    raw,
                    DropReason::CorruptPayload,
                );
                return;
            }
            Err(_) => raw, // decoder and encoder disagree: fall back to raw
        };
        let enriched = enrich(&mut tuple, &ad, now, &EnrichPolicy::default());
        if enriched.located {
            self.metrics.counter("enrich/located").inc();
        }
        if enriched.restamped {
            self.metrics.counter("enrich/restamped").inc();
        }
        if enriched.rethemed {
            self.metrics.counter("enrich/rethemed").inc();
        }
        if skew_ms != 0 {
            // Fault injection: the sensor's clock runs fast (positive) or
            // slow (negative) relative to virtual time.
            tuple.meta.timestamp = if skew_ms > 0 {
                tuple.meta.timestamp + Duration::from_millis(skew_ms as u64)
            } else {
                tuple
                    .meta
                    .timestamp
                    .saturating_sub(Duration::from_millis(skew_ms.unsigned_abs()))
            };
            self.metrics.counter("faults/skewed_tuples").inc();
        }
        // Every tuple entering the dataflows gets a trace id; spans recorded
        // downstream are keyed by it.
        tuple.meta.trace = self.metrics.tracer().next_trace_id();

        // Fan out to every active bound source.
        let mut deliveries: Vec<(String, String, usize, Tuple, NodeId)> = Vec::new();
        let mut samples: Vec<(String, String, Tuple)> = Vec::new();
        for (dep_name, dep) in &self.deployments {
            for (src_name, src) in &dep.sources {
                if !src.active || !src.sensors.contains(&SensorId(id)) {
                    continue;
                }
                let Some(projected) = project(&tuple, &src.schema) else {
                    continue;
                };
                samples.push((dep_name.clone(), src_name.clone(), projected.clone()));
                if let Some(consumers) = dep.consumers.get(src_name) {
                    for (to, port) in consumers {
                        deliveries.push((
                            dep_name.clone(),
                            to.clone(),
                            *port,
                            projected.clone(),
                            ad.node,
                        ));
                    }
                }
                // Source-level accounting.
                // (recorded under the source's name so Figure 3 can show
                // per-source rates too)
            }
        }
        for (dep, source, t) in samples {
            let ring = self.recent_samples.entry((dep, source)).or_default();
            if ring.len() >= 8 {
                ring.pop_front();
            }
            ring.push_back(t);
        }
        for (dep, to, port, t, from_node) in deliveries {
            self.monitor.op_mut(&dep, "~sources").record_in();
            let Some(target_node) = self.deployments[&dep].node_of(&to) else {
                continue;
            };
            let bytes = t.byte_size();
            match self.transfer(from_node, target_node, bytes) {
                Some(delay) => {
                    let deliver_at = now + delay + self.config.processing_delay;
                    self.admit_and_schedule(now, deliver_at, dep, to, port, t);
                }
                None => {
                    self.fail_delivery(now, dep, to, port, t, from_node, target_node, 0, now);
                }
            }
        }
    }

    /// True when `Block`-mode flow control demands this sensor skip its
    /// sampling instant: some active bound source forwards it to a service
    /// whose ingress queue is at capacity.
    fn blocked_by_backpressure(&self, ad: &SensorAdvertisement) -> bool {
        let Some(cap) = self.config.overload.queue_capacity else {
            return false;
        };
        for (dep_name, dep) in &self.deployments {
            for (src_name, src) in &dep.sources {
                if !src.active || !src.sensors.contains(&ad.id) {
                    continue;
                }
                let Some(consumers) = dep.consumers.get(src_name) else {
                    continue;
                };
                for (to, _) in consumers {
                    if dep.services.contains_key(to)
                        && self.ingress.depth(dep_name, to) >= cap as u64
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Block-mode flow control, the release half: once processing drains a
    /// bounded queue below its cap, every sensor revoked for that queue
    /// gets its credit back immediately. Waiting for the sensor's next
    /// sampling instant is not enough — sensors late in a tick's emission
    /// order would find the queue refilled by earlier emitters every time
    /// and starve permanently.
    fn regrant_credits(&mut self, now: Timestamp) {
        if self.config.overload.queue_capacity.is_none()
            || self.config.overload.policy != OverflowPolicy::Block
            || self.broker.credits().revoked_count() == 0
        {
            return;
        }
        let revoked: Vec<SensorId> = self.broker.credits().revoked().collect();
        for id in revoked {
            let Some(entry) = self.sensors.get(&id.0) else {
                continue;
            };
            let ad = entry.ad.clone();
            if !self.blocked_by_backpressure(&ad) && self.broker.set_credit(id, true) {
                self.monitor
                    .pressure
                    .push(format!("[{now}] credit re-granted to sensor '{}'", ad.name));
            }
        }
    }

    fn on_deliver(
        &mut self,
        now: Timestamp,
        dep_name: &str,
        target: &str,
        port: usize,
        tuple: Tuple,
    ) {
        // Overload control: a deferred shed marker condemns this arrival —
        // the oldest in flight for this operator — before it reaches the
        // operator. Its depth slot was already released at condemnation.
        if let Some(policy) = self.ingress.take_pending_shed(dep_name, target) {
            let operator = format!("{dep_name}/{target}");
            self.dead_letter(
                now,
                dep_name.to_string(),
                target.to_string(),
                tuple,
                DropReason::Shed { policy, operator },
            );
            return;
        }
        let Some(dep) = self.deployments.get_mut(dep_name) else {
            return;
        };
        // Sink?
        if let Some(sink) = dep.sinks.get(target) {
            let kind = sink.kind;
            self.monitor.count_sink(dep_name, target);
            // End-to-end virtual latency: sensor sampling instant to sink.
            let e2e = now.since(tuple.meta.timestamp);
            self.metrics
                .hist(&format!("e2e/{dep_name}/{target}_us"))
                .record((e2e.as_secs_f64() * 1e6) as u64);
            match kind {
                SinkKind::Warehouse => {
                    let (tgran, sgran) = (self.config.warehouse_tgran, self.config.warehouse_sgran);
                    // Translate once; the same batch feeds the store and,
                    // when anything is registered, the continuous-query
                    // hub (delta evaluation, no rescans). The hub only
                    // sees events the hot store accepted, so views stay
                    // byte-identical to a rescan even if durable ingest
                    // fails.
                    let events = sl_warehouse::tuple_events(&tuple, tgran, sgran);
                    let batch = (!self.cq.is_idle()).then(|| events.clone());
                    let stored = match &mut self.warehouse {
                        WarehouseTier::Memory(w) => {
                            w.ingest_events(events);
                            true
                        }
                        WarehouseTier::Durable(d) => {
                            // Log-first ingest; an I/O failure loses this
                            // tuple's events but must not tear down the run.
                            match d.ingest_events(events) {
                                Ok(_) => true,
                                Err(e) => {
                                    self.monitor.console.push(format!(
                                        "[{now}] error: {dep_name}/{target}: durable ingest: {e}"
                                    ));
                                    false
                                }
                            }
                        }
                    };
                    if let Some(batch) = batch.filter(|_| stored) {
                        self.cq.on_events(&batch);
                    }
                }
                SinkKind::Console => {
                    if self.monitor.console.len() < self.config.console_capacity {
                        self.monitor
                            .console
                            .push(format!("[{now}] {dep_name}/{target}: {tuple}"));
                    }
                }
                SinkKind::Visualization => {}
            }
            return;
        }
        if !dep.services.contains_key(target) {
            return;
        }
        self.monitor.op_mut(dep_name, target).queue_depth.add(-1);
        self.ingress.on_processed(dep_name, target);
        self.regrant_credits(now);
        // Re-borrow after the credit sweep released `dep`.
        let Some(svc) = self
            .deployments
            .get_mut(dep_name)
            .and_then(|d| d.services.get_mut(target))
        else {
            return;
        };
        let node = svc.node;
        let trace = tuple.meta.trace;
        let mut ctx = OpContext::new(now);
        let wall0 = self.epoch.elapsed().as_micros() as u64;
        let result = svc.op.on_tuple(port, tuple, &mut ctx);
        let wall1 = self.epoch.elapsed().as_micros() as u64;
        let dropped = ctx.dropped();
        let (emitted, controls) = ctx.take();
        // Snapshot blocking-operator state after every absorbed tuple so a
        // node crash can restore the cache on the recovery placement.
        let ckpt = if self.config.checkpoint_enabled && svc.blocking {
            svc.op.checkpoint()
        } else {
            None
        };
        if let Some(ckpt) = ckpt {
            self.store_checkpoint(dep_name, target, ckpt);
        }
        if trace != 0 {
            let key = SpanKey::new(dep_name, target, node.to_string());
            let tracer = self.metrics.tracer();
            tracer.span_enter(trace, key.clone(), wall0);
            tracer.span_exit(trace, &key, wall1);
        }
        {
            let counters = self.monitor.op_mut(dep_name, target);
            counters.record_in();
            counters.add_out(emitted.len() as u64);
            counters.add_dropped(dropped);
            counters.proc_latency.record(wall1.saturating_sub(wall0));
        }
        if let Err(e) = result {
            self.monitor.console.push(format!(
                "[{now}] error: {dep_name}/{target}: {e}; tuple dropped"
            ));
            return;
        }
        self.forward(now, dep_name, target, node, emitted);
        self.apply_controls(now, dep_name, target, controls);
    }

    /// Record a fresh blocking-operator snapshot: into the in-memory map
    /// (crash recovery within this process) and — with a durable backend —
    /// into the segment log, so a restarted process can restore the window
    /// cache at deploy time.
    fn store_checkpoint(&mut self, dep_name: &str, service: &str, ckpt: OpCheckpoint) {
        // The slot is the plain service name, the key every durable log
        // has used for blocking-operator checkpoints.
        let slot = service.to_string();
        self.metrics.counter("checkpoint/taken").inc();
        self.metrics
            .gauge("checkpoint/bytes")
            .set(ckpt.byte_size() as i64);
        if let WarehouseTier::Durable(d) = &mut self.warehouse {
            if let Err(e) = d.persist_checkpoint(dep_name, &slot, &ckpt) {
                self.monitor.console.push(format!(
                    "error: persisting checkpoint {dep_name}/{slot}: {e}"
                ));
            }
        }
        self.checkpoints.insert((dep_name.to_string(), slot), ckpt);
    }

    fn on_tick(&mut self, now: Timestamp, dep_name: &str, service: &str) {
        let Some(dep) = self.deployments.get_mut(dep_name) else {
            return;
        };
        let Some(svc) = dep.services.get_mut(service) else {
            return;
        };
        let node = svc.node;
        let Some(period) = svc.op.timer_period() else {
            return;
        };
        let mut ctx = OpContext::new(now);
        let wall0 = self.epoch.elapsed().as_micros() as u64;
        let result = svc.op.on_timer(now, &mut ctx);
        let wall1 = self.epoch.elapsed().as_micros() as u64;
        let (emitted, controls) = ctx.take();
        // A tick usually flushes the window: checkpoint the (often empty)
        // post-emission cache so a later crash doesn't resurrect old state.
        let ckpt = if self.config.checkpoint_enabled && svc.blocking {
            svc.op.checkpoint()
        } else {
            None
        };
        if let Some(ckpt) = ckpt {
            self.store_checkpoint(dep_name, service, ckpt);
        }
        {
            let counters = self.monitor.op_mut(dep_name, service);
            counters.add_out(emitted.len() as u64);
            counters.proc_latency.record(wall1.saturating_sub(wall0));
        }
        // Re-arm the tick first (even on error — blocking ops must keep
        // ticking).
        self.queue.schedule_in(
            period,
            Ev::Tick {
                deployment: dep_name.to_string(),
                service: service.to_string(),
            },
        );
        if let Err(e) = result {
            self.monitor
                .console
                .push(format!("[{now}] error: {dep_name}/{service} tick: {e}"));
            return;
        }
        self.forward(now, dep_name, service, node, emitted);
        self.apply_controls(now, dep_name, service, controls);
    }

    /// Forward operator outputs to their consumers over the network.
    ///
    /// `base` is the virtual time the producing event fired at. Deliveries
    /// are scheduled at `base + delay + processing_delay`.
    fn forward(
        &mut self,
        base: Timestamp,
        dep_name: &str,
        from: &str,
        from_node: NodeId,
        emitted: Vec<Tuple>,
    ) {
        if emitted.is_empty() {
            return;
        }
        let Some(dep) = self.deployments.get(dep_name) else {
            return;
        };
        let Some(consumers) = dep.consumers.get(from) else {
            return;
        };
        let consumers = consumers.clone();
        for tuple in emitted {
            for (to, port) in &consumers {
                let Some(target_node) = self.deployments[dep_name].node_of(to) else {
                    continue;
                };
                let bytes = tuple.byte_size();
                match self.transfer(from_node, target_node, bytes) {
                    Some(delay) => {
                        let deliver_at = base + delay + self.config.processing_delay;
                        self.admit_and_schedule(
                            base,
                            deliver_at,
                            dep_name.to_string(),
                            to.clone(),
                            *port,
                            tuple.clone(),
                        );
                    }
                    None => {
                        self.fail_delivery(
                            base,
                            dep_name.to_string(),
                            to.clone(),
                            *port,
                            tuple.clone(),
                            from_node,
                            target_node,
                            0,
                            base,
                        );
                    }
                }
            }
        }
    }

    /// Admission control for every scheduled delivery: successful transfers
    /// close half-open breakers, the global cap triggers priority
    /// preemption, a full per-operator queue applies the configured
    /// [`OverflowPolicy`], and what survives is scheduled as a `Deliver`
    /// event with its ingress slot accounted. With the overload layer off
    /// (the default) this reduces to gauge bookkeeping plus scheduling —
    /// the historical behaviour.
    #[allow(clippy::too_many_arguments)]
    fn admit_and_schedule(
        &mut self,
        now: Timestamp,
        deliver_at: Timestamp,
        dep: String,
        target: String,
        port: usize,
        tuple: Tuple,
    ) {
        let is_service = self
            .deployments
            .get(&dep)
            .is_some_and(|d| d.services.contains_key(&target));

        // A successful transfer on this path closes its breaker (and ends a
        // half-open probe). Centralised here so every success path counts.
        if self.config.overload.breaker_enabled {
            if let Some(br) = self.breakers.get_mut(&(dep.clone(), target.clone())) {
                if br.on_success() {
                    self.metrics.counter("breaker/closed").inc();
                    self.monitor.pressure.push(format!(
                        "[{now}] breaker CLOSED for {dep}/{target} (probe succeeded)"
                    ));
                }
            }
        }

        if is_service && self.config.overload.admission_enabled() {
            // Global cap: shed from the lowest-priority backlog first. The
            // incoming tuple is only dropped when nothing of lower-or-equal
            // priority has queued work to preempt.
            if let Some(gcap) = self.config.overload.global_capacity {
                if self.ingress.total_inflight() >= gcap as u64 {
                    let priorities = self.config.overload.priorities.clone();
                    let rank = |d: &str| {
                        priorities
                            .iter()
                            .find(|(name, _)| name == d)
                            .map(|(_, c)| *c as u8)
                            .unwrap_or(PriorityClass::Normal as u8)
                    };
                    match self
                        .ingress
                        .preemption_victim((dep.as_str(), target.as_str()), rank)
                    {
                        Some((vdep, vop)) if rank(&vdep) <= rank(&dep) => {
                            self.ingress
                                .condemn_oldest(&vdep, &vop, ShedPolicy::Priority);
                            self.monitor.op_mut(&vdep, &vop).queue_depth.add(-1);
                            self.metrics.counter("backpressure/preempted").inc();
                        }
                        _ => {
                            let operator = format!("{dep}/{target}");
                            self.dead_letter(
                                now,
                                dep,
                                target,
                                tuple,
                                DropReason::Shed {
                                    policy: ShedPolicy::Priority,
                                    operator,
                                },
                            );
                            return;
                        }
                    }
                }
            }
            // Per-operator bound: apply the configured overflow policy.
            if let Some(cap) = self.config.overload.queue_capacity {
                if self.ingress.depth(&dep, &target) >= cap as u64 {
                    match self.config.overload.policy {
                        OverflowPolicy::Block => {
                            // Sources are credit-gated before they emit;
                            // overshoot on an interior edge cannot be
                            // blocked retroactively, so it is admitted
                            // (and visible in this counter).
                            self.metrics.counter("backpressure/block_overflow").inc();
                        }
                        OverflowPolicy::ShedNewest => {
                            let operator = format!("{dep}/{target}");
                            self.dead_letter(
                                now,
                                dep,
                                target,
                                tuple,
                                DropReason::Shed {
                                    policy: ShedPolicy::Newest,
                                    operator,
                                },
                            );
                            return;
                        }
                        OverflowPolicy::ShedOldest => {
                            self.ingress
                                .condemn_oldest(&dep, &target, ShedPolicy::Oldest);
                            self.monitor.op_mut(&dep, &target).queue_depth.add(-1);
                        }
                        OverflowPolicy::Sample(p) => {
                            // Seeded coin: heads condemns the oldest (the
                            // newcomer is admitted), tails sheds the
                            // newcomer. The queue stays bounded either way.
                            if self.rng.gen::<f64>() < p {
                                self.ingress
                                    .condemn_oldest(&dep, &target, ShedPolicy::Sample);
                                self.monitor.op_mut(&dep, &target).queue_depth.add(-1);
                            } else {
                                let operator = format!("{dep}/{target}");
                                self.dead_letter(
                                    now,
                                    dep,
                                    target,
                                    tuple,
                                    DropReason::Shed {
                                        policy: ShedPolicy::Sample,
                                        operator,
                                    },
                                );
                                return;
                            }
                        }
                    }
                }
            }
        }

        if is_service {
            self.ingress.admit(&dep, &target);
            self.monitor.op_mut(&dep, &target).queue_depth.add(1);
        }
        self.queue.schedule_at(
            deliver_at,
            Ev::Deliver {
                deployment: dep,
                target,
                port,
                tuple,
            },
        );
    }

    /// Apply trigger control actions: gate/ungate source acquisition.
    fn apply_controls(
        &mut self,
        now: Timestamp,
        dep_name: &str,
        operator: &str,
        controls: Vec<ControlAction>,
    ) {
        for action in controls {
            let activate = action.is_activate();
            if let Some(dep) = self.deployments.get_mut(dep_name) {
                for target in action.targets() {
                    if let Some(src) = dep.sources.get_mut(target) {
                        src.active = activate;
                    }
                }
            }
            self.monitor.controls.push(ControlRecord {
                at: now,
                deployment: dep_name.to_string(),
                operator: operator.to_string(),
                action,
            });
        }
    }

    // ------------------------------------------------------------------
    // Monitoring & migration
    // ------------------------------------------------------------------

    fn on_monitor_sample(&mut self, now: Timestamp) {
        let elapsed = now.since(self.last_monitor_at).as_secs_f64();
        self.last_monitor_at = now;
        self.monitor.sample_rates(now, elapsed);

        // Liveness watchdog: expire sensors whose heartbeat (last emission)
        // is older than `liveness_grace` advertised periods.
        if self.config.liveness_enabled {
            let grace = self.config.liveness_grace;
            for (ad, events) in self.broker.sweep_stale(now, grace) {
                self.apply_broker_events(events);
                if let Some(entry) = self.sensors.get_mut(&ad.id.0) {
                    entry.expired = true;
                }
                self.metrics.counter("liveness/expired").inc();
                self.monitor.membership.push(format!(
                    "[{now}] - sensor '{}' presumed dead (no heartbeat)",
                    ad.name
                ));
                self.monitor.recovery.push(format!(
                    "[{now}] liveness: sensor '{}' expired, ad withdrawn",
                    ad.name
                ));
            }
        }

        // Observability gauges: event-queue depth and per-link queued bytes.
        self.metrics
            .gauge("event_queue_depth")
            .set(self.queue.pending() as i64);
        let reserved: Vec<_> = self.flows.reserved_links().collect();
        for (link, bytes) in reserved {
            self.net_stats.set_link_queued(link, bytes);
        }

        // Refresh process demands from observed rates.
        let mut updates: Vec<(ProcessId, f64)> = Vec::new();
        for (dep_name, dep) in &self.deployments {
            for (svc_name, svc) in &dep.services {
                if let Some(c) = self.monitor.op(dep_name, svc_name) {
                    if let Some((_, rate)) = c.rate_series.last() {
                        let demand = (rate * svc.op.cost_per_tuple()).max(1.0);
                        updates.push((svc.process, demand));
                    }
                }
            }
        }
        for (p, d) in updates {
            self.loads.set_demand(p, d);
        }

        // Overload-control gauges and backlog-driven re-placement. The
        // watermarks are drained every window regardless so they never span
        // more than one monitor period.
        self.metrics
            .gauge("backpressure/inflight")
            .set(self.ingress.total_inflight() as i64);
        self.metrics
            .gauge("backpressure/throttled_sensors")
            .set(self.broker.credits().revoked_count() as i64);
        let watermarks = self.ingress.drain_watermarks();
        if let Some(cap) = self.config.overload.queue_capacity {
            if self.config.overload.backlog_migration && self.config.migration_enabled {
                self.migrate_backlogged(now, cap, &watermarks);
            }
        }

        if self.config.migration_enabled {
            self.migrate_overloaded(now);
        }

        // Retention: age out the hot tail and retract the evicted events
        // from materialized views (the durable backend spills to cold
        // segments instead of discarding). Default-off.
        if let Some(window) = self.config.retention {
            let horizon = now.saturating_sub(window);
            match self.evict_warehouse_before(horizon) {
                Ok(evicted) if evicted > 0 => {
                    self.metrics
                        .counter("retention/evicted")
                        .add(evicted as u64);
                    self.monitor.continuous.push(format!(
                        "[{now}] retention: {evicted} events evicted before {horizon}"
                    ));
                }
                Ok(_) => {}
                Err(e) => {
                    self.monitor
                        .console
                        .push(format!("[{now}] error: retention eviction: {e}"));
                }
            }
        }

        // Storage maintenance: one policy-gated compaction step per tick,
        // like retention eviction. The policy lives on the durable config
        // (DurableConfig::compaction), so a memory-backed engine and a
        // durable one with compaction disabled both skip this for free.
        if let WarehouseTier::Durable(d) = &mut self.warehouse {
            match d.maybe_compact(now) {
                Ok(Some(stats)) => {
                    self.metrics.counter("maintenance/compactions").inc();
                    self.monitor.durability.push(format!(
                        "[{now}] compaction: {} segments -> 1 (gen {}), {} bytes reclaimed, {} records dropped",
                        stats.segments_in,
                        stats.generation,
                        stats.bytes_reclaimed(),
                        stats.records_dropped()
                    ));
                }
                Ok(None) => {}
                Err(e) => {
                    self.monitor
                        .console
                        .push(format!("[{now}] error: compaction: {e}"));
                }
            }
        }

        // Continuous-query liveness for the report: refresh the per-
        // registration summaries, noting subscribers newly fallen behind.
        if !self.cq.is_idle() {
            self.refresh_cq_monitor(now);
        }

        self.queue
            .schedule_in(self.config.monitor_period, Ev::MonitorSample);
    }

    /// Rebuild the monitor's continuous-query section from hub stats and
    /// log lag transitions (a subscriber falling behind is an operational
    /// event, not just a gauge).
    fn refresh_cq_monitor(&mut self, now: Timestamp) {
        let mut table = BTreeMap::new();
        for s in self.cq.subscription_stats() {
            let was_lagged = self
                .monitor
                .cq
                .get(&s.id.to_string())
                .is_some_and(|st| st.lagged);
            if s.lagged && !was_lagged {
                self.monitor.continuous.push(format!(
                    "[{now}] subscriber '{}' ({}) lagged: queue overflowed, awaiting catch-up",
                    s.name, s.id
                ));
            }
            table.insert(
                s.id.to_string(),
                crate::monitor::CqStat {
                    kind: format!("subscription '{}'", s.name),
                    depth: s.depth,
                    delivered: s.delivered,
                    dropped: s.dropped,
                    lagged: s.lagged,
                    cells: 0,
                    contributions: 0,
                },
            );
        }
        for v in self.cq.view_stats() {
            table.insert(
                v.id.to_string(),
                crate::monitor::CqStat {
                    kind: format!("view '{}'", v.name),
                    depth: 0,
                    delivered: 0,
                    dropped: 0,
                    lagged: false,
                    cells: v.cells,
                    contributions: v.contributions,
                },
            );
        }
        self.monitor.cq = table;
    }

    /// Re-place operators whose ingress queues stayed near their bound for
    /// a whole monitor window: sustained backlog is an overload signal CPU
    /// utilisation misses (a slow node under light average load still
    /// starves its queue). One migration per operator per cooldown window.
    fn migrate_backlogged(
        &mut self,
        now: Timestamp,
        cap: usize,
        watermarks: &[((String, String), u64)],
    ) {
        let threshold =
            (((cap as f64) * self.config.overload.backlog_threshold).ceil() as u64).max(1);
        let cooldown = self.config.monitor_period.saturating_mul(4);
        for ((dep_name, svc_name), hwm) in watermarks {
            if *hwm < threshold {
                continue;
            }
            let key = (dep_name.clone(), svc_name.clone());
            if let Some(last) = self.last_backlog_migration.get(&key) {
                if now.since(*last).as_millis() < cooldown.as_millis() {
                    continue;
                }
            }
            let Some((process, node)) = self
                .deployments
                .get(dep_name)
                .and_then(|d| d.services.get(svc_name))
                .map(|svc| (svc.process, svc.node))
            else {
                continue;
            };
            let demand = self
                .loads
                .processes_on(node)
                .into_iter()
                .find(|(p, _)| *p == process)
                .map(|(_, d)| d)
                .unwrap_or(1.0);
            let candidates = self.topology.node_ids().filter(|n| *n != node);
            let Some(target) = self.loads.least_loaded(&self.topology, candidates, demand) else {
                continue;
            };
            if self
                .loads
                .place(&self.topology, process, target, demand, true)
                .is_err()
            {
                continue;
            }
            if let Some(svc) = self
                .deployments
                .get_mut(dep_name)
                .and_then(|d| d.services.get_mut(svc_name))
            {
                svc.node = target;
            }
            self.monitor.placements.push(PlacementChange {
                at: now,
                deployment: dep_name.clone(),
                operator: svc_name.clone(),
                from: Some(node),
                to: target,
                reason: format!("migration: backlog {hwm}/{cap} at {dep_name}/{svc_name}"),
            });
            self.monitor.pressure.push(format!(
                "[{now}] backlog {hwm}/{cap} at {dep_name}/{svc_name}: moved off {node}"
            ));
            self.metrics
                .counter("backpressure/backlog_migrations")
                .inc();
            self.last_backlog_migration.insert(key, now);
            self.reinstall_flows_for(dep_name, svc_name);
        }
    }

    /// Move the heaviest process off every overloaded node, if a fitting
    /// target exists (the Figure 3 "assignment changes").
    fn migrate_overloaded(&mut self, now: Timestamp) {
        let overloaded: Vec<NodeId> = self
            .topology
            .node_ids()
            .filter(|n| {
                self.loads
                    .utilization(&self.topology, *n)
                    .is_ok_and(|u| u > self.config.migration_threshold)
            })
            .collect();
        for node in overloaded {
            let Some((process, demand)) = self
                .loads
                .processes_on(node)
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
            else {
                continue;
            };
            let candidates = self.topology.node_ids().filter(|n| *n != node);
            let Some(target) = self.loads.least_loaded(&self.topology, candidates, demand) else {
                continue;
            };
            // Find which deployment/service owns this process.
            let mut owner: Option<(String, String)> = None;
            for (dep_name, dep) in &self.deployments {
                for (svc_name, svc) in &dep.services {
                    if svc.process == process {
                        owner = Some((dep_name.clone(), svc_name.clone()));
                    }
                }
            }
            let Some((dep_name, svc_name)) = owner else {
                continue;
            };
            if self
                .loads
                .place(&self.topology, process, target, demand, true)
                .is_err()
            {
                continue;
            }
            if let Some(svc) = self
                .deployments
                .get_mut(&dep_name)
                .and_then(|d| d.services.get_mut(&svc_name))
            {
                svc.node = target;
            }
            self.monitor.placements.push(PlacementChange {
                at: now,
                deployment: dep_name.clone(),
                operator: svc_name.clone(),
                from: Some(node),
                to: target,
                reason: format!("migration: {node} overloaded"),
            });
            self.reinstall_flows_for(&dep_name, &svc_name);
        }
    }

    /// After a migration, re-route the flows touching a service.
    fn reinstall_flows_for(&mut self, dep_name: &str, service: &str) {
        let Some(dep) = self.deployments.get(dep_name) else {
            return;
        };
        let affected: Vec<(usize, String, String)> = dep
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.from == service || e.to == service)
            .map(|(i, e)| (i, e.from.clone(), e.to.clone()))
            .collect();
        for (idx, from, to) in affected {
            let old = self.deployments[dep_name].edges[idx].flow;
            if let Some(f) = old {
                let _ = self.flows.uninstall(f);
            }
            let (a, b) = {
                let dep = &self.deployments[dep_name];
                (dep.node_of(&from), dep.node_of(&to))
            };
            let new_flow = match (a, b) {
                (Some(a), Some(b)) if a != b => {
                    let qos = self.deployments[dep_name].dataflow.qos_for(&from, &to);
                    self.install_flow_with_fallback(a, b, &qos, dep_name, &from, &to)
                        .ok()
                }
                _ => None,
            };
            if let Some(dep) = self.deployments.get_mut(dep_name) {
                dep.edges[idx].flow = new_flow;
            }
        }
    }
}

/// Project a sensor tuple onto a source's declared schema (types checked at
/// bind time via subsumption; values pass through, with Int→Float widening).
fn project(tuple: &Tuple, schema: &SchemaRef) -> Option<Tuple> {
    let mut values = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let v = tuple.get(&field.name).ok()?.clone();
        let v = match (v, field.ty) {
            (Value::Int(i), sl_stt::AttrType::Float) => Value::Float(i as f64),
            (v, _) => v,
        };
        values.push(v);
    }
    Tuple::new(schema.clone(), values, tuple.meta.clone()).ok()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;
    use sl_dataflow::DataflowBuilder;
    use sl_netsim::NodeSpec;
    use sl_pubsub::SubscriptionFilter;
    use sl_sensors::physical::TemperatureSensor;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, Theme};

    fn temp_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    fn start() -> Timestamp {
        Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
    }

    fn engine() -> Engine {
        Engine::new(Topology::nict_testbed(), EngineConfig::default(), start())
    }

    fn temp_sensor(id: u64, node: u32) -> Box<TemperatureSensor> {
        Box::new(TemperatureSensor::new(
            SensorId(id),
            &format!("t{id}"),
            GeoPoint::new_unchecked(34.7, 135.5),
            NodeId(node),
            Duration::from_secs(10),
            false,
            false,
            id,
        ))
    }

    fn simple_flow(name: &str) -> Dataflow {
        DataflowBuilder::new(name)
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .filter("all", "temp", "temperature > -100")
            .sink("out", SinkKind::Console, &["all"])
            .build()
            .unwrap()
    }

    #[test]
    fn deploy_and_run_delivers_tuples() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        assert_eq!(e.bound_sensors("d", "temp"), vec![SensorId(1)]);
        e.run_for(Duration::from_secs(60));
        let c = e.monitor().op("d", "all").unwrap();
        // 10 s period over 60 s: ~6 tuples.
        assert!(c.tuples_in() >= 4, "tuples_in {}", c.tuples_in());
        assert_eq!(c.tuples_in(), c.tuples_out());
        assert!(e.monitor().sink_count("d", "out") >= 4);
        assert!(!e.monitor().console.is_empty());
        // Network saw traffic.
        assert!(e.net_stats().total_msgs() > 0);
    }

    #[test]
    fn sensor_added_after_deploy_binds() {
        let mut e = engine();
        e.deploy(simple_flow("d")).unwrap();
        assert!(e.bound_sensors("d", "temp").is_empty());
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        assert_eq!(e.bound_sensors("d", "temp").len(), 1);
        e.run_for(Duration::from_secs(30));
        assert!(e.monitor().op("d", "all").unwrap().tuples_in() >= 2);
    }

    #[test]
    fn removed_sensor_stops_feeding() {
        let mut e = engine();
        let id = e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        let before = e.monitor().op("d", "all").unwrap().tuples_in();
        assert!(before > 0);
        e.remove_sensor(id).unwrap();
        assert!(e.bound_sensors("d", "temp").is_empty());
        e.run_for(Duration::from_secs(60));
        let after = e.monitor().op("d", "all").unwrap().tuples_in();
        // A single in-flight tuple may still land.
        assert!(after <= before + 1, "before {before} after {after}");
        assert!(e.remove_sensor(id).is_err());
        assert!(e.monitor().membership.iter().any(|l| l.contains("left")));
    }

    #[test]
    fn gated_source_waits_for_trigger() {
        let rain_schema: SchemaRef = Schema::new(vec![
            Field::new("rain", AttrType::Float),
            Field::new("torrential", AttrType::Bool),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref();
        let df = DataflowBuilder::new("gated")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .gated_source(
                "rain",
                SubscriptionFilter::any().with_theme(Theme::new("weather/rain").unwrap()),
                rain_schema,
            )
            .aggregate(
                "avg",
                "temp",
                Duration::from_secs(30),
                &[],
                sl_ops::AggFunc::Avg,
                Some("temperature"),
            )
            .trigger_on(
                "hot",
                "avg",
                Duration::from_secs(30),
                "avg_temperature > 20",
                &["rain"],
            )
            .filter("wet", "rain", "rain >= 0")
            .sink("out", SinkKind::Console, &["wet"])
            .build()
            .unwrap();
        let mut e = engine();
        // Heat-wave temperature sensor: midday readings are far above 20 °C.
        let mut ts = temp_sensor(1, 3);
        ts.set_wave(sl_sensors::gen::DiurnalWave {
            base: 30.0,
            amplitude: 3.0,
            peak_hour: 14.0,
            noise_std: 0.1,
        });
        e.add_sensor(ts).unwrap();
        e.add_sensor(Box::new(sl_sensors::physical::RainSensor::new(
            SensorId(2),
            "rain-0",
            GeoPoint::new_unchecked(34.7, 135.5),
            NodeId(4),
            Duration::from_secs(5),
            9,
        )))
        .unwrap();
        e.deploy(df).unwrap();
        assert_eq!(e.source_active("gated", "rain"), Some(false));
        // Before the first trigger window closes, no rain tuples flow.
        e.run_for(Duration::from_secs(20));
        assert!(e
            .monitor()
            .op("gated", "wet")
            .is_none_or(|c| c.tuples_in() == 0));
        // After a trigger window the source activates and rain flows.
        e.run_for(Duration::from_secs(120));
        assert_eq!(e.source_active("gated", "rain"), Some(true));
        assert!(!e.monitor().controls.is_empty());
        assert!(e.monitor().op("gated", "wet").unwrap().tuples_in() > 0);
    }

    #[test]
    fn duplicate_and_unknown_deployments() {
        let mut e = engine();
        e.deploy(simple_flow("d")).unwrap();
        assert!(matches!(
            e.deploy(simple_flow("d")),
            Err(EngineError::DuplicateDeployment(_))
        ));
        assert!(e.dsn_text("d").unwrap().contains("dsn \"d\""));
        assert!(e.dsn_text("ghost").is_err());
        e.undeploy("d").unwrap();
        assert!(e.undeploy("d").is_err());
        assert!(e.deployment_names().is_empty());
    }

    #[test]
    fn undeploy_releases_resources() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        let placed = e.loads().len();
        assert!(placed > 0);
        e.undeploy("d").unwrap();
        assert_eq!(e.loads().len(), 0);
        // Tuples no longer delivered.
        e.run_for(Duration::from_secs(30));
        assert!(e
            .monitor()
            .op("d", "all")
            .is_none_or(|c| c.tuples_in() == 0));
    }

    #[test]
    fn migration_moves_processes_off_overloaded_nodes() {
        // Tiny two-node topology: one weak node, one strong.
        let mut t = Topology::new();
        let weak = t.add_node(NodeSpec::edge("weak", 10.0));
        let strong = t.add_node(NodeSpec::edge("strong", 1_000_000.0));
        t.add_link(weak, strong, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let cfg = EngineConfig {
            placement: PlacementPolicy::SourceLocal, // forces onto the sensor's node
            ..Default::default()
        };
        let mut e = Engine::new(t, cfg, start());
        // Fast sensor on the weak node drives demand above its capacity.
        let mut s = TemperatureSensor::new(
            SensorId(1),
            "t1",
            GeoPoint::new_unchecked(34.7, 135.5),
            weak,
            Duration::from_millis(100),
            false,
            false,
            1,
        );
        s.set_wave(sl_sensors::gen::DiurnalWave {
            base: 25.0,
            amplitude: 1.0,
            peak_hour: 14.0,
            noise_std: 0.1,
        });
        e.add_sensor(Box::new(s)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        assert_eq!(e.node_of("d", "all"), Some(weak));
        e.run_for(Duration::from_secs(30));
        // The filter process should have been migrated to the strong node.
        assert_eq!(e.node_of("d", "all"), Some(strong));
        assert!(e
            .monitor()
            .placements
            .iter()
            .any(|p| p.reason.contains("migration") && p.to == strong));
    }

    #[test]
    fn migration_can_be_disabled() {
        let mut t = Topology::new();
        let weak = t.add_node(NodeSpec::edge("weak", 10.0));
        let strong = t.add_node(NodeSpec::edge("strong", 1_000_000.0));
        t.add_link(weak, strong, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let cfg = EngineConfig {
            placement: PlacementPolicy::SourceLocal,
            migration_enabled: false,
            ..Default::default()
        };
        let mut e = Engine::new(t, cfg, start());
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(1),
            "t1",
            GeoPoint::new_unchecked(34.7, 135.5),
            weak,
            Duration::from_millis(100),
            false,
            false,
            1,
        )))
        .unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        assert_eq!(e.node_of("d", "all"), Some(weak));
    }

    #[test]
    fn warehouse_sink_stores_events() {
        let df = DataflowBuilder::new("w")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .sink("edw", SinkKind::Warehouse, &["temp"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        e.run_for(Duration::from_secs(60));
        assert!(!e.warehouse().is_empty());
        assert!(e.warehouse().stats().tuples >= 4);
    }

    #[test]
    fn replace_operator_on_the_fly() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        let passed_before = e.monitor().op("d", "all").unwrap().tuples_out();
        assert!(passed_before > 0);
        // Replace the pass-all filter with a block-all filter.
        e.replace_operator(
            "d",
            "all",
            sl_ops::OpSpec::Filter {
                condition: "temperature > 1000".into(),
            },
        )
        .unwrap();
        e.run_for(Duration::from_secs(60));
        let c = e.monitor().op("d", "all").unwrap();
        assert_eq!(
            c.tuples_out(),
            passed_before,
            "no tuple passes the new filter"
        );
        assert!(c.dropped() > 0);
        // Replacement must still validate.
        assert!(e
            .replace_operator(
                "d",
                "all",
                sl_ops::OpSpec::Filter {
                    condition: "ghost > 1".into()
                }
            )
            .is_err());
        assert!(e
            .replace_operator(
                "ghost",
                "all",
                sl_ops::OpSpec::Filter {
                    condition: "1 > 0".into()
                }
            )
            .is_err());
    }

    #[test]
    fn conservation_holds_for_passthrough_operators() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.add_sensor(temp_sensor(2, 4)).unwrap();
        let df = DataflowBuilder::new("d")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .filter("hot", "temp", "temperature > 25")
            .sink("out", SinkKind::Visualization, &["hot"])
            .build()
            .unwrap();
        e.deploy(df).unwrap();
        e.run_for(Duration::from_mins(5));
        let keys = vec![("d".to_string(), "hot".to_string())];
        assert!(e.monitor().conservation_violations(&keys).is_empty());
        let c = e.monitor().op("d", "hot").unwrap();
        assert_eq!(c.tuples_in(), c.tuples_out() + c.dropped());
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut e = engine();
            e.add_sensor(temp_sensor(1, 3)).unwrap();
            e.add_sensor(temp_sensor(2, 5)).unwrap();
            e.deploy(simple_flow("d")).unwrap();
            e.run_for(Duration::from_mins(2));
            let c = e.monitor().op("d", "all").unwrap();
            (c.tuples_in(), c.tuples_out(), e.net_stats().total_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recent_samples_expose_source_data() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        assert!(e.recent_samples("d", "temp").is_empty());
        e.run_for(Duration::from_mins(5));
        let samples = e.recent_samples("d", "temp");
        assert!(
            !samples.is_empty() && samples.len() <= 8,
            "{}",
            samples.len()
        );
        // Samples conform to the declared source schema.
        for t in &samples {
            assert!(t.get("temperature").is_ok());
            assert!(t.get("station").is_ok());
        }
        // Newest-last ordering.
        for w in samples.windows(2) {
            assert!(w[0].meta.timestamp <= w[1].meta.timestamp);
        }
        assert!(e.recent_samples("d", "ghost").is_empty());
    }

    #[test]
    fn link_failure_reroutes_and_partition_drops() {
        // line: sensor-node -- mid -- strong, plus a backup path.
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("a", 1_000_000.0));
        let b = t.add_node(NodeSpec::edge("b", 1_000_000.0));
        let c = t.add_node(NodeSpec::edge("c", 1_000_000.0));
        let fast = t
            .add_link(a, b, Duration::from_millis(1), 10_000_000)
            .unwrap();
        t.add_link(a, c, Duration::from_millis(5), 10_000_000)
            .unwrap();
        let backup = t
            .add_link(c, b, Duration::from_millis(5), 10_000_000)
            .unwrap();
        let cfg = EngineConfig {
            migration_enabled: false,
            ..Default::default()
        };
        let mut e = Engine::new(t, cfg, start());
        e.add_sensor(temp_sensor(1, 0)).unwrap();
        // Pin the filter onto node b by making it the only attractive node:
        // deploy with LeastLoaded places on a (sensor node) or b; force via
        // SourceLocal? Simplest: deploy and read the placement.
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        let before = e.monitor().op("d", "all").unwrap().tuples_in();
        assert!(before > 0);
        // Fail the direct link: traffic must keep flowing via the detour.
        e.set_link_up(fast, false).unwrap();
        e.run_for(Duration::from_secs(30));
        let mid = e.monitor().op("d", "all").unwrap().tuples_in();
        assert!(mid > before, "tuples must keep flowing over the detour");
        // Fail the backup too: if the operator sits off-node, tuples drop.
        e.set_link_up(backup, false).unwrap();
        e.run_for(Duration::from_secs(30));
        let after = e.monitor().op("d", "all").unwrap().tuples_in();
        let target = e.node_of("d", "all").unwrap();
        if target != NodeId(0) && target != NodeId(2) {
            assert!(after <= mid + 1, "partitioned traffic must stop");
            assert!(e.monitor().console.iter().any(|l| l.contains("no route")));
        }
        // Restore everything: flow resumes.
        e.set_link_up(fast, true).unwrap();
        e.set_link_up(backup, true).unwrap();
        e.run_for(Duration::from_secs(30));
        assert!(e.monitor().op("d", "all").unwrap().tuples_in() > after);
        assert!(e.monitor().console.iter().any(|l| l.contains("FAILED")));
        assert!(e.monitor().console.iter().any(|l| l.contains("restored")));
    }

    #[test]
    fn metrics_snapshot_spans_all_subsystems_and_round_trips() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_mins(2));
        let snap = e.metrics_snapshot();
        // Per-operator counters and processing latency under op/.
        assert!(snap.counters["op/d/all/tuples_in"] > 0);
        assert_eq!(
            snap.hists["op/d/all/proc_us"].count,
            snap.counters["op/d/all/tuples_in"]
        );
        // Engine-level instruments: loop timing, spans, queue depth gauge.
        assert!(snap.hists["engine/ev/deliver_us"].count > 0);
        assert!(snap.counters["engine/spans_completed"] > 0);
        assert!(snap.gauges.contains_key("engine/event_queue_depth"));
        // Span histograms are keyed deployment/operator@node.
        assert!(snap
            .hists
            .keys()
            .any(|k| k.starts_with("engine/span/d/all@node#")));
        // Broker and network sections present.
        assert_eq!(snap.counters["broker/subscribes"], 1);
        assert!(snap.counters["net/total_msgs"] > 0);
        // Each tuple got a distinct trace id; spans recorded against them.
        assert!(e.tracer().completed_spans() > 0);
        assert_eq!(e.tracer().open_spans(), 0);
        let last = e.tracer().recent_spans().last().unwrap().clone();
        assert!(last.trace > 0);
        // The whole snapshot survives a JSON round trip.
        let parsed = sl_obs::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // And renders as a table mentioning the operator histogram.
        assert!(snap.render_table().contains("op/d/all/proc_us"));
    }

    #[test]
    fn warehouse_sink_records_e2e_latency_and_ingest_metrics() {
        let df = DataflowBuilder::new("w")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .sink("edw", SinkKind::Warehouse, &["temp"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        e.run_for(Duration::from_secs(60));
        let snap = e.metrics_snapshot();
        let e2e = &snap.hists["engine/e2e/w/edw_us"];
        assert!(e2e.count >= 4);
        // Virtual end-to-end latency includes at least the configured
        // processing delay, so the minimum cannot be zero.
        assert!(e2e.min > 0, "e2e min {}", e2e.min);
        assert_eq!(snap.counters["warehouse/tuples_ingested"], e2e.count);
        assert_eq!(snap.hists["warehouse/ingest_us"].count, e2e.count);
    }

    #[test]
    fn schema_mismatched_sensor_skipped() {
        // A source declaring an attribute the sensor lacks must not bind.
        let demanding: SchemaRef = Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("uv_index", AttrType::Float),
        ])
        .unwrap()
        .into_ref();
        let df = DataflowBuilder::new("d")
            .source("temp", SubscriptionFilter::any(), demanding)
            .sink("out", SinkKind::Console, &["temp"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        assert!(e.bound_sensors("d", "temp").is_empty());
        assert!(e.monitor().membership.iter().any(|l| l.contains("skipped")));
    }

    /// Six sensors sharing one period (their emissions collide in virtual
    /// time) at scattered positions, feeding a transform → virtual property
    /// → filter → aggregate pipeline with warehouse and console sinks.
    fn mixed_engine(seed: u64) -> Engine {
        let mut t = Topology::new();
        let edge = t.add_node(NodeSpec::edge("edge", 50.0));
        let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
        let spare = t.add_node(NodeSpec::edge("spare", 900_000.0));
        t.add_link(edge, hub, Duration::from_millis(1), 10_000_000)
            .unwrap();
        t.add_link(edge, spare, Duration::from_millis(2), 10_000_000)
            .unwrap();
        t.add_link(hub, spare, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let cfg = EngineConfig {
            migration_enabled: false,
            seed,
            ..Default::default()
        };
        let mut e = Engine::new(t, cfg, start());
        for i in 0..6u64 {
            e.add_sensor(Box::new(TemperatureSensor::new(
                SensorId(i),
                &format!("t{i}"),
                GeoPoint::new_unchecked(34.0 + i as f64 * 0.3, 135.0 + i as f64 * 0.2),
                edge,
                Duration::from_secs(2),
                false,
                false,
                seed.wrapping_add(i),
            )))
            .unwrap();
        }
        let flow = DataflowBuilder::new("p")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .transform("to_f", "temp", &[("temperature", "temperature * 1.8 + 32")])
            .virtual_property("flag", "to_f", "hot", "temperature > 80")
            .filter("keep", "flag", "temperature > -100")
            .aggregate(
                "avg",
                "keep",
                Duration::from_secs(20),
                &[],
                sl_ops::AggFunc::Avg,
                Some("temperature"),
            )
            .sink("edw", SinkKind::Warehouse, &["avg"])
            .sink("out", SinkKind::Console, &["keep"])
            .build()
            .unwrap();
        e.deploy(flow).unwrap();
        e
    }

    fn install_mixed_chaos(e: &mut Engine) {
        let victim = e.node_of("p", "avg").expect("aggregate placed");
        e.install_fault_plan(
            &sl_faults::FaultPlan::new()
                .sensor_stall(2, Duration::from_secs(10), Duration::from_secs(15))
                .corrupt_window(4, Duration::from_secs(20), Duration::from_secs(8))
                .node_crash(victim.0, Duration::from_secs(35))
                .node_restart(victim.0, Duration::from_secs(55)),
        );
    }

    /// Everything observable about a finished run, for whole-value
    /// comparison.
    #[derive(Debug, PartialEq)]
    struct RunDigest {
        warehouse: Vec<sl_stt::Event>,
        edw: u64,
        console_sink: u64,
        dlq: Vec<(DropReason, u64)>,
        ops: Vec<(String, String, u64, u64, u64)>,
        recovery: Vec<String>,
    }

    fn run_digest(e: &Engine) -> RunDigest {
        RunDigest {
            warehouse: e.warehouse().iter().cloned().collect(),
            edw: e.monitor().sink_count("p", "edw"),
            console_sink: e.monitor().sink_count("p", "out"),
            dlq: e.dlq().by_reason().collect(),
            ops: e
                .monitor()
                .all_ops()
                .map(|((d, o), c)| {
                    (
                        d.clone(),
                        o.clone(),
                        c.tuples_in(),
                        c.tuples_out(),
                        c.dropped(),
                    )
                })
                .collect(),
            recovery: e.monitor().recovery.clone(),
        }
    }

    fn mixed_run(seed: u64, with_faults: bool) -> RunDigest {
        let mut e = mixed_engine(seed);
        if with_faults {
            install_mixed_chaos(&mut e);
        }
        e.run_for(Duration::from_secs(90));
        run_digest(&e)
    }

    #[test]
    fn mixed_pipeline_produces_for_every_seed() {
        for seed in [1u64, 7, 42] {
            let d = mixed_run(seed, false);
            assert!(d.edw > 0, "seed {seed}: aggregate must reach the EDW");
            assert!(d.console_sink > 50, "seed {seed}: tuples must flow");
        }
        let mut e = mixed_engine(7);
        e.run_for(Duration::from_secs(60));
        let report = e.monitor().report(e.now());
        assert!(report.contains("depth="), "{report}");
    }

    #[test]
    fn chaos_run_dead_letters_and_replays_identically() {
        for seed in [7u64, 99] {
            let first = mixed_run(seed, true);
            assert!(
                first.dlq.iter().any(|(_, n)| *n > 0),
                "seed {seed}: chaos must dead-letter something"
            );
            assert_eq!(first, mixed_run(seed, true), "seed {seed}");
        }
    }

    #[test]
    fn split_run_matches_single_run() {
        // Stopping the clock halfway and resuming changes nothing.
        let whole = mixed_run(7, false);
        let mut e = mixed_engine(7);
        e.run_for(Duration::from_secs(45));
        e.run_for(Duration::from_secs(45));
        assert_eq!(whole, run_digest(&e));
    }
}
