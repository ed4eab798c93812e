//! The layer replay: one recorded episode driven through each layer's
//! public entry points, in tuple-path order, from outside the engine.
//!
//! 1. `sl_sensors::decode_payload` for every reading;
//! 2. `sl_pubsub::enrich::enrich`;
//! 3. the deployed operators, rebuilt with `OpSpec::instantiate` and
//!    driven with `on_tuple`, `on_timer` and `checkpoint` in topological
//!    order; a gated source is fed only while the live run had it active;
//! 4. `sl_warehouse::tuple_events` with `EventWarehouse::ingest_events`,
//!    and for the durable workload `DurableWarehouse::ingest_events` and
//!    `persist_checkpoint`;
//! 5. `CqHub::on_events`.
//!
//! Each layer runs as one timed pass over the whole episode, so calls far
//! shorter than a timer read (enrich takes tens of nanoseconds) are
//! reported per call from a batch. What the engine spends beyond the sum
//! of these layers is its own bookkeeping: `engine.residual_*`.

use crate::digest::canonical;
use crate::episode::{episode_start, events_digest, EpisodeResult, PROBE_NOMINAL_NS};
use crate::inputs::Recording;
use crate::report::{median, Run};
use crate::workload::{Workload, DEPLOY_OFFSET};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use streamloader::cq::{CqHub, QueuePolicy};
use streamloader::dataflow::{Dataflow, NodeKind};
use streamloader::dsn::SourceMode;
use streamloader::durable::DurableWarehouse;
use streamloader::ops::{OpCheckpoint, OpContext, Operator};
use streamloader::pubsub::enrich::{enrich, EnrichPolicy};
use streamloader::sensors::decode_payload;
use streamloader::stt::{Event, SchemaRef, SensorId, Timestamp, Tuple, Value};
use streamloader::warehouse::{tuple_events, EventQuery, EventWarehouse};

/// Wall nanoseconds, calls and allocations of one layer pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Wall nanoseconds.
    pub ns: u64,
    /// Entry-point calls.
    pub calls: u64,
    /// Allocation calls (0 without the counting allocator).
    pub allocs: u64,
}

impl Cost {
    /// Nanoseconds per call (0 with no calls).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    fn add(&mut self, ns: u64, calls: u64, allocs: u64) {
        self.ns += ns;
        self.calls += calls;
        self.allocs += allocs;
    }
}

/// What the layer replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Readings replayed.
    pub readings: u64,
    /// Wire decode.
    pub decode: Cost,
    /// Enrichment.
    pub enrich: Cost,
    /// `on_tuple` per metric kind (`filter`, `transform`, `vprop`,
    /// `aggregate`, `trigger`).
    pub ops: BTreeMap<&'static str, Cost>,
    /// `on_timer`.
    pub tick: Cost,
    /// `checkpoint`: the extra cost of a pass that checkpoints after every
    /// absorbed tuple and tick, over one that does not.
    pub checkpoint: Cost,
    /// Bytes of all checkpoints taken.
    pub checkpoint_bytes: u64,
    /// `tuple_events` + `EventWarehouse::ingest_events` per sink tuple.
    pub warehouse: Cost,
    /// `tuple_events` alone (part of `warehouse`).
    pub translate: Cost,
    /// `DurableWarehouse::ingest_events`.
    pub durable_ingest: Cost,
    /// `DurableWarehouse::persist_checkpoint`.
    pub persist: Cost,
    /// `CqHub::on_events`.
    pub cq: Cost,
    /// Events the replayed warehouse stored.
    pub events: u64,
    /// Digest of the replayed warehouse's events.
    pub digest: u64,
    /// The same digest from the live episode.
    pub live_digest: u64,
}

impl Replay {
    /// Nanoseconds and allocations the replayed layers account for, in
    /// total: what the engine would spend if it did nothing else. The
    /// durable workload's hot ingest happens inside the durable call, so
    /// its in-memory `warehouse` pass is not added twice.
    pub fn layer_total(&self, durable: bool) -> (u64, u64) {
        let mut parts = vec![
            self.decode,
            self.enrich,
            self.tick,
            self.checkpoint,
            self.cq,
        ];
        parts.extend(self.ops.values().copied());
        if durable {
            parts.extend([self.translate, self.durable_ingest, self.persist]);
        } else {
            parts.push(self.warehouse);
        }
        (
            parts.iter().map(|c| c.ns).sum(),
            parts.iter().map(|c| c.allocs).sum(),
        )
    }
}

/// Run `f` and return its wall nanoseconds and allocation calls.
fn raw<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let a0 = crate::allocs();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    (out, ns, crate::allocs() - a0)
}

/// The host-speed scale for a pass bracketed by two probes (see
/// [`crate::episode::HostClock`]).
fn scale(before: u64, after: u64) -> f64 {
    PROBE_NOMINAL_NS / ((before + after) as f64 / 2.0)
}

/// Like [`raw`], with the time normalized to the nominal host speed by
/// probes before and after.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = crate::probe_ns();
    let (out, ns, allocs) = raw(f);
    let s = scale(before, crate::probe_ns());
    (out, (ns as f64 * s) as u64, allocs)
}

/// One call an operator received in the live order.
#[derive(Clone)]
enum Call {
    Tuple(Timestamp, usize, Tuple),
    Timer(Timestamp),
}

/// A write the sinks and checkpoints made, in order.
enum Store {
    Ingest(Tuple),
    Checkpoint(String, String, OpCheckpoint),
}

struct OpSlot {
    dep: String,
    name: String,
    kind: &'static str,
    blocking: bool,
    period: Option<streamloader::stt::Duration>,
    inputs: Vec<SchemaRef>,
    spec: streamloader::ops::OpSpec,
    op: Box<dyn Operator>,
    calls: Vec<Call>,
}

/// Metric kind of an operator kind.
fn metric_kind(kind: &str) -> &'static str {
    match kind {
        "filter" => "filter",
        "transform" => "transform",
        "virtual_property" => "vprop",
        "aggregate" => "aggregate",
        "trigger_on" | "trigger_off" => "trigger",
        _ => "other",
    }
}

/// The functional replay: deployments rebuilt outside the engine.
struct Graph {
    slots: Vec<OpSlot>,
    /// (deployment, node) -> slot index, for operators.
    index: HashMap<(String, String), usize>,
    /// (deployment, producer) -> consumers (node, port).
    consumers: HashMap<(String, String), Vec<(String, usize)>>,
    /// (deployment, node) of warehouse sinks.
    sinks: HashSet<(String, String)>,
    /// Sources: deployment, name, schema, bound sensors, active.
    sources: Vec<(String, String, SchemaRef, Vec<SensorId>, bool)>,
    store: Vec<Store>,
    checkpoint_bytes: u64,
}

impl Graph {
    fn build(dataflows: &[Dataflow], live: &EpisodeResult) -> Result<Graph, String> {
        let mut g = Graph {
            slots: Vec::new(),
            index: HashMap::new(),
            consumers: HashMap::new(),
            sinks: HashSet::new(),
            sources: Vec::new(),
            store: Vec::new(),
            checkpoint_bytes: 0,
        };
        for df in dataflows {
            let dep = df.name.clone();
            let mut schemas: HashMap<String, SchemaRef> = HashMap::new();
            for (from, to, port) in df.edges() {
                g.consumers
                    .entry((dep.clone(), from))
                    .or_default()
                    .push((to, port));
            }
            for node in df.nodes() {
                match &node.kind {
                    NodeKind::Source { schema, mode, .. } => {
                        schemas.insert(node.name.clone(), schema.clone());
                        let bound = live
                            .bindings
                            .iter()
                            .find(|(d, s, _)| *d == dep && *s == node.name)
                            .map(|(_, _, b)| b.clone())
                            .unwrap_or_default();
                        g.sources.push((
                            dep.clone(),
                            node.name.clone(),
                            schema.clone(),
                            bound,
                            *mode == SourceMode::Active,
                        ));
                    }
                    NodeKind::Operator { spec } => {
                        let inputs: Vec<SchemaRef> =
                            node.inputs.iter().map(|i| schemas[i].clone()).collect();
                        let op = spec.instantiate(&inputs).map_err(|e| e.to_string())?;
                        schemas.insert(node.name.clone(), op.output_schema());
                        g.index
                            .insert((dep.clone(), node.name.clone()), g.slots.len());
                        g.slots.push(OpSlot {
                            dep: dep.clone(),
                            name: node.name.clone(),
                            kind: metric_kind(spec.kind()),
                            blocking: op.is_blocking(),
                            period: op.timer_period(),
                            inputs,
                            spec: spec.clone(),
                            op,
                            calls: Vec::new(),
                        });
                    }
                    NodeKind::Sink { .. } => {
                        g.sinks.insert((dep.clone(), node.name.clone()));
                    }
                }
            }
        }
        Ok(g)
    }

    /// Deliver `tuple` to `node` of `dep` and everything downstream.
    fn push(&mut self, now: Timestamp, dep: &str, node: &str, port: usize, tuple: Tuple) {
        let key = (dep.to_string(), node.to_string());
        if self.sinks.contains(&key) {
            self.store.push(Store::Ingest(tuple));
            return;
        }
        let Some(&i) = self.index.get(&key) else {
            return;
        };
        let slot = &mut self.slots[i];
        slot.calls.push(Call::Tuple(now, port, tuple.clone()));
        let mut ctx = OpContext::new(now);
        let ok = slot.op.on_tuple(port, tuple, &mut ctx).is_ok();
        if slot.blocking {
            if let Some(c) = slot.op.checkpoint() {
                self.checkpoint_bytes += c.byte_size() as u64;
                self.store
                    .push(Store::Checkpoint(slot.dep.clone(), slot.name.clone(), c));
            }
        }
        let (emitted, _) = ctx.take();
        if ok {
            self.forward(now, dep, node, emitted);
        }
    }

    fn forward(&mut self, now: Timestamp, dep: &str, from: &str, emitted: Vec<Tuple>) {
        let consumers = self
            .consumers
            .get(&(dep.to_string(), from.to_string()))
            .cloned()
            .unwrap_or_default();
        for t in emitted {
            for (to, port) in &consumers {
                self.push(now, dep, to, *port, t.clone());
            }
        }
    }

    /// Fire the ticks of `due` slots at `now`, then deliver what they
    /// emitted: a tick's output reaches the next operator after that
    /// operator's own tick at the same instant, as over the network.
    fn tick(&mut self, now: Timestamp, due: &[usize]) {
        let mut out = Vec::new();
        for &i in due {
            let slot = &mut self.slots[i];
            slot.calls.push(Call::Timer(now));
            let mut ctx = OpContext::new(now);
            let ok = slot.op.on_timer(now, &mut ctx).is_ok();
            if slot.blocking {
                if let Some(c) = slot.op.checkpoint() {
                    self.checkpoint_bytes += c.byte_size() as u64;
                    self.store
                        .push(Store::Checkpoint(slot.dep.clone(), slot.name.clone(), c));
                }
            }
            let (emitted, _) = ctx.take();
            if ok {
                out.push((slot.dep.clone(), slot.name.clone(), emitted));
            }
        }
        for (dep, name, emitted) in out {
            self.forward(now, &dep, &name, emitted);
        }
    }
}

/// Project a tuple onto a source schema, as the engine's fan-out does
/// (ints widen to floats; a missing attribute skips the source).
fn project(tuple: &Tuple, schema: &SchemaRef) -> Option<Tuple> {
    let mut values = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let v = tuple.get(&field.name).ok()?.clone();
        let v = match (v, field.ty) {
            (Value::Int(i), streamloader::stt::AttrType::Float) => Value::Float(i as f64),
            (v, _) => v,
        };
        values.push(v);
    }
    Tuple::new(schema.clone(), values, tuple.meta.clone()).ok()
}

/// Replay the recorded episode layer by layer. `live` is the live
/// episode, whose bindings and source activations gate the replay.
pub fn replay(
    workload: Workload,
    rec: &Recording,
    live: &EpisodeResult,
    tmp: &Path,
) -> Result<Replay, String> {
    let start = episode_start();
    let end = live.end;
    let mut r = Replay {
        live_digest: live.events_digest,
        ..Default::default()
    };

    // Readings in emission order. Those sampled at the very end are still
    // on the network when the live episode stops, so they are left out.
    let mut order: Vec<(Timestamp, usize, usize)> = Vec::new();
    for (s, track) in rec.tracks.iter().enumerate() {
        for (i, (at, _, _)) in track.readings.iter().enumerate() {
            if *at < end {
                order.push((*at, s, i));
            }
        }
    }
    order.sort();
    r.readings = order.len() as u64;

    // 1. decode.
    let (mut tuples, ns, allocs) = timed(|| {
        order
            .iter()
            .map(|&(_, s, i)| {
                let track = &rec.tracks[s];
                let (_, payload, raw) = &track.readings[i];
                decode_payload(payload, track.format, &track.ad.schema, raw.meta.clone())
                    .unwrap_or_else(|_| raw.clone())
            })
            .collect::<Vec<Tuple>>()
    });
    r.decode.add(ns, order.len() as u64, allocs);

    // 2. enrich.
    let policy = EnrichPolicy::default();
    let ((), ns, allocs) = timed(|| {
        for (t, &(at, s, _)) in tuples.iter_mut().zip(&order) {
            black_box(enrich(t, &rec.tracks[s].ad, at, &policy));
        }
    });
    r.enrich.add(ns, order.len() as u64, allocs);

    // 3. operators: a functional pass in live order records every call...
    let dataflows = workload.dataflows();
    let mut g = Graph::build(&dataflows, live)?;
    let deployed = start + DEPLOY_OFFSET;
    // Ticks fire every period from the deployment instant, one
    // `(instant, slots due)` entry per instant.
    let mut ticks: BTreeMap<Timestamp, Vec<usize>> = BTreeMap::new();
    for (i, slot) in g.slots.iter().enumerate() {
        if let Some(p) = slot.period {
            let mut at = deployed + p;
            while at <= end {
                ticks.entry(at).or_default().push(i);
                at += p;
            }
        }
    }
    let mut controls = live.controls.iter().peekable();
    let mut next_tick = ticks.into_iter().peekable();
    for (tuple, &(at, s, _)) in tuples.into_iter().zip(&order) {
        while let Some((t, due)) = next_tick.next_if(|(t, _)| *t <= at) {
            apply_controls(&mut g, &mut controls, t);
            g.tick(t, &due);
        }
        apply_controls(&mut g, &mut controls, at);
        if at < deployed {
            continue;
        }
        let sensor = rec.tracks[s].ad.id;
        let targets: Vec<(String, String, Tuple)> = g
            .sources
            .iter()
            .filter(|(_, _, _, bound, active)| *active && bound.contains(&sensor))
            .filter_map(|(dep, name, schema, _, _)| {
                project(&tuple, schema).map(|p| (dep.clone(), name.clone(), p))
            })
            .collect();
        for (dep, src, projected) in targets {
            g.forward(at, &dep, &src, vec![projected]);
        }
    }
    for (t, due) in next_tick {
        apply_controls(&mut g, &mut controls, t);
        g.tick(t, &due);
    }
    r.checkpoint_bytes = g.checkpoint_bytes;

    // ...then each operator replays its calls twice on a fresh instance,
    // without and with checkpoints, as timed passes.
    for slot in &g.slots {
        let (plain, ticks) = drive(slot, false)?;
        let (with, _) = drive(slot, true)?;
        let tuples = slot
            .calls
            .iter()
            .filter(|c| matches!(c, Call::Tuple(..)))
            .count() as u64;
        r.ops.entry(slot.kind).or_default().add(
            plain.ns.saturating_sub(ticks.ns),
            tuples,
            plain.allocs.saturating_sub(ticks.allocs),
        );
        r.tick.add(ticks.ns, ticks.calls, ticks.allocs);
        if slot.blocking {
            r.checkpoint.add(
                with.ns.saturating_sub(plain.ns),
                slot.calls.len() as u64,
                with.allocs.saturating_sub(plain.allocs),
            );
        }
    }

    // 4. warehouse (and durable tier), 5. continuous queries.
    let sink_tuples: Vec<&Tuple> = g
        .store
        .iter()
        .filter_map(|s| match s {
            Store::Ingest(t) => Some(t),
            Store::Checkpoint(..) => None,
        })
        .collect();
    let config = workload.engine_config();
    let (batches, ns, allocs) = timed(|| {
        sink_tuples
            .iter()
            .map(|t| tuple_events(t, config.warehouse_tgran, config.warehouse_sgran))
            .collect::<Vec<Vec<Event>>>()
    });
    r.translate.add(ns, sink_tuples.len() as u64, allocs);
    r.warehouse.add(ns, sink_tuples.len() as u64, allocs);
    let copies = batches.clone();
    let mut wh = EventWarehouse::with_defaults();
    let ((), ns, allocs) = timed(|| {
        for b in copies {
            black_box(wh.ingest_events(b));
        }
    });
    r.warehouse.add(ns, 0, allocs);
    let stored = canonical(wh.iter());
    drop(wh);

    let dir = tmp.join(format!("layer-replay-{}", std::process::id()));
    let stored = match workload.durable_config(&dir) {
        None => stored,
        Some(dcfg) => {
            let mut dw = DurableWarehouse::open(dcfg).map_err(|e| e.to_string())?;
            let mut copies = batches.clone().into_iter();
            let before = crate::probe_ns();
            for s in &g.store {
                match s {
                    Store::Ingest(_) => {
                        let b = copies.next().unwrap_or_default();
                        let (res, ns, allocs) = raw(|| dw.ingest_events(b));
                        res.map_err(|e| e.to_string())?;
                        r.durable_ingest.add(ns, 1, allocs);
                    }
                    Store::Checkpoint(dep, svc, c) => {
                        let (res, ns, allocs) = raw(|| dw.persist_checkpoint(dep, svc, c));
                        res.map_err(|e| e.to_string())?;
                        r.persist.add(ns, 1, allocs);
                    }
                }
            }
            let s = scale(before, crate::probe_ns());
            for c in [&mut r.durable_ingest, &mut r.persist] {
                c.ns = (c.ns as f64 * s) as u64;
            }
            let all = dw
                .query_scan(&EventQuery::all())
                .map_err(|e| e.to_string())?;
            drop(dw);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            canonical(all)
        }
    };
    r.events = stored.len() as u64;
    r.digest = events_digest(&stored);

    let views = workload.views();
    let subs = workload.subscriptions();
    if !views.is_empty() || !subs.is_empty() {
        let mut hub = CqHub::new();
        for (name, q) in views {
            hub.register_view(name, q, std::iter::empty());
        }
        for (name, q) in subs {
            hub.subscribe(name, q, None, QueuePolicy::Block);
        }
        let ((), ns, allocs) = timed(|| {
            for b in &batches {
                hub.on_events(b);
            }
        });
        r.cq.add(ns, batches.len() as u64, allocs);
    }
    Ok(r)
}

/// Apply the live run's source (de)activations up to `now`.
fn apply_controls<'a>(
    g: &mut Graph,
    controls: &mut std::iter::Peekable<impl Iterator<Item = &'a crate::episode::Control>>,
    now: Timestamp,
) {
    while let Some(c) = controls.peek() {
        if c.at > now {
            break;
        }
        for (dep, name, _, _, active) in g.sources.iter_mut() {
            if *dep == c.deployment && c.targets.contains(name) {
                *active = c.activate;
            }
        }
        controls.next();
    }
}

/// Replay one operator's recorded calls on a fresh instance; returns the
/// whole pass and its ticks alone.
fn drive(slot: &OpSlot, checkpoints: bool) -> Result<(Cost, Cost), String> {
    let mut op = slot
        .spec
        .instantiate(&slot.inputs)
        .map_err(|e| e.to_string())?;
    let calls = slot.calls.clone();
    let mut ticks = Cost::default();
    let before = crate::probe_ns();
    let a0 = crate::allocs();
    let t0 = Instant::now();
    for call in calls {
        match call {
            Call::Tuple(now, port, tuple) => {
                let mut ctx = OpContext::new(now);
                let _ = black_box(op.on_tuple(port, tuple, &mut ctx));
                black_box(ctx.take());
            }
            Call::Timer(now) => {
                let ta = crate::allocs();
                let t = Instant::now();
                let mut ctx = OpContext::new(now);
                let _ = black_box(op.on_timer(now, &mut ctx));
                black_box(ctx.take());
                ticks.add(t.elapsed().as_nanos() as u64, 1, crate::allocs() - ta);
            }
        }
        if checkpoints && slot.blocking {
            black_box(op.checkpoint());
        }
    }
    let mut whole = Cost {
        ns: t0.elapsed().as_nanos() as u64,
        calls: slot.calls.len() as u64,
        allocs: crate::allocs() - a0,
    };
    let s = scale(before, crate::probe_ns());
    whole.ns = (whole.ns as f64 * s) as u64;
    ticks.ns = (ticks.ns as f64 * s) as u64;
    Ok((whole, ticks))
}

/// Per-layer metrics of a traced run.
pub fn metrics(workload: Workload, run: &Run, r: &Replay) -> BTreeMap<String, f64> {
    let eps = &run.episodes;
    let e = eps.last().unwrap_or(&run.live);
    let readings = e.readings.max(1) as f64;
    let per = |v: u64| v as f64 / readings;
    let ms = |ns: f64| ns / 1e6;
    let step = |name: &str| {
        let v: Vec<f64> = eps
            .iter()
            .filter_map(|e| e.setup_steps.iter().find(|(n, _)| *n == name))
            .map(|(_, ns)| *ns as f64)
            .collect();
        median(&v)
    };
    let query = |kind: &str| {
        let v: Vec<f64> = eps
            .iter()
            .flat_map(|e| e.queries.iter())
            .filter(|(k, _)| *k == kind)
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        median(&v)
    };
    let ratio = |pairs: &dyn Fn(&EpisodeResult) -> (u64, u64)| {
        let (a, b) = eps
            .iter()
            .map(pairs)
            .fold((0, 0), |acc, (a, b)| (acc.0 + a, acc.1 + b));
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    };
    let durable = workload.durable_config(Path::new(".")).is_some();
    // Live cost per reading in the same binary, from the replayed episodes.
    let live_ns: Vec<f64> = eps
        .iter()
        .map(|e| e.slice_norm.iter().sum::<f64>() / e.readings.max(1) as f64)
        .collect();
    let (layer_ns, layer_allocs) = r.layer_total(durable);
    let rr = r.readings.max(1) as f64;
    let op = |k: &str| r.ops.get(k).map_or(0.0, Cost::per_call);
    let tuple_calls: u64 = r.ops.values().map(|c| c.calls).sum();

    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put(
        "sensors.emit_ns",
        run.recording.emit_ns as f64 / run.recording.len().max(1) as f64,
    );
    put("sensors.decode_ns", r.decode.per_call());
    put("pubsub.enrich_ns", r.enrich.per_call());
    put("pubsub.bind_ms", ms(step("bind")));
    put("netsim.msgs_per_reading", per(e.counters.net_msgs));
    put("netsim.bytes_per_reading", per(e.counters.net_bytes));
    put(
        "engine.residual_ns_per_reading",
        median(&live_ns) - layer_ns as f64 / rr,
    );
    put(
        "engine.residual_allocs_per_reading",
        per(e.slice_allocs) - layer_allocs as f64 / rr,
    );
    put("engine.events_per_reading", per(e.counters.events));
    put("engine.dlq_tuples", e.counters.dlq as f64);
    put("ops.filter_ns", op("filter"));
    put("ops.transform_ns", op("transform"));
    put("ops.vprop_ns", op("vprop"));
    put("ops.aggregate_ns", op("aggregate"));
    put("ops.trigger_ns", op("trigger"));
    put("ops.tick_ns", r.tick.per_call());
    put("ops.tuples_per_reading", tuple_calls as f64 / rr);
    put("ops.checkpoint_ns", r.checkpoint.per_call());
    put(
        "ops.checkpoint_bytes_per_reading",
        r.checkpoint_bytes as f64 / rr,
    );
    put(
        "ops.checkpoint_allocs_per_reading",
        r.checkpoint.allocs as f64 / rr,
    );
    put("warehouse.ingest_ns", r.warehouse.per_call());
    put(
        "warehouse.events_per_reading",
        per(e.counters.warehouse_events),
    );
    put("warehouse.query_hot_us", query("hot"));
    put("warehouse.rollup_us", query("rollup"));
    put("durable.ingest_ns", r.durable_ingest.per_call());
    put("durable.persist_checkpoint_ns", r.persist.per_call());
    put(
        "durable.fsyncs_per_kreading",
        per(e.counters.fsyncs) * 1000.0,
    );
    put(
        "durable.write_bytes_per_reading",
        per(e.counters.write_bytes),
    );
    put("durable.log_bytes_per_reading", per(e.log_bytes));
    put("durable.segments", e.counters.segments as f64);
    put("durable.compactions", e.counters.compactions as f64);
    put("durable.query_cold_us", query("cold"));
    put(
        "durable.open_ms",
        median(
            &eps.iter()
                .filter_map(|e| e.reopen_ns)
                .map(|ns| ns as f64)
                .collect::<Vec<_>>(),
        ) / 1e6,
    );
    put("cq.on_events_ns", r.cq.per_call());
    put("cq.deltas_per_reading", per(e.counters.deltas));
    put("cq.poll_us", ratio(&|e| e.poll) / 1e3);
    put("cq.view_read_us", ratio(&|e| e.view_read) / 1e3);
    put("deploy.lint_ms", ms(step("lint")));
    put("deploy.deploy_ms", ms(step("deploy")));
    m
}
