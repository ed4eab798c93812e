//! One episode: set up a fresh engine, advance it slice by slice through a
//! fixed stretch of virtual time, answer the dashboard queries due on the
//! way, check every answer against its oracle, and digest the outputs.

use crate::digest::{canonical, Fnv};
use crate::inputs::{live_sims, Recording, Tally};
use crate::workload::{Query, Workload, DEPLOY_OFFSET};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use streamloader::durable::DurableWarehouse;
use streamloader::engine::{EngineError, OverflowPolicy, SubscriberId, ViewId};
use streamloader::netsim::Topology;
use streamloader::sensors::SensorSim;
use streamloader::stt::{Event, SensorId, Timestamp};
use streamloader::warehouse::{CubeQuery, EventQuery};
use streamloader::StreamLoader;

/// The virtual instant every episode starts at.
pub fn episode_start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 8, 0, 0)
}

/// Where an episode's readings come from.
pub enum Source<'a> {
    /// The real `sl-sensors` generators.
    Live,
    /// The pre-generated recording.
    Replay(&'a Recording),
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`episode`, `setup.lint`, `slice`, `query.cold`, ...).
    pub name: String,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// End, in nanoseconds since the run began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the first reading the span covers (readings are numbered in
    /// emission order within an episode; 0 when none).
    pub reading: u64,
}

/// In-memory span recorder. Disabled recorders cost one branch per span.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record a finished span from two instants; returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        reading: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            parent,
            reading,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span whose end is filled in by [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, reading: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, reading)
    }

    /// Close a span opened with [`Spans::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }
}

/// Test hooks and switches for one episode.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Corrupt the answer of the n-th query of the episode before it is
    /// checked (self-test of the oracles).
    pub corrupt_query: Option<usize>,
    /// Shorten the episode to this many slices (self-tests).
    pub max_slices: Option<usize>,
}

/// A source (de)activation the engine applied, from the monitor's log.
#[derive(Debug, Clone)]
pub struct Control {
    /// When it was applied.
    pub at: Timestamp,
    /// Deployment.
    pub deployment: String,
    /// Sources switched.
    pub targets: Vec<String>,
    /// Activation (true) or deactivation.
    pub activate: bool,
}

/// Counters read from the engine after the episode.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Network messages sent.
    pub net_msgs: u64,
    /// Network bytes sent.
    pub net_bytes: u64,
    /// Engine events handled (sum over event kinds).
    pub events: u64,
    /// Tuples dead-lettered.
    pub dlq: u64,
    /// Events the warehouse stored (both tiers).
    pub warehouse_events: u64,
    /// fsync calls of the durable log.
    pub fsyncs: u64,
    /// Bytes appended to the durable log.
    pub write_bytes: u64,
    /// Segments at episode end.
    pub segments: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Deltas fanned out to subscribers.
    pub deltas: u64,
}

/// Everything measured and checked in one episode.
#[derive(Debug, Clone, Default)]
pub struct EpisodeResult {
    /// Readings the sensors emitted.
    pub readings: u64,
    /// Virtual instant the episode stopped at.
    pub end: Timestamp,
    /// Set-up wall time per step (`open`, `bind`, `lint`, `deploy`,
    /// `register`), nanoseconds.
    pub setup_steps: Vec<(&'static str, u64)>,
    /// Wall nanoseconds of each `run_until` slice.
    pub slice_ns: Vec<u64>,
    /// The same, normalized to the nominal host speed (see [`HostClock`]).
    pub slice_norm: Vec<f64>,
    /// Set-up wall nanoseconds, normalized.
    pub setup_norm: f64,
    /// Query wall nanoseconds, normalized, in `queries` order.
    pub query_norm: Vec<f64>,
    /// Host-speed probes taken.
    pub probes: u64,
    /// Allocation calls made inside the slices (0 without the counting
    /// allocator).
    pub slice_allocs: u64,
    /// Wall nanoseconds per query, with its kind.
    pub queries: Vec<(&'static str, u64)>,
    /// Wall nanoseconds spent polling subscribers, and polls made.
    pub poll: (u64, u64),
    /// Wall nanoseconds spent reading views, and views read.
    pub view_read: (u64, u64),
    /// Readings plus queries attempted.
    pub attempted: u64,
    /// Dead-lettered readings, wrong answers and `Err` returns.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub problems: Vec<String>,
    /// Digest of the episode's outputs.
    pub digest: u64,
    /// Wall nanoseconds of the timed reopen (durable workload).
    pub reopen_ns: Option<u64>,
    /// Bytes on disk after the episode (durable workload).
    pub log_bytes: u64,
    /// Engine counters.
    pub counters: Counters,
    /// Source activations the engine applied.
    pub controls: Vec<Control>,
    /// Sensors bound to each `(deployment, source)`.
    pub bindings: Vec<(String, String, Vec<SensorId>)>,
    /// Digest of the stored events alone (the part of [`EpisodeResult::digest`]
    /// the layer replay reproduces).
    pub events_digest: u64,
}

impl EpisodeResult {
    /// Total set-up wall nanoseconds.
    pub fn setup_ns(&self) -> u64 {
        self.setup_steps.iter().map(|(_, ns)| ns).sum()
    }

    /// Total wall nanoseconds inside `run_until`.
    pub fn slices_ns(&self) -> u64 {
        self.slice_ns.iter().sum()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Nominal duration of [`crate::probe_ns`] on a quiet 2 GHz core.
pub const PROBE_NOMINAL_NS: f64 = 200_000.0;

/// Normalizes wall times to a nominal host speed. The benchmark shares
/// its cores with other tenants, whose load changes the speed of every
/// instruction by tens of percent within seconds. Every few milliseconds
/// of measured work the clock runs [`crate::probe_ns`], a fixed kernel;
/// each measured interval is then scaled by the nominal probe time over
/// the mean of the probes that bracket it.
pub struct HostClock {
    last_probe: u64,
    pending: Vec<f64>,
    pending_ns: u64,
    /// Normalized intervals, in the order they were added (an interval's
    /// index is the ticket [`HostClock::add`] returned).
    pub done: Vec<f64>,
    /// Probes taken.
    pub probes: u64,
}

/// Measured work between two probes.
const PROBE_EVERY_NS: u64 = 4_000_000;

impl HostClock {
    /// Start with a probe.
    pub fn new() -> HostClock {
        HostClock {
            last_probe: crate::probe_ns(),
            pending: Vec::new(),
            pending_ns: 0,
            done: Vec::new(),
            probes: 1,
        }
    }

    /// Add one measured interval, returning its ticket; probes when
    /// enough work has gone by.
    pub fn add(&mut self, ns: u64) -> usize {
        let ticket = self.done.len() + self.pending.len();
        self.pending.push(ns as f64);
        self.pending_ns += ns;
        if self.pending_ns >= PROBE_EVERY_NS {
            self.flush();
        }
        ticket
    }

    /// Probe now and normalize every pending interval.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let probe = crate::probe_ns();
        self.probes += 1;
        let scale = PROBE_NOMINAL_NS / ((self.last_probe + probe) as f64 / 2.0);
        self.done
            .extend(self.pending.drain(..).map(|ns| ns * scale));
        self.pending_ns = 0;
        self.last_probe = probe;
    }
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock::new()
    }
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A directory under `tmp` no episode of this process has used.
fn fresh_dir(tmp: &Path, workload: Workload) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    tmp.join(format!("{}-{}-{n}", workload.name(), std::process::id()))
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn err(e: EngineError) -> String {
    e.to_string()
}

/// An answer waiting for its oracle at episode end (cold queries: the
/// oracle is a full scan of the reopened log).
struct Pending {
    query: EventQuery,
    answer: Vec<String>,
}

/// Dashboard registrations of one episode.
struct Dashboard {
    views: Vec<(ViewId, CubeQuery)>,
    subs: Vec<(SubscriberId, EventQuery)>,
    /// Hub sequence number at each subscriber's previous poll.
    seen: Vec<u64>,
    /// Refreshes answered so far.
    refreshes: usize,
}

/// Views are checked against a full `rollup_scan` on every this many
/// refreshes (the first included): the scan costs milliseconds per view,
/// and checking every refresh would triple the length of a run.
const VIEW_CHECK_EVERY: usize = 6;

/// Run one episode of `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    source: Source<'_>,
    tmp: &Path,
    opts: &Options,
    spans: &mut Spans,
) -> Result<EpisodeResult, String> {
    let shape = workload.shape();
    let start = episode_start();
    let tally = Arc::new(Tally::default());
    let sims: Vec<Box<dyn SensorSim>> = match source {
        Source::Live => live_sims(workload, seed, &tally),
        Source::Replay(rec) => rec.sims(&tally),
    };
    let dataflows = workload.dataflows();
    let dir = fresh_dir(tmp, workload);
    let durable = workload.durable_config(&dir);
    let mut res = EpisodeResult::default();
    let episode_span = spans.open("episode", None, 0);

    let (mut session, mut dash) = set_up(
        workload,
        sims,
        &dataflows,
        &durable,
        &mut res,
        spans,
        episode_span,
    )?;

    // Timed slices, with the dashboard queries due between them.
    let mut slices = (shape.episode.as_millis() / shape.slice.as_millis()) as usize;
    if let Some(m) = opts.max_slices {
        slices = slices.min(m);
    }
    let mut pending: Vec<Pending> = Vec::new();
    let mut query_no = 0usize;
    let mut clock = HostClock::new();
    let mut slice_tickets = Vec::new();
    let mut query_tickets = Vec::new();
    for k in 1..=slices {
        let deadline =
            start + streamloader::stt::Duration::from_millis(shape.slice.as_millis() * k as u64);
        let first_reading = tally.emitted();
        let a0 = crate::allocs();
        let t = Instant::now();
        session.engine_mut().run_until(deadline);
        let t1 = Instant::now();
        res.slice_allocs += crate::allocs() - a0;
        res.slice_ns.push(t1.duration_since(t).as_nanos() as u64);
        slice_tickets.push(clock.add(t1.duration_since(t).as_nanos() as u64));
        spans.record("slice", t, t1, episode_span, first_reading);

        let offset = deadline.since(start);
        if offset >= shape.queries_from
            && (offset.as_millis() - shape.queries_from.as_millis())
                .is_multiple_of(shape.query_every.as_millis())
        {
            for q in workload.queries(start, deadline) {
                let before = res.queries.len();
                let corrupt = opts.corrupt_query == Some(query_no);
                query_no += 1;
                res.attempted += 1;
                if let Err(e) = answer(
                    &mut session,
                    &q,
                    corrupt,
                    &mut dash,
                    &mut pending,
                    &mut res,
                    spans,
                    episode_span,
                ) {
                    res.fail(format!("{} query at {deadline}: {e}", q.kind()));
                }
                if let Some((_, ns)) = res.queries.get(before) {
                    query_tickets.push(clock.add(*ns));
                }
            }
        }
    }
    clock.flush();
    res.slice_norm = slice_tickets.iter().map(|&i| clock.done[i]).collect();
    res.query_norm = query_tickets.iter().map(|&i| clock.done[i]).collect();
    res.probes += clock.probes;
    spans.close(episode_span);
    res.end =
        start + streamloader::stt::Duration::from_millis(shape.slice.as_millis() * slices as u64);

    // Counters and the output digest.
    res.readings = tally.emitted();
    res.attempted += res.readings;
    if tally.misses() > 0 {
        res.fail(format!(
            "{} emissions off the recorded schedule",
            tally.misses()
        ));
    }
    let engine = session.engine();
    let snap = engine.metrics_snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    res.counters = Counters {
        net_msgs: engine.net_stats().total_msgs(),
        net_bytes: engine.net_stats().total_bytes(),
        events: snap
            .hists
            .iter()
            .filter(|(k, _)| k.starts_with("engine/ev/"))
            .map(|(_, h)| h.count)
            .sum(),
        dlq: engine.dlq().total(),
        warehouse_events: 0,
        fsyncs: counter("durable/log/fsyncs"),
        write_bytes: counter("durable/log/bytes_written"),
        segments: engine
            .durable_warehouse()
            .map_or(0, |d| d.segment_count() as u64),
        compactions: counter("engine/maintenance/compactions"),
        deltas: counter("cq/fanout_deltas"),
    };
    if res.counters.dlq > 0 {
        res.failed += res.counters.dlq;
        res.problems.push(format!(
            "{} readings dead-lettered: {:?}",
            res.counters.dlq,
            engine.monitor().dead_letters
        ));
    }
    for line in &engine.monitor().console {
        if line.contains("error") {
            res.fail(line.clone());
        }
    }
    res.controls = engine
        .monitor()
        .controls
        .iter()
        .map(|c| Control {
            at: c.at,
            deployment: c.deployment.clone(),
            targets: c.action.targets().to_vec(),
            activate: c.action.is_activate(),
        })
        .collect();

    for df in &dataflows {
        for src in df.sources() {
            let bound = engine.bound_sensors(&df.name, &src.name);
            res.bindings
                .push((df.name.clone(), src.name.clone(), bound));
        }
    }
    let mut digest = Fnv::default();
    digest.text(&format!("readings {}", res.readings));
    for df in &dataflows {
        for sink in df.sinks() {
            let n = engine.monitor().sink_count(&df.name, &sink.name);
            digest.text(&format!("sink {}/{} {n}", df.name, sink.name));
        }
    }
    digest.text(&format!("dead letters {:?}", engine.monitor().dead_letters));
    for c in &res.controls {
        digest.text(&format!("control {c:?}"));
    }
    for (id, _) in &dash.views {
        digest.text(&format!("view {:?}", engine.view_cells(*id).map_err(err)?));
    }

    let events = match durable {
        None => canonical(engine.warehouse().iter()),
        Some(dcfg) => {
            // Drop the engine, time a reopen of its directory, check the
            // deferred answers against full scans of the reopened log, then
            // delete the directory.
            drop(session);
            res.log_bytes = dir_bytes(&dir);
            let t = Instant::now();
            let mut dw = DurableWarehouse::open(dcfg).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            res.reopen_ns = Some(t1.duration_since(t).as_nanos() as u64);
            spans.record("reopen", t, t1, None, 0);
            for p in pending.drain(..) {
                let oracle = canonical(dw.query_scan(&p.query).map_err(|e| e.to_string())?);
                if oracle != p.answer {
                    res.fail(format!(
                        "cold query answered {} events, full scan finds {}",
                        p.answer.len(),
                        oracle.len()
                    ));
                }
            }
            let all = dw
                .query_scan(&EventQuery::all())
                .map_err(|e| e.to_string())?;
            drop(dw);
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
            if dir.exists() {
                return Err(format!("{} is left behind", dir.display()));
            }
            canonical(all)
        }
    };
    res.counters.warehouse_events = events.len() as u64;
    res.events_digest = events_digest(&events);
    digest.text(&format!("events {:016x}", res.events_digest));
    res.digest = digest.finish();
    Ok(res)
}

/// Set-up, from empty to ready: open the engine (and its durable
/// directory), bind the sensors, lint and deploy the dataflows, register
/// the views and subscribers. Records the step times in `res`.
fn set_up(
    workload: Workload,
    sims: Vec<Box<dyn SensorSim>>,
    dataflows: &[streamloader::dataflow::Dataflow],
    durable: &Option<streamloader::durable::DurableConfig>,
    res: &mut EpisodeResult,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(StreamLoader, Dashboard), String> {
    let start = episode_start();
    let config = workload.engine_config();
    let mut setup_clock = HostClock::new();
    let setup_span = spans.open("setup", parent, 0);
    let t = Instant::now();
    let mut session = match &durable {
        Some(d) => StreamLoader::open_durable(Topology::nict_testbed(), config, start, d.clone()),
        None => StreamLoader::new(Topology::nict_testbed(), config, start),
    }
    .map_err(err)?;
    res.setup_steps.push(("open", since(t)));
    spans.record("setup.open", t, Instant::now(), setup_span, 0);
    let t = Instant::now();
    for sim in sims {
        session.add_sensor(sim).map_err(err)?;
    }
    res.setup_steps.push(("bind", since(t)));
    spans.record("setup.bind", t, Instant::now(), setup_span, 0);
    // Not set-up work: virtual time advances to the deployment instant
    // (the readings sampled meanwhile are decoded and reach no dataflow).
    session.engine_mut().run_until(start + DEPLOY_OFFSET);
    let t = Instant::now();
    for df in dataflows {
        let report = session.lint_deployment(df, None);
        if report.error_count() > 0 {
            return Err(format!("lint rejects {}:\n{}", df.name, report.render()));
        }
    }
    res.setup_steps.push(("lint", since(t)));
    spans.record("setup.lint", t, Instant::now(), setup_span, 0);
    let t = Instant::now();
    for df in dataflows {
        session.deploy(df.clone()).map_err(err)?;
    }
    res.setup_steps.push(("deploy", since(t)));
    spans.record("setup.deploy", t, Instant::now(), setup_span, 0);
    let t = Instant::now();
    let mut dash = Dashboard {
        views: Vec::new(),
        subs: Vec::new(),
        seen: Vec::new(),
        refreshes: 0,
    };
    for (name, q) in workload.views() {
        dash.views.push((session.view(name, q.clone()), q));
    }
    for (name, q) in workload.subscriptions() {
        let id = session.subscribe(name, q.clone(), None, OverflowPolicy::Block);
        dash.subs.push((id, q));
        dash.seen.push(0);
    }
    res.setup_steps.push(("register", since(t)));
    spans.record("setup.register", t, Instant::now(), setup_span, 0);
    spans.close(setup_span);
    setup_clock.add(res.setup_ns());
    setup_clock.flush();
    res.setup_norm = setup_clock.done[0];
    res.probes += setup_clock.probes;

    Ok((session, dash))
}

/// Set up a replayed episode's engine and tear it down again without
/// running it; returns the normalized set-up nanoseconds. Runs add set-up
/// samples this way, so `setup_s` is a median over many set-ups.
pub fn setup_only(
    workload: Workload,
    rec: &Recording,
    tmp: &Path,
    spans: &mut Spans,
) -> Result<f64, String> {
    let tally = Arc::new(Tally::default());
    let dir = fresh_dir(tmp, workload);
    let durable = workload.durable_config(&dir);
    let mut res = EpisodeResult::default();
    let (session, _) = set_up(
        workload,
        rec.sims(&tally),
        &workload.dataflows(),
        &durable,
        &mut res,
        spans,
        None,
    )?;
    drop(session);
    if durable.is_some() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Ok(res.setup_norm)
}

/// Answer one dashboard query (timed), then check it (untimed).
#[allow(clippy::too_many_arguments)]
fn answer(
    session: &mut StreamLoader,
    q: &Query,
    corrupt: bool,
    dash: &mut Dashboard,
    pending: &mut Vec<Pending>,
    res: &mut EpisodeResult,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(), String> {
    let name = match q {
        Query::Hot(_) => "query.hot",
        Query::Cold(_) => "query.cold",
        Query::Rollup(_) => "query.rollup",
        Query::Refresh => "query.refresh",
    };
    match q {
        Query::Hot(eq) | Query::Cold(eq) => {
            let t = Instant::now();
            let got = session.query_warehouse(eq);
            let t1 = Instant::now();
            res.queries
                .push((q.kind(), t1.duration_since(t).as_nanos() as u64));
            spans.record(name, t, t1, parent, 0);
            let mut got = got.map_err(err)?;
            if corrupt {
                got.pop();
            }
            if let Query::Cold(_) = q {
                pending.push(Pending {
                    query: eq.clone(),
                    answer: canonical(&got),
                });
                return Ok(());
            }
            let oracle: Vec<Event> = session
                .engine()
                .warehouse()
                .query_scan(eq)
                .into_iter()
                .cloned()
                .collect();
            if got != oracle {
                return Err(format!(
                    "{} events answered, full scan finds {}",
                    got.len(),
                    oracle.len()
                ));
            }
        }
        Query::Rollup(cq) => {
            let t = Instant::now();
            let mut got = session.rollup(cq);
            let t1 = Instant::now();
            res.queries
                .push((q.kind(), t1.duration_since(t).as_nanos() as u64));
            spans.record(name, t, t1, parent, 0);
            if corrupt {
                got.pop();
            }
            if got != session.engine().warehouse().rollup_scan(cq) {
                return Err("roll-up differs from rollup_scan".into());
            }
        }
        Query::Refresh => {
            let t = Instant::now();
            let cells: Vec<_> = dash
                .views
                .iter()
                .map(|(id, _)| session.view_cells(*id))
                .collect();
            let t1 = Instant::now();
            let polls: Vec<_> = dash
                .subs
                .iter()
                .map(|(id, _)| session.poll_deltas(*id))
                .collect();
            let t2 = Instant::now();
            res.queries
                .push((q.kind(), t2.duration_since(t).as_nanos() as u64));
            res.view_read.0 += t1.duration_since(t).as_nanos() as u64;
            res.view_read.1 += cells.len() as u64;
            res.poll.0 += t2.duration_since(t1).as_nanos() as u64;
            res.poll.1 += polls.len() as u64;
            let span = spans.record(name, t, t2, parent, 0);
            spans.record("view_read", t, t1, span, 0);
            spans.record("poll", t1, t2, span, 0);

            // Check everything before reporting the first mismatch, so that
            // every subscriber's poll position advances even when one
            // answer is wrong (a failure counts once, not in every later
            // refresh).
            let wh = session.engine().warehouse();
            let mut problem = None;
            let hot: Vec<&Event> = wh.iter().collect();
            for (i, (poll, (_, sq))) in polls.into_iter().zip(&dash.subs).enumerate() {
                let poll = poll.map_err(err)?;
                let fresh = (poll.seq - dash.seen[i]) as usize;
                dash.seen[i] = poll.seq;
                let expected: Vec<&Event> = hot[hot.len().saturating_sub(fresh)..]
                    .iter()
                    .copied()
                    .filter(|e| sq.matches(e))
                    .collect();
                let got: Vec<&Event> = poll.deltas.iter().collect();
                if poll.lagged || poll.dropped > 0 {
                    problem.get_or_insert(format!("subscriber {i} lost deltas"));
                } else if fresh > hot.len() || got != expected {
                    problem.get_or_insert(format!(
                        "subscriber {i} polled {} deltas, expected {}",
                        got.len(),
                        expected.len()
                    ));
                }
            }
            let check_views = dash.refreshes.is_multiple_of(VIEW_CHECK_EVERY);
            dash.refreshes += 1;
            for (i, (got, (_, vq))) in cells.into_iter().zip(&dash.views).enumerate() {
                let mut got = got.map_err(err)?;
                if corrupt && i == 0 {
                    got.pop();
                }
                if check_views && got != wh.rollup_scan(vq) {
                    problem.get_or_insert(format!("view {i} differs from rollup_scan"));
                }
            }
            if let Some(p) = problem {
                return Err(p);
            }
        }
    }
    Ok(())
}

/// Digest of canonical event renderings (see [`canonical`]).
pub fn events_digest(events: &[String]) -> u64 {
    let mut d = Fnv::default();
    d.text(&format!("events {}", events.len()));
    for e in events {
        d.text(e);
    }
    d.finish()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
