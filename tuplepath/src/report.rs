//! The three modes and the result line they print.

use crate::episode::{self, EpisodeResult, Source, Spans};
use crate::inputs::Recording;
use crate::layers;
use crate::{peak_rss_mib, Args, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ingest_tps", "1/s"),
    ("slice_p50_ms", "ms"),
    ("slice_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("allocs_per_reading", "count"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sensors.emit_ns", "ns"),
    ("sensors.decode_ns", "ns"),
    ("pubsub.enrich_ns", "ns"),
    ("pubsub.bind_ms", "ms"),
    ("netsim.msgs_per_reading", "count"),
    ("netsim.bytes_per_reading", "B"),
    ("engine.residual_ns_per_reading", "ns"),
    ("engine.residual_allocs_per_reading", "count"),
    ("engine.events_per_reading", "count"),
    ("engine.dlq_tuples", "count"),
    ("ops.filter_ns", "ns"),
    ("ops.transform_ns", "ns"),
    ("ops.vprop_ns", "ns"),
    ("ops.aggregate_ns", "ns"),
    ("ops.trigger_ns", "ns"),
    ("ops.tick_ns", "ns"),
    ("ops.tuples_per_reading", "count"),
    ("ops.checkpoint_ns", "ns"),
    ("ops.checkpoint_bytes_per_reading", "B"),
    ("ops.checkpoint_allocs_per_reading", "count"),
    ("warehouse.ingest_ns", "ns"),
    ("warehouse.events_per_reading", "count"),
    ("warehouse.query_hot_us", "us"),
    ("warehouse.rollup_us", "us"),
    ("durable.ingest_ns", "ns"),
    ("durable.persist_checkpoint_ns", "ns"),
    ("durable.fsyncs_per_kreading", "count"),
    ("durable.write_bytes_per_reading", "B"),
    ("durable.log_bytes_per_reading", "B"),
    ("durable.segments", "count"),
    ("durable.compactions", "count"),
    ("durable.query_cold_us", "us"),
    ("durable.open_ms", "ms"),
    ("cq.on_events_ns", "ns"),
    ("cq.deltas_per_reading", "count"),
    ("cq.poll_us", "us"),
    ("cq.view_read_us", "us"),
    ("deploy.lint_ms", "ms"),
    ("deploy.deploy_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The value at quantile `q` (nearest rank) of unsorted samples; 0 when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: correctness, attempts, failures and metrics.
pub struct Line {
    /// Outputs verified.
    pub correct: bool,
    /// Readings plus queries attempted.
    pub attempted: u64,
    /// Failed attempts.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra string fields (digests) for `run.py`.
    pub extra: BTreeMap<String, String>,
}

impl Line {
    /// Render as one JSON object, units taken from the metric tables.
    pub fn render(&self) -> String {
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("count", |(_, u)| u)
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", unit(k))
            })
            .collect();
        let extra: String = self
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": \"{v}\""))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}{extra}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A workload's episodes: the live warm-up first, then replayed ones.
pub struct Run {
    /// The pre-generated inputs.
    pub recording: Recording,
    /// The live-generator warm-up episode.
    pub live: EpisodeResult,
    /// The replayed episodes.
    pub episodes: Vec<EpisodeResult>,
}

impl Run {
    fn options(args: &Args) -> episode::Options {
        episode::Options {
            max_slices: args.max_slices,
            ..Default::default()
        }
    }

    /// Record the inputs and run the live warm-up episode.
    pub fn start(args: &Args, spans: &mut Spans) -> Result<Run, String> {
        std::fs::create_dir_all(&args.tmp).map_err(|e| format!("{}: {e}", args.tmp.display()))?;
        let recording = Recording::record(args.workload, args.seed, episode::episode_start());
        let live = episode::run(
            args.workload,
            args.seed,
            Source::Live,
            &args.tmp,
            &Run::options(args),
            spans,
        )?;
        Ok(Run {
            recording,
            live,
            episodes: Vec::new(),
        })
    }

    /// Run one replayed episode.
    pub fn episode(&mut self, args: &Args, spans: &mut Spans) -> Result<&EpisodeResult, String> {
        let r = episode::run(
            args.workload,
            args.seed,
            Source::Replay(&self.recording),
            &args.tmp,
            &Run::options(args),
            spans,
        )?;
        self.episodes.push(r);
        Ok(self.episodes.last().expect("just pushed"))
    }

    /// Correctness over every episode: identical digests (replayed equal
    /// to live), no failures. Problems go to stderr.
    pub fn check(&self) -> (bool, u64, u64) {
        let mut ok = true;
        let all = std::iter::once(&self.live).chain(&self.episodes);
        let (mut attempted, mut failed) = (0, 0);
        for (i, e) in all.enumerate() {
            attempted += e.attempted;
            failed += e.failed;
            for p in &e.problems {
                eprintln!("tuplepath: episode {i}: {p}");
            }
            if e.digest != self.live.digest {
                eprintln!(
                    "tuplepath: episode {i} digest {:016x} differs from the live run's {:016x}",
                    e.digest, self.live.digest
                );
                ok = false;
            }
        }
        (ok && failed == 0, attempted, failed)
    }

    /// Remove the temp root, failing if anything is left in it.
    pub fn finish(&self, args: &Args) -> Result<(), String> {
        let left: Vec<_> = std::fs::read_dir(&args.tmp)
            .map(|d| d.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        if !left.is_empty() {
            return Err(format!("left behind under the temp root: {left:?}"));
        }
        let _ = std::fs::remove_dir(&args.tmp);
        Ok(())
    }
}

/// A counter per reading that must repeat exactly across episodes, up to
/// `slack` (absolute, per episode).
fn per_reading_equal(
    eps: &[EpisodeResult],
    slack: u64,
    f: impl Fn(&EpisodeResult) -> u64,
) -> Result<f64, String> {
    let values: Vec<(u64, u64)> = eps.iter().map(|e| (f(e), e.readings)).collect();
    if values
        .windows(2)
        .any(|w| w[0].1 != w[1].1 || w[0].0.abs_diff(w[1].0) > slack)
    {
        return Err(format!("counter differs between episodes: {values:?}"));
    }
    Ok(values
        .first()
        .map_or(0.0, |(v, r)| *v as f64 / (*r).max(1) as f64))
}

/// Allocations the durable block cache may add or save in one episode.
/// The cache is a `HashMap` with the default (per-map random) hasher;
/// under its steady remove-and-insert churn the table grows once, at a
/// moment that depends on the hash seed, inside or outside a timed slice.
/// Every other allocation of the workloads repeats exactly.
const BLOCK_CACHE_SLACK: u64 = 2;

/// Set-ups (without an episode) each timed run adds to its episodes'
/// set-ups before taking the median.
const SETUPS_PER_RUN: usize = 30;

/// `--mode timed`: replayed episodes for `--seconds`; the wall-clock
/// metrics, normalized to the nominal host speed (see
/// [`episode::HostClock`]). The raw figures go to stderr.
pub fn timed(args: &Args) -> Result<String, String> {
    let mut spans = Spans::new(false);
    let mut run = Run::start(args, &mut spans)?;
    let mut setups = Vec::new();
    for _ in 0..SETUPS_PER_RUN {
        setups
            .push(episode::setup_only(args.workload, &run.recording, &args.tmp, &mut spans)? / 1e9);
    }
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || run.episodes.len() < 2 {
        run.episode(args, &mut spans)?;
    }
    let (correct, attempted, failed) = run.check();
    run.finish(args)?;
    let eps = &run.episodes;
    let rate = |readings: u64, ns: f64| readings as f64 / (ns / 1e9);
    let tps: Vec<f64> = eps
        .iter()
        .map(|e| rate(e.readings, e.slice_norm.iter().sum()))
        .collect();
    // Every episode advances through the same slices with the same
    // readings, so each slice's time is taken as its median over the
    // episodes: a stall that hit one episode does not move the figure.
    let typical_episode: f64 = (0..eps[0].slice_norm.len())
        .map(|k| median(&eps.iter().map(|e| e.slice_norm[k]).collect::<Vec<_>>()))
        .sum();
    let raw_tps: Vec<f64> = eps
        .iter()
        .map(|e| rate(e.readings, e.slices_ns() as f64))
        .collect();
    let ms = |v: &f64| v / 1e6;
    let slices: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.slice_norm.iter().map(ms))
        .collect();
    let queries: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.query_norm.iter().map(ms))
        .collect();
    setups.extend(eps.iter().map(|e| e.setup_norm / 1e9));
    eprintln!(
        "tuplepath: {} {} episodes, {} slices, {} queries, {} probes, digest {:016x}",
        args.workload.name(),
        eps.len(),
        slices.len(),
        queries.len(),
        eps.iter().map(|e| e.probes).sum::<u64>(),
        run.live.digest
    );
    eprintln!(
        "tuplepath: readings/s per episode, normalized: {:.0?}; raw: {:.0?}",
        tps, raw_tps
    );
    let mut metrics = BTreeMap::new();
    metrics.insert("ingest_tps".into(), rate(eps[0].readings, typical_episode));
    metrics.insert("slice_p50_ms".into(), quantile(&slices, 0.5));
    metrics.insert("slice_p99_ms".into(), quantile(&slices, 0.99));
    metrics.insert("query_p50_ms".into(), quantile(&queries, 0.5));
    metrics.insert("query_p99_ms".into(), quantile(&queries, 0.99));
    metrics.insert("setup_s".into(), median(&setups));
    metrics.insert("peak_rss_mib".into(), peak_rss_mib());
    let mut extra = BTreeMap::new();
    extra.insert("digest".into(), format!("{:016x}", run.live.digest));
    Ok(Line {
        correct,
        attempted,
        failed,
        metrics,
        extra,
    }
    .render())
}

/// `--mode counts`: exact counters under the counting allocator, from two
/// replayed episodes that must agree exactly.
pub fn counts(args: &Args) -> Result<String, String> {
    let mut spans = Spans::new(false);
    let mut run = Run::start(args, &mut spans)?;
    for _ in 0..2 {
        run.episode(args, &mut spans)?;
    }
    let (mut correct, attempted, failed) = run.check();
    run.finish(args)?;
    let mut metrics = BTreeMap::new();
    let slack = if args.workload == Workload::DurableDashboard {
        BLOCK_CACHE_SLACK
    } else {
        0
    };
    match per_reading_equal(&run.episodes, slack, |e| e.slice_allocs) {
        Ok(v) => {
            metrics.insert("allocs_per_reading".into(), v);
        }
        Err(e) => {
            eprintln!("tuplepath: allocs_per_reading: {e}");
            correct = false;
        }
    }
    if let Err(e) = per_reading_equal(&run.episodes, 0, |e| e.log_bytes) {
        eprintln!("tuplepath: log_bytes_per_reading: {e}");
        correct = false;
    }
    let mut extra = BTreeMap::new();
    extra.insert("digest".into(), format!("{:016x}", run.live.digest));
    Ok(Line {
        correct,
        attempted,
        failed,
        metrics,
        extra,
    }
    .render())
}

/// `--mode trace`: untraced and traced episodes alternately (the tracing
/// overhead), then the layer-by-layer replay of one recorded episode.
pub fn trace(args: &Args) -> Result<String, String> {
    let mut quiet = Spans::new(false);
    let mut spans = Spans::new(true);
    let mut run = Run::start(args, &mut quiet)?;
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Leave the last ~30% of the run to the layer replay.
    while t0.elapsed().as_secs_f64() < args.seconds * 0.7 || traced.len() < 2 {
        let e = run.episode(args, &mut quiet)?;
        plain.push(e.readings as f64 / (e.slice_norm.iter().sum::<f64>() / 1e9));
        let e = run.episode(args, &mut spans)?;
        traced.push(e.readings as f64 / (e.slice_norm.iter().sum::<f64>() / 1e9));
    }
    let (mut correct, attempted, failed) = run.check();
    let replay = layers::replay(args.workload, &run.recording, &run.live, &args.tmp)?;
    run.finish(args)?;
    if replay.digest != replay.live_digest {
        eprintln!(
            "tuplepath: layer replay stored {} events, the live run {} (digest {:016x} vs {:016x})",
            replay.events, run.live.counters.warehouse_events, replay.digest, replay.live_digest
        );
        correct = false;
    }
    let mut metrics = layers::metrics(args.workload, &run, &replay);
    metrics.insert(
        "trace.overhead_pct".into(),
        (median(&plain) / median(&traced) - 1.0) * 100.0,
    );
    for (name, _) in PER_LAYER {
        if !metrics.contains_key(*name) {
            return Err(format!("per-layer metric {name} was not produced"));
        }
    }
    if let Some(path) = &args.trace_out {
        write_spans(path, args.workload, &spans)?;
    }
    Ok(Line {
        correct,
        attempted,
        failed,
        metrics,
        extra: BTreeMap::new(),
    }
    .render())
}

/// Write spans as JSON lines: one object per span.
fn write_spans(path: &std::path::Path, workload: Workload, spans: &Spans) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (i, s) in spans.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"workload\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"reading\": {}}}",
            workload.name(),
            s.name,
            s.start_ns,
            s.end_ns,
            s.reading
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}
