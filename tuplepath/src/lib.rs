//! # tuplepath — the streamloader tuple-path benchmark
//!
//! Three workloads push recorded sensor readings through the whole tuple
//! path (wire decode, pub/sub enrichment, network placement, operators,
//! checkpoints, warehouse, durable log, continuous queries) and check every
//! output against an oracle. See `README.md` in this directory for why each
//! workload exists and how to read the numbers.
//!
//! Two binaries share this library:
//!
//! * `tuplepath` keeps the system allocator and measures the end-to-end
//!   wall-clock metrics (`--mode timed`);
//! * `tuplepath_traced` installs [`CountingAlloc`] and produces the exact
//!   counters (`--mode counts`) and the per-layer trace (`--mode trace`).
//!
//! `run.py` builds both, runs the right one(s) and prints the result line.

pub mod digest;
pub mod episode;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub use workload::Workload;

/// Allocations made since the process started, when [`CountingAlloc`] is
/// the global allocator (always 0 otherwise).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A system allocator that counts allocation calls. Install it with
/// `#[global_allocator]`; only the traced binary does.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic and publishes no other data (Relaxed is enough).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls counted so far (see [`CountingAlloc`]).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// What one process run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed episodes; prints the wall-clock end-to-end metrics.
    Timed,
    /// A few episodes under the counting allocator; prints the exact
    /// counters.
    Counts,
    /// Traced episodes plus the layer-by-layer replay; prints the
    /// per-layer metrics and writes the spans.
    Trace,
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// What to do.
    pub mode: Mode,
    /// Directory under which durable warehouse directories are created
    /// (and removed again).
    pub tmp: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// Cut every episode to this many slices (self-tests only).
    pub max_slices: Option<usize>,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --mode M --tmp DIR
    /// [--trace-out FILE]`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut mode = Mode::Timed;
        let mut tmp = PathBuf::from("tuplepath-tmp");
        let mut trace_out = None;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--mode" => {
                    mode = match value.as_str() {
                        "timed" => Mode::Timed,
                        "counts" => Mode::Counts,
                        "trace" => Mode::Trace,
                        other => return Err(format!("unknown mode {other}")),
                    }
                }
                "--tmp" => tmp = PathBuf::from(value),
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            mode,
            tmp,
            trace_out,
            max_slices: None,
        })
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one binary: parse the arguments, run the mode, print the result
/// line. Exits non-zero on a usage or set-up error.
pub fn main_with(traced: bool) {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tuplepath: {e}");
            std::process::exit(2);
        }
    };
    let result = match (args.mode, traced) {
        (Mode::Timed, _) => report::timed(&args),
        (Mode::Counts, true) => report::counts(&args),
        (Mode::Trace, true) => report::trace(&args),
        (_, false) => Err("counts and trace modes need the tuplepath_traced binary".into()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("tuplepath: {e}");
            std::process::exit(1);
        }
    }
}

/// Probe the host's current speed: wall nanoseconds of a fixed std-only
/// kernel with the engine's instruction mix (small allocations, string
/// formatting, hashing, vector growth), about 0.2 ms on a quiet 2 GHz
/// core. See [`episode::HostClock`].
pub fn probe_ns() -> u64 {
    use std::collections::HashMap;
    let t = std::time::Instant::now();
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..800u64 {
        let key = format!("sensor-{}-{}", i % 97, i % 13);
        let v = map.entry(key).or_default();
        v.push(i);
        acc = acc.wrapping_add(v.len() as u64);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}
