//! Self-tests of the benchmark: the replaying sensors reproduce the live
//! generators, the printed metrics are the ones `BENCHMARK.json` declares,
//! and the oracles catch a wrong answer.
//!
//! ```sh
//! cargo test --release --manifest-path tuplepath/Cargo.toml
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use tuplepath::episode::{self, Options, Source, Spans};
use tuplepath::inputs::Recording;
use tuplepath::report::{self, END_TO_END, PER_LAYER};
use tuplepath::{Args, Mode, Workload};

/// A temp root inside the package's own build directory, unique per test.
fn tmp(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("selftest")
        .join(format!("{test}-{}", std::process::id()))
}

fn tiny(slices: usize) -> Options {
    Options {
        max_slices: Some(slices),
        ..Default::default()
    }
}

fn args(workload: Workload, mode: Mode, test: &str, slices: usize) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.0,
        mode,
        tmp: tmp(test),
        trace_out: None,
        max_slices: Some(slices),
    }
}

/// Metric names in a printed result line.
fn printed_metrics(line: &str) -> BTreeSet<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object")..];
    metrics
        .split("\": {\"value\": ")
        .zip(metrics.split("\": {\"value\": ").skip(1))
        .map(|(before, after)| {
            let name = before.rsplit('"').next().expect("name").to_string();
            let unit = after
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

fn declared(table: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn replayed_episode_matches_live_generators() {
    for w in Workload::ALL {
        let dir = tmp(&format!("replay-{}", w.name()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spans = Spans::new(false);
        let live = episode::run(w, 3, Source::Live, &dir, &tiny(40), &mut spans).unwrap();
        let rec = Recording::record(w, 3, episode::episode_start());
        let replayed =
            episode::run(w, 3, Source::Replay(&rec), &dir, &tiny(40), &mut spans).unwrap();
        assert!(live.readings > 0);
        assert_eq!(live.readings, replayed.readings, "{}", w.name());
        assert_eq!(live.failed, 0, "{}: {:?}", w.name(), live.problems);
        assert_eq!(replayed.failed, 0, "{}: {:?}", w.name(), replayed.problems);
        assert_eq!(live.digest, replayed.digest, "{}", w.name());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "left behind");
        std::fs::remove_dir(&dir).unwrap();
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .unwrap();
    let section = |key: &str| {
        let from = json.find(&format!("\"{key}\": [")).expect(key);
        let rest = &json[from..];
        rest[..rest.find(']').expect("end of array")].to_string()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let s = section(key);
        assert_eq!(s.matches("\"name\":").count(), table.len(), "{key}");
        for (name, unit) in table {
            assert!(
                s.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{key}: {name} [{unit}] is not declared"
            );
        }
    }

    // One workload per mode is enough: every mode prints the same names
    // on every workload.
    let w = Workload::DurableDashboard;
    let timed = report::timed(&args(w, Mode::Timed, "names-timed", 12)).unwrap();
    let counts = report::counts(&args(w, Mode::Counts, "names-counts", 12)).unwrap();
    let mut end_to_end = printed_metrics(&timed);
    end_to_end.extend(printed_metrics(&counts));
    assert_eq!(end_to_end, declared(END_TO_END));
    let trace = report::trace(&args(w, Mode::Trace, "names-trace", 12)).unwrap();
    assert_eq!(printed_metrics(&trace), declared(PER_LAYER));
    assert!(trace.starts_with("{\"correct\": true"), "{trace}");
}

#[test]
fn corrupted_query_answer_counts_as_failure() {
    let w = Workload::DurableDashboard;
    let dir = tmp("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let mut spans = Spans::new(false);
    let rec = Recording::record(w, 5, episode::episode_start());
    let clean = episode::run(w, 5, Source::Replay(&rec), &dir, &tiny(12), &mut spans).unwrap();
    assert_eq!(clean.failed, 0, "{:?}", clean.problems);
    let queries = clean.queries.len();
    assert!(
        queries >= 4,
        "the tiny episode must reach the first dashboard instant"
    );
    // Every kind of query in the first instant: hot, hot, roll-up, refresh.
    for n in 0..4 {
        let opts = Options {
            corrupt_query: Some(n),
            max_slices: Some(12),
        };
        let bad = episode::run(w, 5, Source::Replay(&rec), &dir, &opts, &mut spans).unwrap();
        assert_eq!(bad.failed, 1, "query {n}: {:?}", bad.problems);
        assert_eq!(bad.attempted, clean.attempted);
    }
    std::fs::remove_dir(&dir).unwrap();
}
