//! Input pre-generation and the replaying sensor.
//!
//! Before anything is timed, every sensor of the workload's fleet is run
//! through its real `sl-sensors` generator for each sampling instant of an
//! episode and its `SensorSim::emit` output is kept. During timed episodes
//! a [`ReplaySim`] hands those readings back, so the generators' RNG and
//! formatting cost is not charged to the system under test.

use crate::workload::Workload;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use streamloader::pubsub::SensorAdvertisement;
use streamloader::sensors::{osaka_fleet, SensorSim, WireFormat};
use streamloader::stt::{Timestamp, Tuple};

/// The recorded output of one sensor.
pub struct Track {
    /// The sensor's advertisement.
    pub ad: SensorAdvertisement,
    /// Its wire format.
    pub format: WireFormat,
    /// `emit` output per sampling instant, in time order.
    pub readings: Vec<(Timestamp, Bytes, Tuple)>,
}

/// Every sensor's recorded readings for one episode.
pub struct Recording {
    /// One track per sensor, in fleet order.
    pub tracks: Vec<Arc<Track>>,
    /// Wall nanoseconds the generators spent in `emit`.
    pub emit_ns: u64,
}

impl Recording {
    /// Record the fleet of `workload` under `seed` for an episode starting
    /// at `start`: each sensor is sampled at `start + k * period` for every
    /// `k >= 1` up to the end of the episode (the instants the engine
    /// schedules), plus one spare period.
    pub fn record(workload: Workload, seed: u64, start: Timestamp) -> Recording {
        let fleet = osaka_fleet(&workload.scenario(seed));
        let end = start + workload.shape().episode;
        let mut emit_ns = 0u64;
        let tracks = fleet
            .sensors
            .into_iter()
            .map(|mut sim| {
                let ad = sim.advertisement();
                let format = sim.wire_format();
                let mut readings = Vec::new();
                let mut at = start + ad.period;
                while at <= end + ad.period {
                    let t0 = Instant::now();
                    let (payload, tuple) = sim.emit(at);
                    emit_ns += t0.elapsed().as_nanos() as u64;
                    readings.push((at, payload, tuple));
                    at += ad.period;
                }
                Arc::new(Track {
                    ad,
                    format,
                    readings,
                })
            })
            .collect();
        Recording { tracks, emit_ns }
    }

    /// Readings recorded (including the spare period).
    pub(crate) fn len(&self) -> usize {
        self.tracks.iter().map(|t| t.readings.len()).sum()
    }

    /// Fresh replaying sensors for one episode, all counting into `tally`.
    pub fn sims(&self, tally: &Arc<Tally>) -> Vec<Box<dyn SensorSim>> {
        self.tracks
            .iter()
            .map(|t| {
                Box::new(ReplaySim {
                    track: t.clone(),
                    next: 0,
                    tally: tally.clone(),
                }) as Box<dyn SensorSim>
            })
            .collect()
    }
}

/// Per-episode emission counters shared by the replaying sensors.
#[derive(Default)]
pub struct Tally {
    /// Readings emitted.
    pub emitted: AtomicU64,
    /// Emissions asked for at an instant that was not recorded next.
    pub misses: AtomicU64,
}

impl Tally {
    /// Readings emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Off-schedule emissions so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A sensor that replays a recorded [`Track`].
pub struct ReplaySim {
    track: Arc<Track>,
    next: usize,
    tally: Arc<Tally>,
}

impl SensorSim for ReplaySim {
    fn advertisement(&self) -> SensorAdvertisement {
        self.track.ad.clone()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        self.emit(now).1
    }

    fn wire_format(&self) -> WireFormat {
        self.track.format
    }

    fn emit(&mut self, now: Timestamp) -> (Bytes, Tuple) {
        self.tally.emitted.fetch_add(1, Ordering::Relaxed);
        let i = self.next.min(self.track.readings.len() - 1);
        let (at, payload, tuple) = &self.track.readings[i];
        if *at != now {
            self.tally.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.next += 1;
        (payload.clone(), tuple.clone())
    }
}

/// The real generators for one episode, counting emissions like the
/// replaying sensors do: the live side of the replay-versus-live check.
pub fn live_sims(workload: Workload, seed: u64, tally: &Arc<Tally>) -> Vec<Box<dyn SensorSim>> {
    osaka_fleet(&workload.scenario(seed))
        .sensors
        .into_iter()
        .map(|inner| {
            Box::new(Counted {
                inner,
                tally: tally.clone(),
            }) as Box<dyn SensorSim>
        })
        .collect()
}

struct Counted {
    inner: Box<dyn SensorSim>,
    tally: Arc<Tally>,
}

impl SensorSim for Counted {
    fn advertisement(&self) -> SensorAdvertisement {
        self.inner.advertisement()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        self.inner.sample(now)
    }

    fn wire_format(&self) -> WireFormat {
        self.inner.wire_format()
    }

    fn emit(&mut self, now: Timestamp) -> (Bytes, Tuple) {
        self.tally.emitted.fetch_add(1, Ordering::Relaxed);
        self.inner.emit(now)
    }
}
