//! The three workloads: fleet, dataflows, engine configuration, dashboard
//! registrations and the query schedule. Everything here is a pure
//! function of the workload and the seed.

use std::path::Path;
use streamloader::dataflow::{Dataflow, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::durable::{CompactionPolicy, DurableConfig, FsyncPolicy};
use streamloader::engine::EngineConfig;
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::scenario::osaka_area;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{
    AttrType, BoundingBox, Duration, Field, GeoPoint, Schema, SchemaRef, SpatialGranularity,
    TemporalGranularity, Theme, TimeInterval, Timestamp, Unit,
};
use streamloader::warehouse::{CubeQuery, EventQuery};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 2 at fleet scale: sliding hourly average, trigger, gated
    /// sources into an in-memory EDW. Checkpoint-dominated.
    HourlyTrigger,
    /// The whole heterogeneous fleet through stateless per-theme chains
    /// into an in-memory EDW. Engine-bookkeeping-dominated.
    StatelessEdw,
    /// Durable EDW with retention, compaction, persisted checkpoints,
    /// continuous queries and dashboard queries.
    DurableDashboard,
}

/// Virtual-time layout of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Virtual length of an episode.
    pub episode: Duration,
    /// Virtual time advanced by one `run_until` slice.
    pub slice: Duration,
    /// Dashboard queries are due every this much virtual time...
    pub query_every: Duration,
    /// ...starting this long after the episode start.
    pub queries_from: Duration,
}

/// When the dataflows are deployed, relative to the episode start. Sensor
/// sampling instants fall on whole seconds (temperature every 10 s,
/// traffic every 5 s, tweets every 2 s); deploying 5.5 s in keeps every
/// operator tick seconds away from the readings it windows, so which
/// window a reading lands in never depends on network delay or on queue
/// tie-breaking.
pub const DEPLOY_OFFSET: Duration = Duration::from_millis(5500);

/// A dashboard query.
#[derive(Debug, Clone)]
pub enum Query {
    /// An event query whose range lies in the hot (in-memory) tier.
    Hot(EventQuery),
    /// An event query whose range has been evicted to cold segments.
    Cold(EventQuery),
    /// A roll-up over the hot store.
    Rollup(CubeQuery),
    /// Read every materialized view and poll every subscriber.
    Refresh,
}

impl Query {
    /// Short kind name used in spans and per-layer metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Hot(_) => "hot",
            Query::Cold(_) => "cold",
            Query::Rollup(_) => "rollup",
            Query::Refresh => "refresh",
        }
    }
}

fn theme(t: &str) -> Theme {
    Theme::new(t).expect("static theme")
}

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .expect("static schema")
        .into_ref()
}

fn range(from: Timestamp, to: Timestamp) -> TimeInterval {
    TimeInterval::new(from, to)
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HourlyTrigger,
        Workload::StatelessEdw,
        Workload::DurableDashboard,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HourlyTrigger => "hourly_trigger",
            Workload::StatelessEdw => "stateless_edw",
            Workload::DurableDashboard => "durable_dashboard",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Episode layout.
    pub fn shape(self) -> Shape {
        match self {
            Workload::HourlyTrigger => Shape {
                episode: Duration::from_mins(40),
                slice: Duration::from_secs(5),
                query_every: Duration::from_secs(15),
                queries_from: Duration::from_mins(22),
            },
            Workload::StatelessEdw => Shape {
                episode: Duration::from_mins(30),
                slice: Duration::from_secs(1),
                query_every: Duration::from_secs(30),
                queries_from: Duration::from_mins(1),
            },
            // 5 s slices: one in six carries the monitor tick (eviction),
            // and compaction stalls are ~2% of slices, so p99 lies inside
            // the compaction population instead of on its edge.
            Workload::DurableDashboard => Shape {
                episode: Duration::from_mins(30),
                slice: Duration::from_secs(5),
                query_every: Duration::from_secs(20),
                queries_from: Duration::from_secs(20),
            },
        }
    }

    /// The sensor fleet: `osaka_fleet` scaled per workload, seeded by the
    /// workload seed.
    pub fn scenario(self, seed: u64) -> ScenarioConfig {
        let (temperature, rain, tweets, traffic, wind, water) = match self {
            Workload::HourlyTrigger => (12, 8, 4, 8, 4, 4),
            Workload::StatelessEdw => (24, 8, 8, 16, 8, 8),
            Workload::DurableDashboard => (8, 4, 4, 8, 4, 4),
        };
        ScenarioConfig {
            temperature_sensors: temperature,
            rain_sensors: rain,
            tweet_feeds: tweets,
            traffic_probes: traffic,
            wind_sensors: wind,
            water_sensors: water,
            seed,
            heat_wave: true,
        }
    }

    /// Engine configuration (always sequential).
    pub fn engine_config(self) -> EngineConfig {
        let mut config = EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        };
        if self == Workload::DurableDashboard {
            config.retention = Some(Duration::from_mins(10));
            // Retention eviction rebuilds the hot indexes (O(hot events))
            // on every monitor tick; at the default 1 s tick that alone
            // costs ~0.5 ms per reading and drowns the layers this
            // workload exists for (see README.md).
            config.monitor_period = Duration::from_secs(30);
        }
        config
    }

    /// The durable warehouse configuration, for the durable workload only.
    pub fn durable_config(self, dir: &Path) -> Option<DurableConfig> {
        (self == Workload::DurableDashboard).then(|| {
            DurableConfig::at(dir)
                .with_fsync(FsyncPolicy::EveryN(1024))
                .with_segment_max_bytes(256 * 1024)
                .with_compaction(CompactionPolicy::enabled())
        })
    }

    /// The dataflows deployed at set-up.
    pub fn dataflows(self) -> Vec<Dataflow> {
        match self {
            Workload::HourlyTrigger => vec![hourly_trigger()],
            Workload::StatelessEdw => stateless_chains(),
            Workload::DurableDashboard => {
                let mut flows = stateless_chains();
                flows.push(station_minute());
                flows
            }
        }
    }

    /// Materialized views registered at set-up (durable workload only).
    pub fn views(self) -> Vec<(&'static str, CubeQuery)> {
        if self != Workload::DurableDashboard {
            return Vec::new();
        }
        let cube = |select: EventQuery, sgran, depth| CubeQuery {
            select,
            tgran: TemporalGranularity::Minute,
            sgran,
            theme_depth: depth,
        };
        vec![
            (
                "weather_tiles",
                cube(
                    EventQuery::all().with_theme(theme("weather")),
                    SpatialGranularity::grid(4),
                    3,
                ),
            ),
            (
                "traffic_tiles",
                cube(
                    EventQuery::all().with_theme(theme("traffic")),
                    SpatialGranularity::grid(6),
                    3,
                ),
            ),
            (
                "fleet_overview",
                cube(EventQuery::all(), SpatialGranularity::World, 2),
            ),
        ]
    }

    /// Standing subscriptions registered at set-up (durable workload only).
    pub fn subscriptions(self) -> Vec<(&'static str, EventQuery)> {
        if self != Workload::DurableDashboard {
            return Vec::new();
        }
        vec![
            (
                "tweets",
                EventQuery::all().with_theme(theme("social/tweet")),
            ),
            (
                "osaka_weather",
                EventQuery::all()
                    .with_theme(theme("weather"))
                    .in_area(osaka_area()),
            ),
            ("water", EventQuery::all().with_theme(theme("water"))),
            ("wind", EventQuery::all().with_theme(theme("weather/wind"))),
        ]
    }

    /// The dashboard queries due at virtual instant `now` of an episode
    /// that started at `start`.
    pub fn queries(self, start: Timestamp, now: Timestamp) -> Vec<Query> {
        let ago = |d: Duration| now.saturating_sub(d);
        let hot_rollup = |select: EventQuery, tgran, sgran| CubeQuery {
            select,
            tgran,
            sgran,
            theme_depth: 2,
        };
        match self {
            Workload::HourlyTrigger => vec![
                Query::Hot(EventQuery::all().in_time(range(ago(Duration::from_mins(10)), now))),
                Query::Rollup(hot_rollup(
                    EventQuery::all().in_time(range(ago(Duration::from_mins(5)), now)),
                    TemporalGranularity::Minute,
                    SpatialGranularity::grid(4),
                )),
            ],
            Workload::StatelessEdw => vec![
                Query::Hot(
                    EventQuery::all()
                        .with_theme(theme("weather"))
                        .in_time(range(ago(Duration::from_mins(5)), now)),
                ),
                Query::Rollup(hot_rollup(
                    EventQuery::all()
                        .with_theme(theme("traffic"))
                        .in_time(range(ago(Duration::from_mins(2)), now)),
                    TemporalGranularity::Minute,
                    SpatialGranularity::grid(4),
                )),
            ],
            Workload::DurableDashboard => {
                let mut q = vec![
                    Query::Hot(
                        EventQuery::all()
                            .with_theme(theme("weather"))
                            .in_time(range(ago(Duration::from_mins(5)), now)),
                    ),
                    Query::Hot(
                        EventQuery::all()
                            .with_theme(theme("traffic"))
                            .in_area(traffic_area())
                            .in_time(range(ago(Duration::from_mins(3)), now)),
                    ),
                    Query::Rollup(hot_rollup(
                        EventQuery::all().in_time(range(ago(Duration::from_mins(3)), now)),
                        TemporalGranularity::Minute,
                        SpatialGranularity::grid(4),
                    )),
                    Query::Refresh,
                ];
                if now.since(start) >= Duration::from_mins(15) {
                    q.push(Query::Cold(
                        EventQuery::all()
                            .with_theme(theme("weather"))
                            .in_time(range(
                                ago(Duration::from_mins(15)),
                                ago(Duration::from_mins(12)),
                            )),
                    ));
                }
                q
            }
        }
    }
}

/// The south-west quarter of Osaka, for the area-restricted traffic query.
fn traffic_area() -> BoundingBox {
    BoundingBox::from_corners(
        GeoPoint::new_unchecked(34.45, 135.25),
        GeoPoint::new_unchecked(34.70, 135.50),
    )
}

/// Figure 2 at fleet scale: Celsius stations feed a 1-hour sliding average
/// (10-minute slide); a trigger on `avg > 25` activates the rain, tweet and
/// traffic sources, which flow through filters and a transform into the
/// EDW.
fn hourly_trigger() -> Dataflow {
    DataflowBuilder::new("osaka-hot-weather")
        .source(
            "temperature",
            SubscriptionFilter::any()
                .with_theme(theme("weather/temperature"))
                .with_area(osaka_area())
                .require_unit("temperature", Unit::Celsius),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .gated_source(
            "rain",
            SubscriptionFilter::any().with_theme(theme("weather/rain")),
            schema(&[
                ("rain", AttrType::Float),
                ("torrential", AttrType::Bool),
                ("station", AttrType::Str),
            ]),
        )
        .gated_source(
            "tweets",
            SubscriptionFilter::any().with_theme(theme("social/tweet")),
            schema(&[("text", AttrType::Str), ("storm_related", AttrType::Bool)]),
        )
        .gated_source(
            "traffic",
            SubscriptionFilter::any().with_theme(theme("traffic")),
            schema(&[("congestion", AttrType::Float), ("road", AttrType::Str)]),
        )
        .aggregate_sliding(
            "hourly_avg",
            "temperature",
            Duration::from_mins(10),
            Duration::from_hours(1),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .trigger_on(
            "hot_hour",
            "hourly_avg",
            Duration::from_mins(10),
            "avg_temperature > 25",
            &["rain", "tweets", "traffic"],
        )
        .filter("wet", "rain", "rain >= 0")
        .filter("with_text", "tweets", "length(text) > 0")
        .filter("moving", "traffic", "congestion >= 0")
        .transform(
            "traffic_pct",
            "moving",
            &[("congestion", "congestion * 100")],
        )
        .sink(
            "edw",
            SinkKind::Warehouse,
            &["wet", "with_text", "traffic_pct"],
        )
        .build()
        .expect("hourly_trigger dataflow is well-formed")
}

/// One deployment per theme, each a chain of stateless operators ending in
/// the EDW.
fn stateless_chains() -> Vec<Dataflow> {
    let chain = |name: &str,
                 source_theme: &str,
                 fields: &[(&str, AttrType)],
                 build: &dyn Fn(DataflowBuilder) -> DataflowBuilder,
                 last: &str| {
        let b = DataflowBuilder::new(name).source(
            "src",
            SubscriptionFilter::any().with_theme(theme(source_theme)),
            schema(fields),
        );
        build(b)
            .sink("edw", SinkKind::Warehouse, &[last])
            .build()
            .expect("stateless chain is well-formed")
    };
    vec![
        chain(
            "temperature",
            "weather/temperature",
            &[("temperature", AttrType::Float), ("station", AttrType::Str)],
            &|b| {
                b.filter(
                    "plausible",
                    "src",
                    "temperature > -60 AND temperature < 140",
                )
                .virtual_property("scaled", "plausible", "deviation", "abs(temperature - 25)")
                .transform(
                    "rounded",
                    "scaled",
                    &[("temperature", "round(temperature * 10) / 10")],
                )
            },
            "rounded",
        ),
        chain(
            "rain",
            "weather/rain",
            &[
                ("rain", AttrType::Float),
                ("torrential", AttrType::Bool),
                ("station", AttrType::Str),
            ],
            &|b| {
                b.filter("measured", "src", "rain >= 0").virtual_property(
                    "flagged",
                    "measured",
                    "heavy",
                    "rain > 10 OR torrential",
                )
            },
            "flagged",
        ),
        chain(
            "tweets",
            "social/tweet",
            &[
                ("text", AttrType::Str),
                ("user", AttrType::Str),
                ("storm_related", AttrType::Bool),
            ],
            &|b| {
                b.filter("nonempty", "src", "length(text) > 0").transform(
                    "normalized",
                    "nonempty",
                    &[("text", "lower(text)")],
                )
            },
            "normalized",
        ),
        chain(
            "traffic",
            "traffic",
            &[
                ("congestion", AttrType::Float),
                ("incident", AttrType::Bool),
                ("road", AttrType::Str),
            ],
            &|b| {
                b.filter("valid", "src", "congestion >= 0 AND congestion <= 1")
                    .transform("percent", "valid", &[("congestion", "congestion * 100")])
                    .virtual_property("graded", "percent", "jammed", "congestion > 60")
            },
            "graded",
        ),
        chain(
            "wind",
            "weather/wind",
            &[
                ("wind_speed", AttrType::Float),
                ("pressure", AttrType::Float),
            ],
            &|b| {
                b.filter("calibrated", "src", "pressure > 800")
                    .virtual_property("gusts", "calibrated", "gust", "wind_speed * 1.4")
            },
            "gusts",
        ),
        chain(
            "water",
            "water",
            &[("level", AttrType::Float), ("gauge", AttrType::Str)],
            &|b| {
                b.filter("gauged", "src", "level >= 0").transform(
                    "centimetres",
                    "gauged",
                    &[("level", "level * 100")],
                )
            },
            "centimetres",
        ),
    ]
}

/// A short blocking aggregate whose checkpoints the durable backend
/// persists into the log: per-station one-minute averages. Grouping by
/// station keeps each group to one sensor, whose readings arrive in order,
/// so the output does not depend on how the network interleaves sensors.
fn station_minute() -> Dataflow {
    DataflowBuilder::new("station-minute")
        .source(
            "temperature",
            SubscriptionFilter::any().with_theme(theme("weather/temperature")),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .aggregate(
            "minute_avg",
            "temperature",
            Duration::from_mins(1),
            &["station"],
            AggFunc::Avg,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["minute_avg"])
        .build()
        .expect("station-minute dataflow is well-formed")
}
