//! Parser for the canonical DSN textual form (see [`crate::printer`]).
//!
//! Hand-rolled cursor parser with line tracking; `#` starts a line comment.

use crate::ast::{
    ChannelDecl, DsnDocument, ServiceDecl, SinkDecl, SinkKind, SourceDecl, SourceMode,
};
use crate::error::DsnError;
use sl_netsim::QosSpec;
use sl_ops::{AggFunc, OpSpec};
use sl_pubsub::{SensorKind, SubscriptionFilter};
use sl_stt::{AttrType, BoundingBox, Duration, GeoPoint, Theme, TimeInterval, Timestamp};

/// Parse a DSN document from text.
pub fn parse_document(src: &str) -> Result<DsnDocument, DsnError> {
    let mut c = Cursor::new(src);
    c.skip_ws();
    c.expect_word("dsn")?;
    let name = c.read_dq_string()?;
    c.expect_char('{')?;
    let mut doc = DsnDocument::new(&name);
    loop {
        c.skip_ws();
        if c.try_char('}') {
            break;
        }
        let kw = c.read_ident()?;
        match kw.as_str() {
            "source" => {
                let name = c.read_ident()?;
                let props = c.read_block()?;
                doc.sources.push(build_source(&name, props, c.line)?);
            }
            "service" => {
                let name = c.read_ident()?;
                let props = c.read_block()?;
                doc.services.push(build_service(&name, props, c.line)?);
            }
            "sink" => {
                let name = c.read_ident()?;
                let props = c.read_block()?;
                doc.sinks.push(build_sink(&name, props, c.line)?);
            }
            "channel" => {
                let from = c.read_ident()?;
                c.expect_word("->")?;
                let to = c.read_ident()?;
                let props = c.read_block()?;
                doc.channels.push(build_channel(&from, &to, props, c.line)?);
            }
            other => {
                return Err(c.err(format!(
                    "expected source/service/sink/channel, found `{other}`"
                )));
            }
        }
    }
    c.skip_ws();
    if !c.at_end() {
        return Err(c.err("trailing content after closing `}`".into()));
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: usize,
}

type Props = Vec<(String, String, usize)>; // key, raw value, line

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            src: text.as_bytes(),
            text,
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: String) -> DsnError {
        DsnError::Parse {
            line: self.line,
            message,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied();
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn try_char(&mut self, ch: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(ch as u8) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, ch: char) -> Result<(), DsnError> {
        if self.try_char(ch) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{ch}`")))
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), DsnError> {
        self.skip_ws();
        if self.text[self.pos..].starts_with(word) {
            for _ in 0..word.len() {
                self.bump();
            }
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn read_ident(&mut self) -> Result<String, DsnError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b'/' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected an identifier".into()));
        }
        Ok(self.text[start..self.pos].to_string())
    }

    fn read_dq_string(&mut self) -> Result<String, DsnError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a double-quoted string".into()));
        }
        self.bump();
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string".into())),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b) => {
                        out.push('\\');
                        out.push(b as char);
                    }
                    None => return Err(self.err("unterminated escape".into())),
                },
                Some(b'"') => break,
                Some(_) => {
                    // Re-read the full UTF-8 character.
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.bump();
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
        Ok(out)
    }

    /// Read a `{ key: value; ... }` block, values raw (quotes respected).
    fn read_block(&mut self) -> Result<Props, DsnError> {
        self.expect_char('{')?;
        let mut props = Vec::new();
        loop {
            self.skip_ws();
            if self.try_char('}') {
                break;
            }
            let key = self.read_ident()?;
            self.expect_char(':')?;
            let line = self.line;
            let value = self.read_raw_value()?;
            props.push((key, value, line));
        }
        Ok(props)
    }

    /// Raw property value: everything up to the terminating `;`, skipping
    /// over single-quoted segments (with `''` escaping).
    fn read_raw_value(&mut self) -> Result<String, DsnError> {
        self.skip_ws();
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated property (missing `;`)".into())),
                Some(b';') => {
                    let raw = self.text[start..self.pos].trim().to_string();
                    self.bump();
                    return Ok(raw);
                }
                Some(b'\'') => {
                    self.bump();
                    loop {
                        match self.bump() {
                            None => return Err(self.err("unterminated quoted value".into())),
                            Some(b'\'') => {
                                if self.peek() == Some(b'\'') {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                            Some(_) => {}
                        }
                    }
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Declaration builders
// ---------------------------------------------------------------------------

fn perr(line: usize, message: String) -> DsnError {
    DsnError::Parse { line, message }
}

fn take<'p>(props: &'p Props, key: &str) -> Option<&'p (String, String, usize)> {
    props.iter().find(|(k, _, _)| k == key)
}

fn require<'p>(props: &'p Props, key: &str, line: usize) -> Result<&'p str, DsnError> {
    take(props, key)
        .map(|(_, v, _)| v.as_str())
        .ok_or_else(|| perr(line, format!("missing required property `{key}`")))
}

/// Strip single quotes from a quoted value (or return it raw).
fn unquote(v: &str) -> String {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('\'') && v.ends_with('\'') {
        v[1..v.len() - 1].replace("''", "'")
    } else {
        v.to_string()
    }
}

/// Split on top-level commas, respecting single quotes.
fn split_commas(v: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_q = false;
    let mut chars = v.chars().peekable();
    while let Some(ch) = chars.next() {
        match ch {
            '\'' => {
                if in_q && chars.next_if_eq(&'\'').is_some() {
                    cur.push_str("''");
                } else {
                    in_q = !in_q;
                    cur.push('\'');
                }
            }
            ',' if !in_q => {
                parts.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    parts
}

fn parse_u64(v: &str, what: &str, line: usize) -> Result<u64, DsnError> {
    v.trim()
        .parse::<u64>()
        .map_err(|_| perr(line, format!("`{v}` is not a valid {what}")))
}

fn parse_f64(v: &str, what: &str, line: usize) -> Result<f64, DsnError> {
    v.trim()
        .parse::<f64>()
        .map_err(|_| perr(line, format!("`{v}` is not a valid {what}")))
}

/// Parse `(lat, lon)..(lat, lon)` into a bounding box.
fn parse_box(v: &str, line: usize) -> Result<BoundingBox, DsnError> {
    let parts: Vec<&str> = v.split("..").collect();
    if parts.len() != 2 {
        return Err(perr(
            line,
            format!("`{v}` is not a `(lat, lon)..(lat, lon)` box"),
        ));
    }
    let mut corners = Vec::with_capacity(2);
    for p in parts {
        let p = p.trim();
        let inner = p
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| perr(line, format!("`{p}` is not a `(lat, lon)` pair")))?;
        let nums: Vec<&str> = inner.split(',').collect();
        if nums.len() != 2 {
            return Err(perr(line, format!("`{p}` is not a `(lat, lon)` pair")));
        }
        let lat = parse_f64(nums[0], "latitude", line)?;
        let lon = parse_f64(nums[1], "longitude", line)?;
        corners.push(GeoPoint::new(lat, lon).map_err(|e| perr(line, e.to_string()))?);
    }
    Ok(BoundingBox::from_corners(corners[0], corners[1]))
}

/// Parse a DSN filter expression (the inverse of
/// [`crate::printer::print_filter`]).
pub fn parse_filter(v: &str, line: usize) -> Result<SubscriptionFilter, DsnError> {
    let v = v.trim();
    if v == "any" {
        return Ok(SubscriptionFilter::any());
    }
    let mut f = SubscriptionFilter::any();
    for part in v.split('&') {
        let part = part.trim();
        if let Some(theme) = part.strip_prefix("theme=") {
            f.theme = Some(Theme::new(theme).map_err(|e| perr(line, e.to_string()))?);
        } else if let Some(area) = part.strip_prefix("area=") {
            f.area = Some(parse_box(area, line)?);
        } else if let Some(kind) = part.strip_prefix("kind=") {
            f.kind = Some(match kind.trim() {
                "physical" => SensorKind::Physical,
                "social" => SensorKind::Social,
                other => return Err(perr(line, format!("unknown sensor kind `{other}`"))),
            });
        } else if let Some(req) = part.strip_prefix("has ") {
            let (name, ty) = req
                .split_once(':')
                .ok_or_else(|| perr(line, format!("`{req}` is not `name:type`")))?;
            let ty = AttrType::parse(ty).map_err(|e| perr(line, e.to_string()))?;
            f.required_attrs.push((name.trim().to_string(), ty));
        } else if let Some(glob) = part.strip_prefix("name~") {
            f.name_glob = Some(glob.trim().to_string());
        } else if let Some(p) = part.strip_prefix("period<=") {
            f.max_period = Some(Duration::from_millis(parse_u64(p, "period", line)?));
        } else if let Some(req) = part.strip_prefix("unit ") {
            let (name, unit) = req
                .split_once('=')
                .ok_or_else(|| perr(line, format!("`{req}` is not `attr=unit`")))?;
            let unit = sl_stt::Unit::parse(unit).map_err(|e| perr(line, e.to_string()))?;
            f.required_units.push((name.trim().to_string(), unit));
        } else {
            return Err(perr(line, format!("unknown filter constraint `{part}`")));
        }
    }
    Ok(f)
}

/// Parse a QoS value (the inverse of [`crate::printer::print_qos`]).
pub fn parse_qos(v: &str, line: usize) -> Result<QosSpec, DsnError> {
    let v = v.trim();
    if v == "best-effort" {
        return Ok(QosSpec::best_effort());
    }
    let mut q = QosSpec::best_effort();
    for part in v.split(',') {
        let part = part.trim();
        if let Some(l) = part.strip_prefix("latency<=") {
            q.max_latency = Some(Duration::from_millis(parse_u64(l, "latency", line)?));
        } else if let Some(b) = part.strip_prefix("bandwidth>=") {
            q.min_bandwidth_bps = Some(parse_u64(b, "bandwidth", line)?);
        } else {
            return Err(perr(line, format!("unknown QoS constraint `{part}`")));
        }
    }
    Ok(q)
}

fn build_source(name: &str, props: Props, line: usize) -> Result<SourceDecl, DsnError> {
    let filter = parse_filter(require(&props, "filter", line)?, line)?;
    let mode = match take(&props, "mode").map(|(_, v, _)| v.as_str()) {
        None | Some("active") => SourceMode::Active,
        Some("gated") => SourceMode::Gated,
        Some(other) => return Err(perr(line, format!("unknown source mode `{other}`"))),
    };
    Ok(SourceDecl {
        name: name.to_string(),
        filter,
        mode,
    })
}

fn parse_names(v: &str) -> Vec<String> {
    split_commas(v)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect()
}

fn build_service(name: &str, props: Props, line: usize) -> Result<ServiceDecl, DsnError> {
    let op = require(&props, "op", line)?;
    let period = |key: &str| -> Result<Duration, DsnError> {
        Ok(Duration::from_millis(parse_u64(
            require(&props, key, line)?,
            "period",
            line,
        )?))
    };
    let spec = match op {
        "filter" => OpSpec::Filter {
            condition: unquote(require(&props, "condition", line)?),
        },
        "transform" => {
            let raw = require(&props, "assign", line)?;
            let mut assignments = Vec::new();
            for part in split_commas(raw) {
                let (attr, expr) = part
                    .split_once(":=")
                    .ok_or_else(|| perr(line, format!("`{part}` is not `attr := 'expr'`")))?;
                assignments.push((attr.trim().to_string(), unquote(expr)));
            }
            OpSpec::Transform { assignments }
        }
        "virtual_property" => OpSpec::VirtualProperty {
            property: require(&props, "property", line)?.to_string(),
            spec: unquote(require(&props, "spec", line)?),
        },
        "cull_time" => {
            let raw = require(&props, "interval", line)?;
            let (a, b) = raw
                .split_once("..")
                .ok_or_else(|| perr(line, format!("`{raw}` is not `start..end`")))?;
            let start = a
                .trim()
                .parse::<i64>()
                .map_err(|_| perr(line, format!("bad interval start `{a}`")))?;
            let end = b
                .trim()
                .parse::<i64>()
                .map_err(|_| perr(line, format!("bad interval end `{b}`")))?;
            if end < start {
                return Err(perr(line, "interval end before start".into()));
            }
            OpSpec::CullTime {
                interval: TimeInterval::new(
                    Timestamp::from_millis(start),
                    Timestamp::from_millis(end),
                ),
                rate: parse_u64(require(&props, "rate", line)?, "rate", line)?,
            }
        }
        "cull_space" => OpSpec::CullSpace {
            area: parse_box(require(&props, "area", line)?, line)?,
            rate: parse_u64(require(&props, "rate", line)?, "rate", line)?,
        },
        "aggregate" => OpSpec::Aggregate {
            period: period("period")?,
            group_by: take(&props, "group_by")
                .map(|(_, v, _)| parse_names(v))
                .unwrap_or_default(),
            func: AggFunc::parse(require(&props, "func", line)?)
                .map_err(|e| perr(line, e.to_string()))?,
            attr: take(&props, "attr").map(|(_, v, _)| v.to_string()),
            sliding: match take(&props, "sliding") {
                Some((_, v, l)) => Some(Duration::from_millis(parse_u64(v, "sliding span", *l)?)),
                None => None,
            },
        },
        "join" => OpSpec::Join {
            period: period("period")?,
            predicate: unquote(require(&props, "predicate", line)?),
        },
        "trigger_on" => OpSpec::TriggerOn {
            period: period("period")?,
            condition: unquote(require(&props, "condition", line)?),
            targets: parse_names(require(&props, "targets", line)?),
        },
        "trigger_off" => OpSpec::TriggerOff {
            period: period("period")?,
            condition: unquote(require(&props, "condition", line)?),
            targets: parse_names(require(&props, "targets", line)?),
        },
        other => return Err(perr(line, format!("unknown operation `{other}`"))),
    };
    let inputs = parse_names(require(&props, "inputs", line)?);
    Ok(ServiceDecl {
        name: name.to_string(),
        spec,
        inputs,
    })
}

fn build_sink(name: &str, props: Props, line: usize) -> Result<SinkDecl, DsnError> {
    let kind = SinkKind::parse(require(&props, "kind", line)?)
        .ok_or_else(|| perr(line, "unknown sink kind".into()))?;
    let inputs = parse_names(require(&props, "inputs", line)?);
    Ok(SinkDecl {
        name: name.to_string(),
        kind,
        inputs,
    })
}

fn build_channel(from: &str, to: &str, props: Props, line: usize) -> Result<ChannelDecl, DsnError> {
    let qos = parse_qos(require(&props, "qos", line)?, line)?;
    Ok(ChannelDecl {
        from: from.to_string(),
        to: to.to_string(),
        qos,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;

    const SCENARIO: &str = r#"
dsn "osaka-hot-weather" {
  # Osaka-area temperature sensors.
  source temperature {
    filter: theme=weather/temperature & area=(34.5, 135.3)..(34.9, 135.7);
    mode: active;
  }
  source rain {
    filter: theme=weather/rain & kind=physical;
    mode: gated;
  }
  service hourly_avg {
    op: aggregate; period: 3600000;
    group_by: station;
    func: avg; attr: temperature;
    inputs: temperature;
  }
  service hot {
    op: trigger_on; period: 3600000;
    condition: 'avg_temperature > 25';
    targets: rain;
    inputs: hourly_avg;
  }
  service heavy {
    op: filter;
    condition: 'rain > 10 and station != ''broken''';
    inputs: rain;
  }
  sink edw { kind: warehouse; inputs: heavy; }
  channel temperature -> hourly_avg { qos: latency<=50, bandwidth>=100000; }
  channel rain -> heavy { qos: best-effort; }
}
"#;

    #[test]
    fn parses_scenario_document() {
        let doc = parse_document(SCENARIO).unwrap();
        assert_eq!(doc.name, "osaka-hot-weather");
        assert_eq!(doc.sources.len(), 2);
        assert_eq!(doc.services.len(), 3);
        assert_eq!(doc.sinks.len(), 1);
        assert_eq!(doc.channels.len(), 2);

        let temp = doc.source("temperature").unwrap();
        assert_eq!(temp.mode, SourceMode::Active);
        assert_eq!(
            temp.filter.theme.as_ref().unwrap().as_str(),
            "weather/temperature"
        );
        assert!(temp.filter.area.is_some());

        let rain = doc.source("rain").unwrap();
        assert_eq!(rain.mode, SourceMode::Gated);
        assert_eq!(rain.filter.kind, Some(SensorKind::Physical));

        let agg = doc.service("hourly_avg").unwrap();
        match &agg.spec {
            OpSpec::Aggregate {
                period,
                group_by,
                func,
                attr,
                sliding,
            } => {
                assert_eq!(*sliding, None);
                assert_eq!(*period, Duration::from_hours(1));
                assert_eq!(group_by, &["station".to_string()]);
                assert_eq!(*func, AggFunc::Avg);
                assert_eq!(attr.as_deref(), Some("temperature"));
            }
            other => panic!("{other:?}"),
        }

        let hot = doc.service("hot").unwrap();
        match &hot.spec {
            OpSpec::TriggerOn {
                condition, targets, ..
            } => {
                assert_eq!(condition, "avg_temperature > 25");
                assert_eq!(targets, &["rain".to_string()]);
            }
            other => panic!("{other:?}"),
        }

        // Quote escaping survived.
        let heavy = doc.service("heavy").unwrap();
        match &heavy.spec {
            OpSpec::Filter { condition } => {
                assert_eq!(condition, "rain > 10 and station != 'broken'");
            }
            other => panic!("{other:?}"),
        }

        let qos = doc.qos_for("temperature", "hourly_avg");
        assert_eq!(qos.max_latency, Some(Duration::from_millis(50)));
        assert_eq!(qos.min_bandwidth_bps, Some(100000));
        assert!(doc.qos_for("rain", "heavy").is_best_effort());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "dsn \"x\" {\n  source s {\n    filter: theme=;\n  }\n}";
        match parse_document(bad) {
            Err(DsnError::Parse { line, .. }) => assert!(line >= 3, "line {line}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sliding_aggregate_round_trips() {
        let text = "dsn \"x\" { service s { op: aggregate; period: 60000; sliding: 3600000; func: avg; attr: temperature; inputs: a; } }";
        let doc = parse_document(text).unwrap();
        match &doc.service("s").unwrap().spec {
            OpSpec::Aggregate { sliding, .. } => {
                assert_eq!(*sliding, Some(Duration::from_hours(1)));
            }
            other => panic!("{other:?}"),
        }
        let printed = crate::printer::print_document(&doc);
        assert!(printed.contains("sliding: 3600000;"));
        let again = parse_document(&printed).unwrap();
        assert_eq!(crate::printer::print_document(&again), printed);
    }

    #[test]
    fn rejects_unknown_keyword() {
        assert!(parse_document("dsn \"x\" { gizmo g { } }").is_err());
    }

    #[test]
    fn rejects_missing_required_props() {
        assert!(parse_document("dsn \"x\" { source s { mode: active; } }").is_err());
        assert!(parse_document("dsn \"x\" { service s { op: filter; inputs: a; } }").is_err());
        assert!(parse_document("dsn \"x\" { sink s { inputs: a; } }").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_document("dsn \"x\" { } extra").is_err());
    }

    #[test]
    fn rejects_bad_interval_and_rate() {
        let doc = |body: &str| format!("dsn \"x\" {{ service s {{ {body} inputs: a; }} }}");
        assert!(parse_document(&doc("op: cull_time; interval: 500..100; rate: 2;")).is_err());
        assert!(parse_document(&doc("op: cull_time; interval: abc..100; rate: 2;")).is_err());
        assert!(parse_document(&doc("op: cull_time; interval: 1..100; rate: x;")).is_err());
    }

    #[test]
    fn empty_document_parses() {
        let doc = parse_document("dsn \"empty\" { }").unwrap();
        assert!(doc.sources.is_empty());
        assert!(doc.names().next().is_none());
    }

    #[test]
    fn comments_are_skipped() {
        let doc = parse_document("# heading\ndsn \"x\" { # inline\n }").unwrap();
        assert_eq!(doc.name, "x");
    }

    #[test]
    fn split_commas_respects_quotes() {
        let parts = split_commas("a := 'f(x, y)', b := '1,2'");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], "a := 'f(x, y)'");
    }

    #[test]
    fn filter_round_trip_via_printer() {
        use crate::printer::print_filter;
        let filters = [
            "any",
            "theme=weather/rain",
            "theme=weather & kind=social",
            "area=(34.5, 135.3)..(34.9, 135.7)",
            "has temperature:float & has station:str",
            "name~osaka-* & period<=30000",
            "theme=weather/temperature & unit temperature=celsius",
        ];
        for src in filters {
            let f = parse_filter(src, 1).unwrap();
            let printed = print_filter(&f);
            let f2 = parse_filter(&printed, 1).unwrap();
            assert_eq!(print_filter(&f2), printed, "for `{src}`");
        }
    }
}
