//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (`name -> {value, unit}`), written without a
//! JSON dependency. The tests read it back with a small parser.

#[cfg(test)]
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name: starts with a letter or digit, then at most 63 of
    /// letters, digits, `_`, `.` and `-`.
    pub name: String,
    /// Unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric with `name`, `unit` and `value`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics, in output order (empty when a check failed).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Problems that make the report unprintable: a bad name or unit, a
    /// duplicate name, or a value that is not a finite number.
    pub fn problems(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for m in &self.metrics {
            if !valid_name(&m.name) {
                out.push(format!("bad metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                out.push(format!("bad unit {:?} on {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                out.push(format!("{} is not finite ({})", m.name, m.value));
            }
            if !seen.insert(m.name.as_str()) {
                out.push(format!("duplicate metric {}", m.name));
            }
        }
        out
    }

    /// The one-line JSON form.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` on f64 prints the shortest string that round-trips,
            // always with a decimal point or exponent.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A parsed JSON value (the subset the result line uses).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string without escapes.
    Str(String),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// Parses one JSON value (objects, strings without escapes, numbers,
/// booleans); `None` on anything else or trailing input.
#[cfg(test)]
pub fn parse_json(text: &str) -> Option<Json> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    (p.i == p.s.len()).then_some(v)
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => self.object(),
            b'"' => self.string().map(Json::Str),
            b't' | b'f' => {
                let word = if self.s[self.i] == b't' {
                    "true"
                } else {
                    "false"
                };
                let end = self.i + word.len();
                (self.s.get(self.i..end)? == word.as_bytes()).then(|| {
                    self.i = end;
                    Json::Bool(word == "true")
                })
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let start = self.i;
        while *self.s.get(self.i)? != b'"' {
            if self.s[self.i] == b'\\' {
                return None;
            }
            self.i += 1;
        }
        let out = std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .to_string();
        self.i += 1;
        Some(out)
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            map.insert(key, v);
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(Json::Obj(map));
        }
    }
}

/// Reads a result line back into a [`Report`]; `None` unless it has
/// exactly the four top-level keys and every metric exactly `value`
/// and `unit`. Metric order is not preserved (the object is a map).
#[cfg(test)]
pub fn parse_report(line: &str, units: &[&'static str]) -> Option<Report> {
    let Json::Obj(top) = parse_json(line)? else {
        return None;
    };
    if top.len() != 4 {
        return None;
    }
    let (Json::Bool(correct), Json::Num(attempted), Json::Num(failed), Json::Obj(ms)) = (
        top.get("correct")?,
        top.get("attempted")?,
        top.get("failed")?,
        top.get("metrics")?,
    ) else {
        return None;
    };
    let mut metrics = Vec::new();
    for (name, m) in ms {
        let Json::Obj(m) = m else { return None };
        let (Some(Json::Num(value)), Some(Json::Str(unit)), 2) =
            (m.get("value"), m.get("unit"), m.len())
        else {
            return None;
        };
        let unit = *units.iter().find(|u| **u == unit.as_str())?;
        metrics.push(Metric::new(name.clone(), unit, *value));
    }
    Some(Report {
        correct: *correct,
        attempted: *attempted as u64,
        failed: *failed as u64,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for good in [
            "setup_s",
            "read_degraded_tail_ms",
            "core.encode_ms.narrow",
            "rpc.overhead_ms.put",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "a:b", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "GiB/s", "%", "x", "days/s"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "a".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_metric_the_benchmark_emits_is_valid() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
        for (name, unit) in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            r.metrics.push(Metric::new(*name, unit, 1.0));
        }
        assert_eq!(r.problems(), Vec::<String>::new());
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = Report {
            correct: true,
            attempted: 1234,
            failed: 2,
            metrics: vec![
                Metric::new("latency_ms", "ms", 1.203_456_789_012_3),
                Metric::new("put_mibps", "MiB/s", 251.0),
                Metric::new("tiny", "s", 3.5e-9),
                Metric::new("core.encode_ms.wide", "ms", 12.75),
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = parse_report(&line, &["ms", "MiB/s", "s"]).unwrap();
        let mut want = r.clone();
        want.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back, want);

        let failed = Report {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(parse_report(&failed.to_json(), &[]), Some(failed));
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(parse_report("{\"correct\": true}", &[]).is_none());
        let extra = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
                     \"metrics\": {\"a\": {\"value\": 1, \"unit\": \"ms\", \"n\": 3}}}";
        assert!(parse_report(extra, &["ms"]).is_none());
        let r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![
                Metric::new("a", "ms", f64::NAN),
                Metric::new("a", "m s", 1.0),
            ],
        };
        assert_eq!(r.problems().len(), 3);
    }
}
