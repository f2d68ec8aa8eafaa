//! The result line: a minimal JSON writer (the repository vendors no
//! JSON serializer) and the named, unit-carrying metric set.

use std::fmt::Write as _;

/// One JSON value of the report.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values are written as `null`.
    Num(f64),
    /// An integer count.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An ordered set of named metrics, each with a unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) metric `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == name) {
            e.1 = value;
            e.2 = unit;
        } else {
            self.entries.push((name.to_string(), value, unit));
        }
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// The metrics in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (String, f64, &'static str)> + '_ {
        self.entries.iter().map(|(n, v, u)| (n.clone(), *v, *u))
    }

    /// Human-readable lines, one per metric.
    pub fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n:<36} {v:>14.4} {u}"))
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*v)),
                            ("unit".into(), Json::Str((*u).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_result_line() {
        let mut m = Metrics::default();
        m.set("p50_ms", 1.25, "ms");
        m.set("setup_s", 0.5, "s");
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Int(10)),
            ("metrics".into(), m.to_json()),
            ("note".into(), Json::Str("a \"q\"".into())),
        ])
        .render();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \
             \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}, \"note\": \"a \\\"q\\\"\"}"
        );
    }
}
