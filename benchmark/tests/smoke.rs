//! `benchmark --smoke` over every workload and both passes: each run
//! must pass its own checks and print exactly the metrics
//! `BENCHMARK.json` declares for that pass, each once, finite, with the
//! declared unit.

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in document order, duplicates kept, so a test can see them.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?} in {self:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.at, p.s.len(), "trailing input in {text:?}");
        v
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.at),
            Some(&b),
            "expected {:?} at {}",
            b as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.at]
    }

    /// A string; an escape keeps the escaped byte as is, which covers
    /// `\"` and `\\`, all the benchmark writes.
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        while self.s[self.at] != b'"' {
            if self.s[self.at] == b'\\' {
                self.at += 1;
            }
            out.push(self.s[self.at]);
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(out).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut members = Vec::new();
                while self.peek() != b'}' {
                    if !members.is_empty() {
                        self.eat(b',');
                    }
                    let k = self.string();
                    self.eat(b':');
                    members.push((k, self.value()));
                }
                self.eat(b'}');
                Json::Obj(members)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.s.len() && !b",}] \n".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.s[start..self.at]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n:?}"))),
                }
            }
        }
    }
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_run_prints_every_declared_metric_once_with_its_unit() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Parser::parse(&std::fs::read_to_string(spec_path).expect("read BENCHMARK.json"));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let lists = [declared(&spec, "end_to_end"), declared(&spec, "per_layer")];

    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--seed", "1"])
        .output()
        .expect("run benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let lines: Vec<&str> = stdout.lines().collect();
    let mut seen: Vec<(String, usize)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(record) = line.strip_prefix("run ") else {
            continue;
        };
        let record = Parser::parse(record);
        let workload = record.get("workload").str().to_string();
        let Json::Num(trace) = record.get("trace") else {
            panic!("trace is not a number");
        };
        let trace = *trace as usize;
        let result = Parser::parse(
            lines
                .get(i + 1)
                .expect("result line follows the run record"),
        );
        assert_eq!(
            result.get("correct"),
            &Json::Bool(true),
            "{workload} trace {trace}"
        );
        assert_eq!(
            result.get("failed"),
            &Json::Num(0.0),
            "{workload} trace {trace}: failed ops"
        );
        assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));

        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            names.len(),
            "{workload} trace {trace}: a metric printed twice"
        );
        let expected = &lists[trace];
        assert_eq!(
            unique,
            expected.keys().map(String::as_str).collect::<Vec<_>>(),
            "{workload} trace {trace}: printed metrics differ from BENCHMARK.json"
        );
        for (name, m) in metrics {
            assert!(
                matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                "{workload} trace {trace}: {name} = {:?}",
                m.get("value")
            );
            assert_eq!(
                m.get("unit").str(),
                expected[name],
                "{workload} trace {trace}: unit of {name}"
            );
        }
        seen.push((workload, trace));
    }
    let mut want: Vec<(String, usize)> = workloads
        .iter()
        .flat_map(|w| [(w.to_string(), 0), (w.to_string(), 1)])
        .collect();
    seen.sort();
    want.sort();
    assert_eq!(seen, want, "one run per workload and pass");
}
