//! Runs every workload briefly on tiny inputs, traced and untraced, and
//! checks that all output checks pass, nothing fails, and every metric
//! `BENCHMARK.json` names is emitted with its unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A JSON value, enough of one to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
                match self.s[self.i] {
                    b'n' => out.push(b'\n'),
                    b'u' => {
                        let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5]).unwrap();
                        let c = char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap();
                        out.extend_from_slice(c.to_string().as_bytes());
                        self.i += 4;
                    }
                    c => out.push(c),
                }
            } else {
                out.push(self.s[self.i]);
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    map.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(std::str::from_utf8(&self.s[start..self.i]).unwrap().parse().unwrap())
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = spec.get(section) else { panic!("{section} is not an array") };
    items
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = parse(lines.next().expect("a result line"));
    let report = parse(lines.next().expect("a report line"));
    let Json::Arr(checks) = report.get("report").get("checks") else { panic!("checks") };
    assert!(!checks.is_empty(), "{workload}: no output checks ran");
    for check in checks {
        assert_eq!(check.get("ok"), &Json::Bool(true), "{workload}: check failed: {check:?}");
    }
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload} --trace {trace}");
    assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload} --trace {trace}");
    let Json::Num(attempted) = result.get("attempted") else { panic!("attempted") };
    assert!(*attempted >= 1.0);
    result
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_metric() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json beside perfbench"));
    let Json::Arr(workloads) = spec.get("workloads") else { panic!("workloads") };
    let mut names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    // Ungated, but it must keep working: the only workload that laps the drain.
    names.push("saturate");
    for workload in names {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            let Json::Obj(metrics) = result.get("metrics") else { panic!("metrics") };
            let want = declared(&spec, section);
            assert_eq!(metrics.len(), want.len(), "{workload}: exactly the {section} metrics");
            for (name, unit) in want {
                let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
                assert!(matches!(m.get("value"), Json::Num(_)), "{workload}: {name} is a number");
            }
        }
    }
}
