//! End-to-end and per-layer benchmark of BTrace.
//!
//! ```text
//! perfbench --workload <record|export|saturate|query> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Each workload generates its inputs from the seed, measures for the given
//! seconds, checks the program's outputs, and prints a report line followed
//! by one result line of JSON. With `--trace 0` the result holds every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric from
//! a run that records spans around each call into a layer. `--tiny`
//! shrinks the inputs for a smoke test. Scratch files go to `.bench_out/`
//! under the working directory. See `README.md` beside this file.

mod export;
mod load;
mod query;
mod record;
mod spans;
mod util;

use spans::SpanLog;
use std::path::PathBuf;
use util::{num, object, string, Metric, Outcome};

/// One run's settings, from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 4] = ["record", "export", "saturate", "query"];

/// Every per-layer metric `(name, unit)`. Each traced run emits all of
/// them; a layer the workload does not run reports 0.
pub const LAYERS: [(&str, &str); 34] = [
    ("atrace.encode_ns", "ns"),
    ("atrace.decode_ns", "ns"),
    ("core.record_ns", "ns"),
    ("core.advances_per_kevent", "1/kevent"),
    ("core.skip_rate", "ratio"),
    ("drain.ns_per_event", "ns"),
    ("drain.events_per_batch", "count"),
    ("drain.missed_blocks", "count"),
    ("batch.ns_per_event", "ns"),
    ("encode.ns_per_event", "ns"),
    ("encode.bytes_per_event", "B"),
    ("sink.write_ns_per_event", "ns"),
    ("batch.queue_wait_ms_p50", "ms"),
    ("encode.queue_wait_ms_p50", "ms"),
    ("sink.queue_wait_ms_p50", "ms"),
    ("pipeline.dropped", "count"),
    ("pipeline.io_retries", "count"),
    ("sink.frame_lag_ms_p99", "ms"),
    ("store.open_ms", "ms"),
    ("store.decode_ns_per_event", "ns"),
    ("query.filter_ns_per_event", "ns"),
    ("query.plan_us", "us"),
    ("store.frames_decoded_share", "ratio"),
    ("query.match_share", "ratio"),
    ("analysis.map_ns_per_event", "ns"),
    ("analysis.merge_us", "us"),
    ("vmem.tracer_new_ms", "ms"),
    ("gen.offered_per_s", "1/s"),
    ("gen.achieved_per_s", "1/s"),
    ("gen.lateness_ms_p99", "ms"),
    ("gen.lateness_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("ledger.accounted_share", "ratio"),
    ("ledger.within_tolerance", "bool"),
];

/// Every per-layer metric at 0, to be filled by the workload.
pub fn zero_layers() -> Vec<Metric> {
    LAYERS.iter().map(|&(name, unit)| Metric::single(name, unit, 0.0, "")).collect()
}

/// Sets per-layer values by name.
pub fn set_layers(layers: &mut [Metric], values: &[(&str, f64)]) {
    for &(name, value) in values {
        let m = layers
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *m = Metric::single(m.name, m.unit, value, "");
    }
}

/// How far the summed self time of the traced layers may stray from the
/// process CPU time of the traced phase and still count as accounting for it.
pub const LEDGER_TOLERANCE: f64 = 0.25;

/// Layer busy time against end-to-end CPU time, over the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    pub layers_busy_ns: f64,
    pub process_cpu_ns: f64,
}

impl Ledger {
    pub fn share(&self) -> f64 {
        self.layers_busy_ns / self.process_cpu_ns.max(1.0)
    }

    pub fn within(&self) -> bool {
        (self.share() - 1.0).abs() <= LEDGER_TOLERANCE
    }

    pub fn json(&self) -> String {
        object([
            ("layers_busy_ms", num(self.layers_busy_ns / 1e6)),
            ("process_cpu_ms", num(self.process_cpu_ns / 1e6)),
            ("accounted_share", num(self.share())),
            ("tolerance", num(LEDGER_TOLERANCE)),
            ("within_tolerance", self.within().to_string()),
        ])
    }
}

/// A workload's own metric names (`record_ns_p50`, `loss_ppm`, …), which the
/// generic gated names stand for, for the report line.
pub fn workload_metrics(values: &[(&str, &str, f64)]) -> String {
    object(
        values
            .iter()
            .map(|&(name, unit, v)| (name, object([("value", num(v)), ("unit", string(unit))]))),
    )
}

/// Writes the traced run's spans beside the other scratch output.
pub fn write_spans(ctx: &Ctx, log: &SpanLog, out: &mut Outcome) {
    let path = ctx.out_dir.join(format!("{}-seed{}.spans.tsv", ctx.workload, ctx.seed));
    let written = log.write(&path);
    out.check("spans_written", written.is_ok(), format!("{}: {written:?}", path.display()));
    out.extra.push(("spans_file", string(&path.display().to_string())));
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| usage(&format!(".bench_out: {e}")));
    Ctx {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        tiny,
        out_dir,
    }
}

fn metric_detail(m: &Metric) -> String {
    object([
        ("name", string(m.name)),
        ("unit", string(m.unit)),
        ("value", num(m.value)),
        ("samples", m.summary.count.to_string()),
        ("median", num(m.summary.median)),
        ("tail_pct", num(m.summary.tail_pct)),
        ("tail", num(m.summary.tail)),
        ("means", string(&m.means)),
    ])
}

fn main() {
    let ctx = parse_args();
    let mut out = match ctx.workload.as_str() {
        "record" => record::run(&ctx),
        "export" => export::run(&ctx, export::Load::Export),
        "saturate" => export::run(&ctx, export::Load::Saturate),
        "query" => query::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    let reported =
        |out: &Outcome| if ctx.trace { out.per_layer.clone() } else { out.end_to_end.clone() };
    let finite = reported(&out).iter().all(|m| m.value.is_finite());
    out.check("metrics_finite", finite, "every reported value is a finite number");
    let attempted = out.attempted;
    out.check("work_done", attempted > 0, format!("{attempted} operations attempted"));
    let metrics = reported(&out);

    let header = object([
        ("host_cpus", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("rustc", string(env!("PERFBENCH_RUSTC"))),
        ("commit", string(env!("PERFBENCH_COMMIT"))),
        ("profile", string(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("workload", string(&ctx.workload)),
        ("seed", ctx.seed.to_string()),
        ("seconds", num(ctx.seconds)),
        ("trace", (ctx.trace as u8).to_string()),
        ("tiny", ctx.tiny.to_string()),
    ]);
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            object([
                ("name", string(c.name)),
                ("ok", c.ok.to_string()),
                ("detail", string(&c.detail)),
            ])
        })
        .collect();
    let details: Vec<String> =
        out.end_to_end.iter().chain(&out.per_layer).map(metric_detail).collect();
    let mut report = vec![
        ("header", header),
        ("checks", format!("[{}]", checks.join(","))),
        ("metrics", format!("[{}]", details.join(","))),
    ];
    report.extend(out.extra.iter().map(|(k, v)| (*k, v.clone())));
    println!("{}", object([("report", object(report))]));

    let result =
        object([
            ("correct", out.correct().to_string()),
            ("attempted", out.attempted.max(1).to_string()),
            ("failed", out.failed.to_string()),
            (
                "metrics",
                object(metrics.iter().map(|m| {
                    (m.name, object([("value", num(m.value)), ("unit", string(m.unit))]))
                })),
            ),
        ]);
    println!("{result}");
}
