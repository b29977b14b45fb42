//! Seeded inputs, sample statistics, process counters and the result types
//! every workload fills in.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// splitmix64: the benchmark's only randomness, so a seed fixes the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Quantile `q` of ascending `sorted` samples, linearly interpolated
/// between order statistics.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and one tail percentile of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples`, reporting percentile `tail_pct` as the tail.
    pub fn of(mut samples: Vec<f64>, tail_pct: f64) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            count: samples.len(),
            median: quantile(&samples, 0.5),
            tail_pct,
            tail: quantile(&samples, tail_pct / 100.0),
        }
    }

    /// A quantity measured once per run.
    pub fn single(value: f64) -> Summary {
        Summary { count: 1, median: value, tail_pct: 50.0, tail: value }
    }
}

/// Process CPU time (user + system, all threads, live or joined) in ns,
/// from `/proc/self/stat` at clock-tick resolution.
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks * (1_000_000_000 / CLOCK_TICKS_PER_SEC)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target the benchmark runs on.
const CLOCK_TICKS_PER_SEC: u64 = 100;

/// Resident set size of this process in MiB (`VmRSS`).
fn rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS present");
    kib / 1024.0
}

/// Samples the resident set size every 20 ms on a thread of its own while
/// a workload runs.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = vec![rss_mib()];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                samples.push(rss_mib());
            }
            samples
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling; returns the report-line summary of the samples.
    ///
    /// The resident set is reported, not gated: on glibc it swings by half
    /// between runs of the same code, as the allocator keeps or returns
    /// freed memory.
    pub fn finish(self) -> String {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self.handle.join().expect("rss sampler panicked");
        samples.sort_by(f64::total_cmp);
        object([
            ("samples", samples.len().to_string()),
            ("median", num(quantile(&samples, 0.5))),
            ("p90", num(quantile(&samples, 0.9))),
            ("max", num(quantile(&samples, 1.0))),
        ])
    }
}

/// One named metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    pub unit: &'static str,
    /// The reported value (the median for sampled metrics).
    pub value: f64,
    pub summary: Summary,
    /// What the generic name measures on this workload.
    pub means: String,
}

impl Metric {
    /// A sampled metric whose value is the sample median.
    pub fn median(name: &'static str, unit: &'static str, s: Summary, means: &str) -> Metric {
        Metric { name, unit, value: s.median, summary: s, means: means.into() }
    }

    /// A sampled metric whose value is the tail percentile.
    pub fn tail(name: &'static str, unit: &'static str, s: Summary, means: &str) -> Metric {
        Metric { name, unit, value: s.tail, summary: s, means: means.into() }
    }

    /// A quantity measured once per run.
    pub fn single(name: &'static str, unit: &'static str, value: f64, means: &str) -> Metric {
        Metric { name, unit, value, summary: Summary::single(value), means: means.into() }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check { name, ok, detail: detail.into() }
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (events offered, or queries run).
    pub attempted: u64,
    /// Operations that failed (see each workload for what counts).
    pub failed: u64,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra report fields as `(key, raw JSON value)`.
    pub extra: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON object from `(key, raw JSON value)` pairs.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields.into_iter().map(|(k, v)| format!("{}:{v}", string(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// ns per iteration of [`clock_scale`]'s kernel at which CPU-bound figures
/// are reported: about the fastest this kernel runs on the 2-vCPU Xeon host
/// the bounds were measured on.
pub const REFERENCE_NS: f64 = 1.0;

/// How much faster than the reference clock the host runs right now:
/// `REFERENCE_NS` over the ns per iteration of a fixed register-only
/// kernel (best of three runs of 65 536 iterations, about 0.2 ms).
///
/// A shared host's CPU clock wanders: this kernel's speed moved by up to
/// 50% between runs minutes apart, and every CPU-bound figure moved with
/// it. Multiplying a duration by the scale measured beside it (dividing a
/// rate) reports it at the reference clock. That cut the spread (quartile
/// distance over median) of ten runs' median cost per tracepoint in
/// `record` from 0.11–0.27 to 0.03, and of `query`'s median selective query
/// from 0.08–0.34 to 0.01–0.02. The kernel shares no code with the program,
/// so a change to the program moves scaled figures as much as raw ones.
pub fn clock_scale() -> f64 {
    const ITERS: u32 = 1 << 16;
    let best = (0..3)
        .map(|_| {
            let mut rng = Rng::new(1, 2);
            let mut acc = 0u64;
            let t0 = std::time::Instant::now();
            for _ in 0..ITERS {
                acc = acc.rotate_left(7) ^ rng.next();
            }
            std::hint::black_box(acc);
            t0.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .fold(f64::MAX, f64::min);
    REFERENCE_NS / best
}

/// Runs `f` and returns its result with its duration in seconds at the
/// reference clock.
pub fn timed_scaled<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    (r, secs * clock_scale())
}
