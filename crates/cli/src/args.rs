//! Hand-rolled argument parsing (no CLI dependency in the offline set).

/// Usage text shown by `help` and on errors.
pub const USAGE: &str = "\
btrace — block-based mobile tracing toolkit

USAGE:
    btrace <COMMAND> [OPTIONS]

COMMANDS:
    scenarios                      list the built-in replay workloads
    demo                           run a quick synthetic demo
    replay                         replay a workload against one tracer
        --scenario <NAME>          workload (default eShop-1)
        --tracer <NAME>            BTrace|BBQ|ftrace|LTTng|VTrace (default BTrace)
        --scale <F>                fraction of the 30 s workload (default 0.05)
        --threads <K>              fragment-parallel readout workers (default 1)
    dump                           replay, then persist the buffer to a file
        --scenario <NAME>          workload (default eShop-1)
        --out <FILE>               output path (default trace.btd)
        --scale <F>                fraction of the 30 s workload (default 0.05)
    inspect <FILE>                 analyze a dump file
        --map                      also print the retention gap map
    analyze <FILE>                 fragment-parallel analysis of a frame stream or dump
        --threads <K>              worker threads (default 1 = sequential reference)
        --fragments <N>            fragments to split into (default: one per thread)
        --map                      also print the retention gap map
    query <FILE>                   predicate query over a frame stream or dump
        --since <STAMP>            keep events with stamp >= STAMP
        --until <STAMP>            keep events with stamp <= STAMP
        --core <N>                 keep events from core N (repeatable)
        --category <NAME|0xBITS>   keep atrace events in this category
                                   (name from the catalog, or a hex/dec mask)
        --threads <K>              worker threads; K > 1 is cross-checked
                                   against a 1-thread run (default 1)
        --metrics                  also print the retention metrics table
        --gap-map                  also print the retention gap map
        --json                     emit the report as one JSON line
    stat                           run a synthetic load, print a health snapshot
        --json                     emit the snapshot as one JSON line
        --duration-ms <N>          workload length (default 1000)
        --jsonl <FILE>             also append periodic snapshots to a JSONL file
        --prom <FILE>              also maintain a Prometheus textfile
    watch                          live health table while a synthetic load runs
        --period-ms <N>            sampling period (default 500)
        --duration-ms <N>          workload length (default 5000)
        --jsonl <FILE>             also append periodic snapshots to a JSONL file
        --prom <FILE>              also maintain a Prometheus textfile
    stream                         continuously export a synthetic load as frames
        --duration-ms <N>          workload length (default 2000)
        --out <FILE>               frame file (default: discard, count only)
        --policy <block|drop>      backpressure policy (default block)
        --batch-events <N>         max events per frame (default 512)
        --queue-depth <N>          bound of each stage queue (default 8)
        --drain-threads <K>        drain workers, one per sequence stripe
                                   (default: min(4, host CPUs); K above the
                                   host CPU count prints a warning)
        --auto-size                adaptive buffer sizing (the controller)
        --budget <BYTES>           hard memory budget for --auto-size
                                   (default: the buffer's reserved maximum)
        --target-loss <PPM>        loss-rate target in ppm for --auto-size
                                   (default 10000 = 1% of blocks)
        --json                     emit final stats as one JSON line
    tune                           dry-run the sizing controller on a
                                   synthetic load, print its decisions
        --duration-ms <N>          workload length (default 2000)
        --budget <BYTES>           hard memory budget (default: reserved max)
        --target-loss <PPM>        loss-rate target in ppm (default 10000)
        --json                     emit the recommendation as one JSON line
    doctor                         seeded fault-storm run, then loss forensics
        --fault-seed <N>           commit-fault plan seed, 0 disables (default 183)
        --duration-ms <N>          workload length (default 1000)
        --json                     emit the diagnosis as one JSON line
    events                         run a synthetic load, print the recorder timeline
        --duration-ms <N>          workload length (default 1000)
        --follow                   tail events live while the load runs
        --json                     one JSON object per event
    help                           show this text
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List scenarios.
    Scenarios,
    /// Quick demo.
    Demo,
    /// Replay one scenario against one tracer.
    Replay {
        /// Scenario name.
        scenario: String,
        /// Tracer name.
        tracer: String,
        /// Workload scale.
        scale: f64,
        /// Fragment-parallel readout workers (1 = sequential).
        threads: usize,
    },
    /// Replay and persist.
    Dump {
        /// Scenario name.
        scenario: String,
        /// Output path.
        out: String,
        /// Workload scale.
        scale: f64,
    },
    /// Analyze a dump file.
    Inspect {
        /// Dump path.
        file: String,
        /// Whether to print the gap map.
        map: bool,
    },
    /// Fragment-parallel analysis of a frame stream (.btsf) or dump (.btd).
    Analyze {
        /// Input path.
        file: String,
        /// Worker threads (1 = the sequential reference).
        threads: usize,
        /// Fragment count (0 = one per thread).
        fragments: usize,
        /// Whether to print the gap map.
        map: bool,
    },
    /// Predicate query over a frame stream (.btsf) or dump (.btd).
    Query {
        /// Input path.
        file: String,
        /// Keep events with `stamp >= since`.
        since: Option<u64>,
        /// Keep events with `stamp <= until`.
        until: Option<u64>,
        /// Keep events from these cores (empty = all).
        cores: Vec<u16>,
        /// Category name or bit mask, if given.
        category: Option<String>,
        /// Worker threads.
        threads: usize,
        /// Whether to print the retention metrics table.
        metrics: bool,
        /// Whether to print the gap map.
        map: bool,
        /// Emit the report as one JSON line.
        json: bool,
    },
    /// One-shot health snapshot of a synthetic workload.
    Stat {
        /// Emit JSON instead of a table.
        json: bool,
        /// Workload length in milliseconds.
        duration_ms: u64,
        /// Optional JSONL export path.
        jsonl: Option<String>,
        /// Optional Prometheus textfile path.
        prom: Option<String>,
    },
    /// Live health table of a synthetic workload.
    Watch {
        /// Sampling period in milliseconds.
        period_ms: u64,
        /// Workload length in milliseconds.
        duration_ms: u64,
        /// Optional JSONL export path.
        jsonl: Option<String>,
        /// Optional Prometheus textfile path.
        prom: Option<String>,
    },
    /// Stream a synthetic workload through the drain pipeline.
    Stream {
        /// Workload length in milliseconds.
        duration_ms: u64,
        /// Frame file path (`None` discards frames, counting them).
        out: Option<String>,
        /// `true` = block on full queues, `false` = drop-and-count.
        block: bool,
        /// Max events per encoded frame.
        batch_events: usize,
        /// Bound of each inter-stage queue.
        queue_depth: usize,
        /// Drain worker threads (stripes of the block-sequence space).
        /// `None` lets the command pick `min(4, host CPUs)`.
        drain_threads: Option<usize>,
        /// Run the adaptive-sizing controller alongside the stream.
        auto_size: bool,
        /// Hard memory budget in bytes for the controller (`None` uses
        /// the buffer's reserved maximum).
        budget: Option<u64>,
        /// Controller loss-rate target in ppm.
        target_loss_ppm: u64,
        /// Emit final stats as JSON instead of tables.
        json: bool,
    },
    /// Dry-run the sizing controller against a synthetic load.
    Tune {
        /// Workload length in milliseconds.
        duration_ms: u64,
        /// Hard memory budget in bytes (`None` uses the reserved max).
        budget: Option<u64>,
        /// Loss-rate target in ppm.
        target_loss_ppm: u64,
        /// Emit the recommendation as one JSON line.
        json: bool,
    },
    /// Seeded fault-storm run followed by loss forensics.
    Doctor {
        /// Fault plan seed (`0` disables injection).
        fault_seed: u64,
        /// Workload length in milliseconds.
        duration_ms: u64,
        /// Emit the diagnosis as JSON instead of a report.
        json: bool,
    },
    /// Print the flight-recorder timeline of a synthetic load.
    Events {
        /// Workload length in milliseconds.
        duration_ms: u64,
        /// Tail events live instead of dumping at the end.
        follow: bool,
        /// One JSON object per event.
        json: bool,
    },
    /// Show usage.
    Help,
}

/// Parses the argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else { return Ok(Command::Help) };
    match cmd.as_str() {
        "scenarios" => Ok(Command::Scenarios),
        "demo" => Ok(Command::Demo),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "replay" => {
            let opts = options(it.as_slice(), &["--scenario", "--tracer", "--scale", "--threads"])?;
            Ok(Command::Replay {
                scenario: opts.get("--scenario").cloned().unwrap_or_else(|| "eShop-1".into()),
                tracer: opts.get("--tracer").cloned().unwrap_or_else(|| "BTrace".into()),
                scale: parse_scale(opts.get("--scale"))?,
                threads: parse_count(opts.get("--threads"), 1)?,
            })
        }
        "dump" => {
            let opts = options(it.as_slice(), &["--scenario", "--out", "--scale"])?;
            Ok(Command::Dump {
                scenario: opts.get("--scenario").cloned().unwrap_or_else(|| "eShop-1".into()),
                out: opts.get("--out").cloned().unwrap_or_else(|| "trace.btd".into()),
                scale: parse_scale(opts.get("--scale"))?,
            })
        }
        "inspect" => {
            let mut file = None;
            let mut map = false;
            for arg in it {
                match arg.as_str() {
                    "--map" => map = true,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown option {other}"))
                    }
                    other => {
                        if file.replace(other.to_string()).is_some() {
                            return Err("inspect takes exactly one file".into());
                        }
                    }
                }
            }
            let file = file.ok_or("inspect requires a file argument")?;
            Ok(Command::Inspect { file, map })
        }
        "analyze" => {
            let mut file = None;
            let mut map = false;
            let mut opts = std::collections::BTreeMap::new();
            let mut words = it;
            while let Some(arg) = words.next() {
                match arg.as_str() {
                    "--map" => map = true,
                    key @ ("--threads" | "--fragments") => {
                        let value = words.next().ok_or(format!("{key} requires a value"))?;
                        opts.insert(key.to_string(), value.to_string());
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown option {other}"))
                    }
                    other => {
                        if file.replace(other.to_string()).is_some() {
                            return Err("analyze takes exactly one file".into());
                        }
                    }
                }
            }
            let file = file.ok_or("analyze requires a file argument")?;
            Ok(Command::Analyze {
                file,
                threads: parse_count(opts.get("--threads"), 1)?,
                fragments: match opts.get("--fragments") {
                    None => 0,
                    Some(v) => v.parse().map_err(|_| format!("invalid --fragments {v}"))?,
                },
                map,
            })
        }
        "query" => {
            let mut file = None;
            let mut since = None;
            let mut until = None;
            let mut cores = Vec::new();
            let mut category = None;
            let mut threads = None;
            let (mut metrics, mut map, mut json) = (false, false, false);
            let mut words = it;
            while let Some(arg) = words.next() {
                match arg.as_str() {
                    "--metrics" => metrics = true,
                    "--gap-map" => map = true,
                    "--json" => json = true,
                    key @ ("--since" | "--until" | "--core" | "--category" | "--threads") => {
                        let value = words.next().ok_or(format!("{key} requires a value"))?;
                        match key {
                            "--since" => since = Some(parse_stamp(key, value)?),
                            "--until" => until = Some(parse_stamp(key, value)?),
                            "--core" => cores.push(
                                value.parse().map_err(|_| format!("invalid --core {value}"))?,
                            ),
                            "--category" => category = Some(value.clone()),
                            _ => threads = Some(value.clone()),
                        }
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown option {other}"))
                    }
                    other => {
                        if file.replace(other.to_string()).is_some() {
                            return Err("query takes exactly one file".into());
                        }
                    }
                }
            }
            if let (Some(s), Some(u)) = (since, until) {
                if s > u {
                    return Err(format!("--since {s} is after --until {u}"));
                }
            }
            let file = file.ok_or("query requires a file argument")?;
            Ok(Command::Query {
                file,
                since,
                until,
                cores,
                category,
                threads: parse_count(threads.as_ref(), 1)?,
                metrics,
                map,
                json,
            })
        }
        "stat" => {
            let (flags, opts) = flags_and_options(
                it.as_slice(),
                &["--json"],
                &["--duration-ms", "--jsonl", "--prom"],
            )?;
            Ok(Command::Stat {
                json: flags.contains(&"--json".to_string()),
                duration_ms: parse_ms(opts.get("--duration-ms"), 1000)?,
                jsonl: opts.get("--jsonl").cloned(),
                prom: opts.get("--prom").cloned(),
            })
        }
        "watch" => {
            let (_, opts) = flags_and_options(
                it.as_slice(),
                &[],
                &["--period-ms", "--duration-ms", "--jsonl", "--prom"],
            )?;
            Ok(Command::Watch {
                period_ms: parse_ms(opts.get("--period-ms"), 500)?,
                duration_ms: parse_ms(opts.get("--duration-ms"), 5000)?,
                jsonl: opts.get("--jsonl").cloned(),
                prom: opts.get("--prom").cloned(),
            })
        }
        "stream" => {
            let (flags, opts) = flags_and_options(
                it.as_slice(),
                &["--json", "--auto-size"],
                &[
                    "--duration-ms",
                    "--out",
                    "--policy",
                    "--batch-events",
                    "--queue-depth",
                    "--drain-threads",
                    "--budget",
                    "--target-loss",
                ],
            )?;
            let block = match opts.get("--policy").map(String::as_str) {
                None | Some("block") => true,
                Some("drop") => false,
                Some(other) => return Err(format!("--policy must be block or drop, got {other}")),
            };
            let auto_size = flags.contains(&"--auto-size".to_string());
            if !auto_size && (opts.contains_key("--budget") || opts.contains_key("--target-loss")) {
                return Err("--budget/--target-loss require --auto-size".into());
            }
            Ok(Command::Stream {
                duration_ms: parse_ms(opts.get("--duration-ms"), 2000)?,
                out: opts.get("--out").cloned(),
                block,
                batch_events: parse_count(opts.get("--batch-events"), 512)?,
                queue_depth: parse_count(opts.get("--queue-depth"), 8)?,
                drain_threads: match opts.get("--drain-threads") {
                    None => None,
                    some => Some(parse_count(some, 1)?),
                },
                auto_size,
                budget: parse_bytes(opts.get("--budget"))?,
                target_loss_ppm: parse_ppm(opts.get("--target-loss"))?,
                json: flags.contains(&"--json".to_string()),
            })
        }
        "tune" => {
            let (flags, opts) = flags_and_options(
                it.as_slice(),
                &["--json"],
                &["--duration-ms", "--budget", "--target-loss"],
            )?;
            Ok(Command::Tune {
                duration_ms: parse_ms(opts.get("--duration-ms"), 2000)?,
                budget: parse_bytes(opts.get("--budget"))?,
                target_loss_ppm: parse_ppm(opts.get("--target-loss"))?,
                json: flags.contains(&"--json".to_string()),
            })
        }
        "doctor" => {
            let (flags, opts) =
                flags_and_options(it.as_slice(), &["--json"], &["--fault-seed", "--duration-ms"])?;
            let fault_seed = match opts.get("--fault-seed") {
                None => 183,
                Some(v) => v.parse().map_err(|_| format!("invalid --fault-seed {v}"))?,
            };
            Ok(Command::Doctor {
                fault_seed,
                duration_ms: parse_ms(opts.get("--duration-ms"), 1000)?,
                json: flags.contains(&"--json".to_string()),
            })
        }
        "events" => {
            let (flags, opts) =
                flags_and_options(it.as_slice(), &["--follow", "--json"], &["--duration-ms"])?;
            Ok(Command::Events {
                duration_ms: parse_ms(opts.get("--duration-ms"), 1000)?,
                follow: flags.contains(&"--follow".to_string()),
                json: flags.contains(&"--json".to_string()),
            })
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn parse_stamp(key: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|_| format!("invalid {key} {value}"))
}

fn parse_count(value: Option<&String>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => {
            let n: usize = v.parse().map_err(|_| format!("invalid count {v}"))?;
            if n == 0 {
                return Err("count must be positive".into());
            }
            Ok(n)
        }
    }
}

/// Like [`options`], but also accepts valueless boolean flags.
fn flags_and_options(
    rest: &[String],
    flags: &[&str],
    allowed: &[&str],
) -> Result<(Vec<String>, std::collections::HashMap<String, String>), String> {
    let mut seen_flags = Vec::new();
    let mut out = std::collections::HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let key = &rest[i];
        if flags.contains(&key.as_str()) {
            seen_flags.push(key.clone());
            i += 1;
        } else if allowed.contains(&key.as_str()) {
            let value = rest.get(i + 1).ok_or_else(|| format!("{key} requires a value"))?;
            out.insert(key.clone(), value.clone());
            i += 2;
        } else {
            return Err(format!("unknown option {key}"));
        }
    }
    Ok((seen_flags, out))
}

/// Optional positive byte count (`--budget`).
fn parse_bytes(value: Option<&String>) -> Result<Option<u64>, String> {
    match value {
        None => Ok(None),
        Some(v) => {
            let bytes: u64 = v.parse().map_err(|_| format!("invalid byte count {v}"))?;
            if bytes == 0 {
                return Err("byte count must be positive".into());
            }
            Ok(Some(bytes))
        }
    }
}

/// Parts-per-million value (`--target-loss`), default 10000 (1%).
fn parse_ppm(value: Option<&String>) -> Result<u64, String> {
    match value {
        None => Ok(10_000),
        Some(v) => {
            let ppm: u64 = v.parse().map_err(|_| format!("invalid ppm value {v}"))?;
            if ppm > 1_000_000 {
                return Err(format!("ppm value must be <= 1000000, got {ppm}"));
            }
            Ok(ppm)
        }
    }
}

fn parse_ms(value: Option<&String>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => {
            let ms: u64 = v.parse().map_err(|_| format!("invalid millisecond value {v}"))?;
            if ms == 0 {
                return Err("millisecond value must be positive".into());
            }
            Ok(ms)
        }
    }
}

fn options(
    rest: &[String],
    allowed: &[&str],
) -> Result<std::collections::HashMap<String, String>, String> {
    let mut out = std::collections::HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let key = &rest[i];
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown option {key}"));
        }
        let value = rest.get(i + 1).ok_or_else(|| format!("{key} requires a value"))?;
        out.insert(key.clone(), value.clone());
        i += 2;
    }
    Ok(out)
}

fn parse_scale(value: Option<&String>) -> Result<f64, String> {
    match value {
        None => Ok(0.05),
        Some(v) => {
            let scale: f64 = v.parse().map_err(|_| format!("invalid --scale {v}"))?;
            if scale <= 0.0 || scale > 1.0 {
                return Err(format!("--scale must be in (0, 1], got {scale}"));
            }
            Ok(scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_each_command() {
        assert_eq!(parse(&argv("scenarios")), Ok(Command::Scenarios));
        assert_eq!(parse(&argv("demo")), Ok(Command::Demo));
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&argv("--help")), Ok(Command::Help));
        assert_eq!(
            parse(&argv("replay --scenario IM --tracer LTTng --scale 0.2 --threads 4")),
            Ok(Command::Replay {
                scenario: "IM".into(),
                tracer: "LTTng".into(),
                scale: 0.2,
                threads: 4
            })
        );
        assert_eq!(
            parse(&argv("dump --out x.btd")),
            Ok(Command::Dump { scenario: "eShop-1".into(), out: "x.btd".into(), scale: 0.05 })
        );
        assert_eq!(
            parse(&argv("inspect x.btd --map")),
            Ok(Command::Inspect { file: "x.btd".into(), map: true })
        );
    }

    #[test]
    fn parses_analyze() {
        assert_eq!(
            parse(&argv("analyze frames.btsf")),
            Ok(Command::Analyze {
                file: "frames.btsf".into(),
                threads: 1,
                fragments: 0,
                map: false
            })
        );
        assert_eq!(
            parse(&argv("analyze --threads 8 trace.btd --fragments 16 --map")),
            Ok(Command::Analyze { file: "trace.btd".into(), threads: 8, fragments: 16, map: true })
        );
        assert!(parse(&argv("analyze")).is_err());
        assert!(parse(&argv("analyze a b")).is_err());
        assert!(parse(&argv("analyze x --threads 0")).is_err());
        assert!(parse(&argv("analyze x --threads")).is_err());
        assert!(parse(&argv("analyze x --fragments nope")).is_err());
        assert!(parse(&argv("analyze x --bogus")).is_err());
    }

    #[test]
    fn parses_query() {
        assert_eq!(
            parse(&argv("query frames.btsf")),
            Ok(Command::Query {
                file: "frames.btsf".into(),
                since: None,
                until: None,
                cores: vec![],
                category: None,
                threads: 1,
                metrics: false,
                map: false,
                json: false
            })
        );
        assert_eq!(
            parse(&argv(
                "query --since 100 --until 900 --core 0 --core 3 --category sched \
                 --threads 4 trace.btd --metrics --gap-map --json"
            )),
            Ok(Command::Query {
                file: "trace.btd".into(),
                since: Some(100),
                until: Some(900),
                cores: vec![0, 3],
                category: Some("sched".into()),
                threads: 4,
                metrics: true,
                map: true,
                json: true
            })
        );
        assert!(parse(&argv("query")).is_err());
        assert!(parse(&argv("query a b")).is_err());
        assert!(parse(&argv("query x --since nope")).is_err());
        assert!(parse(&argv("query x --since 10 --until 5")).is_err());
        assert!(parse(&argv("query x --core -1")).is_err());
        assert!(parse(&argv("query x --category")).is_err());
        assert!(parse(&argv("query x --threads 0")).is_err());
        assert!(parse(&argv("query x --bogus")).is_err());
    }

    #[test]
    fn defaults_apply() {
        match parse(&argv("replay")).unwrap() {
            Command::Replay { scenario, tracer, scale, threads } => {
                assert_eq!(scenario, "eShop-1");
                assert_eq!(tracer, "BTrace");
                assert_eq!(scale, 0.05);
                assert_eq!(threads, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_stat_and_watch() {
        assert_eq!(
            parse(&argv("stat --json --duration-ms 250 --jsonl h.jsonl")),
            Ok(Command::Stat {
                json: true,
                duration_ms: 250,
                jsonl: Some("h.jsonl".into()),
                prom: None
            })
        );
        assert_eq!(
            parse(&argv("stat")),
            Ok(Command::Stat { json: false, duration_ms: 1000, jsonl: None, prom: None })
        );
        assert_eq!(
            parse(&argv("watch --period-ms 100 --prom out.prom")),
            Ok(Command::Watch {
                period_ms: 100,
                duration_ms: 5000,
                jsonl: None,
                prom: Some("out.prom".into())
            })
        );
        assert!(parse(&argv("stat --duration-ms 0")).is_err());
        assert!(parse(&argv("watch --json")).is_err());
        assert!(parse(&argv("stat --period-ms 100")).is_err());
    }

    #[test]
    fn parses_stream() {
        assert_eq!(
            parse(&argv("stream")),
            Ok(Command::Stream {
                duration_ms: 2000,
                out: None,
                block: true,
                batch_events: 512,
                queue_depth: 8,
                drain_threads: None,
                auto_size: false,
                budget: None,
                target_loss_ppm: 10_000,
                json: false
            })
        );
        assert_eq!(
            parse(&argv("stream --policy drop --out t.btsf --queue-depth 4 --json")),
            Ok(Command::Stream {
                duration_ms: 2000,
                out: Some("t.btsf".into()),
                block: false,
                batch_events: 512,
                queue_depth: 4,
                drain_threads: None,
                auto_size: false,
                budget: None,
                target_loss_ppm: 10_000,
                json: true
            })
        );
        assert_eq!(
            parse(&argv("stream --drain-threads 4")),
            Ok(Command::Stream {
                duration_ms: 2000,
                out: None,
                block: true,
                batch_events: 512,
                queue_depth: 8,
                drain_threads: Some(4),
                auto_size: false,
                budget: None,
                target_loss_ppm: 10_000,
                json: false
            })
        );
        assert!(parse(&argv("stream --policy sideways")).is_err());
        assert!(parse(&argv("stream --batch-events 0")).is_err());
        assert!(parse(&argv("stream --queue-depth x")).is_err());
        assert!(parse(&argv("stream --drain-threads 0")).is_err());
    }

    #[test]
    fn parses_auto_size_and_tune() {
        assert_eq!(
            parse(&argv("stream --auto-size --budget 1048576 --target-loss 500")),
            Ok(Command::Stream {
                duration_ms: 2000,
                out: None,
                block: true,
                batch_events: 512,
                queue_depth: 8,
                drain_threads: None,
                auto_size: true,
                budget: Some(1_048_576),
                target_loss_ppm: 500,
                json: false
            })
        );
        // Budget and loss target are controller knobs: rejected without it.
        assert!(parse(&argv("stream --budget 1048576")).is_err());
        assert!(parse(&argv("stream --target-loss 500")).is_err());
        assert!(parse(&argv("stream --auto-size --budget 0")).is_err());
        assert!(parse(&argv("stream --auto-size --target-loss 2000000")).is_err());
        assert_eq!(
            parse(&argv("tune")),
            Ok(Command::Tune {
                duration_ms: 2000,
                budget: None,
                target_loss_ppm: 10_000,
                json: false
            })
        );
        assert_eq!(
            parse(&argv("tune --duration-ms 500 --budget 262144 --target-loss 1000 --json")),
            Ok(Command::Tune {
                duration_ms: 500,
                budget: Some(262_144),
                target_loss_ppm: 1000,
                json: true
            })
        );
        assert!(parse(&argv("tune --budget nope")).is_err());
    }

    #[test]
    fn parses_doctor_and_events() {
        assert_eq!(
            parse(&argv("doctor")),
            Ok(Command::Doctor { fault_seed: 183, duration_ms: 1000, json: false })
        );
        assert_eq!(
            parse(&argv("doctor --fault-seed 0 --duration-ms 250 --json")),
            Ok(Command::Doctor { fault_seed: 0, duration_ms: 250, json: true })
        );
        assert_eq!(
            parse(&argv("events --follow")),
            Ok(Command::Events { duration_ms: 1000, follow: true, json: false })
        );
        assert_eq!(
            parse(&argv("events --json --duration-ms 400")),
            Ok(Command::Events { duration_ms: 400, follow: false, json: true })
        );
        assert!(parse(&argv("doctor --fault-seed nope")).is_err());
        assert!(parse(&argv("events --fault-seed 3")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("replay --bogus 1")).is_err());
        assert!(parse(&argv("replay --scale")).is_err());
        assert!(parse(&argv("replay --scale nan-ish")).is_err());
        assert!(parse(&argv("replay --scale 5.0")).is_err());
        assert!(parse(&argv("inspect")).is_err());
        assert!(parse(&argv("inspect a b")).is_err());
    }
}
