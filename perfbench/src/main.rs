//! CCFIT simulator benchmark: one workload per process.
//!
//! ```text
//! ccfit-perfbench --workload <paper-sweep|scale-uniform|flow-fct> --seed <n>
//!                 --seconds <s> --trace <0|1> [--out-dir <dir>] [--revision <rev>]
//! ```
//!
//! Prints every metric with its unit, one per line, then a last line of
//! JSON: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. Host-time metrics are reported at nominal host speed (see
//! `calib.rs`). The full record (provenance, per-round values,
//! quartiles, unscaled host times, report digest) goes to
//! `<out-dir>/<workload>-seed<n>-trace<t>.json`,
//! and a traced run writes its spans beside it. `run.py` builds and runs
//! this binary with `MALLOC_ARENA_MAX=1`; see README.md.

mod bench;
mod calib;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Kind, MetricDef, RunResult};
use serde_json::Value;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    revision: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            Some(i) => argv
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let workload = get("--workload")?.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {workload:?}; known: {}", known.join(", "))
    })?;
    let seed = get("--seed")?
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out_dir =
        get("--out-dir")?.map_or_else(|| PathBuf::from("perfbench/results"), PathBuf::from);
    let revision = get("--revision")?.unwrap_or_else(|| "unknown".into());
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        out_dir,
        revision,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One reported metric: the median of its samples plus their quartiles.
struct Reported {
    def: MetricDef,
    median: f64,
    quartiles: [f64; 3],
    samples: Vec<f64>,
}

/// Summarise `defs`. A metric without samples is an error: every
/// workload must report every metric.
fn summarise(
    defs: &[MetricDef],
    result: &RunResult,
    peak_rss: f64,
) -> Result<Vec<Reported>, String> {
    defs.iter()
        .map(|d| {
            if !stats::valid_metric_name(&d.name) || !stats::valid_unit(d.unit) {
                return Err(format!(
                    "invalid metric name or unit: {} [{}]",
                    d.name, d.unit
                ));
            }
            let samples: Vec<f64> = if d.name == "peak_rss_mib" {
                vec![peak_rss]
            } else {
                result.samples.0.get(&d.name).cloned().unwrap_or_default()
            };
            let median = stats::median(&samples)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !median.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            Ok(Reported {
                def: d.clone(),
                median,
                quartiles: stats::quartiles(&samples).expect("non-empty"),
                samples,
            })
        })
        .collect()
}

fn num(x: f64) -> Value {
    Value::Float(x)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let name = args.kind.name();
    let result = bench::run(
        args.kind,
        args.seed,
        args.seconds,
        args.trace,
        false,
        &args.out_dir,
    );
    let peak_rss = bench::peak_rss_mib().unwrap_or(f64::NAN);
    let defs = if args.trace {
        bench::per_layer_defs()
    } else {
        bench::end_to_end_defs()
    };
    let reported = match summarise(&defs, &result, peak_rss) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let mut problems = result.checks.messages.clone();
    if args.trace {
        let coverage = result
            .samples
            .0
            .get("trace.phase_coverage")
            .cloned()
            .unwrap_or_default();
        for (round, cov) in coverage.iter().enumerate() {
            if !(0.9..=1.0 + 1e-9).contains(cov) {
                problems.push(format!(
                    "round {round}: phase times cover {cov:.3} of core.tick_s"
                ));
            }
        }
    }
    let correct = problems.is_empty();
    for p in problems.iter().take(20) {
        eprintln!("perfbench: check failed: {p}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tag = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let provenance = obj(vec![
        ("workload", Value::Str(name.into())),
        ("seed", Value::UInt(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", num(args.seconds)),
        ("revision", Value::Str(args.revision.clone())),
        ("cpu_model", Value::Str(cpu_model())),
        ("nproc", Value::UInt(nproc as u64)),
        (
            "engine_salt",
            Value::Str(ccfit_orchestrator::ENGINE_SALT.into()),
        ),
        ("specs", Value::UInt(result.spec_ticks.len() as u64)),
        ("rounds", Value::UInt(result.rounds as u64)),
        ("report_digest", Value::Str(result.report_digest.clone())),
    ]);
    let calls = &result.kernel_calls;
    let kernel_mean = calls.iter().map(|c| c.1).sum::<f64>() / calls.len() as f64;
    let calibration = obj(vec![
        ("nominal_s", num(calib::NOMINAL_S)),
        ("mean_factor", num(calib::NOMINAL_S / kernel_mean)),
        (
            "calls",
            Value::Array(
                calls
                    .iter()
                    .map(|c| Value::Array(vec![num(c.0), num(c.1)]))
                    .collect(),
            ),
        ),
    ]);
    println!(
        "# {tag}: {} rounds of {} simulations",
        result.rounds,
        result.spec_ticks.len()
    );
    println!(
        "# revision {} | {} | nproc {nproc} | {} | report digest {}",
        args.revision,
        cpu_model(),
        ccfit_orchestrator::ENGINE_SALT,
        result.report_digest
    );
    println!(
        "# host times at nominal speed: the calibration kernel took {kernel_mean:.4} s on average, nominal {} s",
        calib::NOMINAL_S
    );
    for r in &reported {
        println!(
            "{:<40} {:>16.6} {:<9} (q1 {:.6}, q3 {:.6})",
            r.def.name, r.median, r.def.unit, r.quartiles[0], r.quartiles[2]
        );
    }

    let metric_obj = |full: bool| {
        Value::Object(
            reported
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("value", num(r.median)),
                        ("unit", Value::Str(r.def.unit.into())),
                    ];
                    if full {
                        fields.push(("q1", num(r.quartiles[0])));
                        fields.push(("q3", num(r.quartiles[2])));
                        if let Some(raw) = result.unscaled.0.get(&r.def.name) {
                            let m = stats::median(raw).expect("non-empty");
                            fields.push(("unscaled", num(m)));
                        }
                        fields.push((
                            "samples",
                            Value::Array(r.samples.iter().copied().map(num).collect()),
                        ));
                    }
                    (r.def.name.clone(), obj(fields))
                })
                .collect(),
        )
    };
    let record = obj(vec![
        ("provenance", provenance),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(result.checks.attempted)),
        ("failed", Value::UInt(result.checks.failed)),
        (
            "problems",
            Value::Array(problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", metric_obj(true)),
        ("calibration", calibration),
        (
            "spec_tick_s",
            Value::Object(
                result
                    .spec_ticks
                    .iter()
                    .map(|(label, s)| (label.clone(), num(*s)))
                    .collect(),
            ),
        ),
        (
            "timed",
            Value::Array(
                result
                    .timed
                    .iter()
                    .map(|&(name, at, x)| {
                        Value::Array(vec![Value::Str(name.into()), num(at), num(x)])
                    })
                    .collect(),
            ),
        ),
        (
            "timeline",
            Value::Object(
                result
                    .timeline
                    .iter()
                    .map(|(label, rows)| {
                        let rows = rows
                            .iter()
                            .map(|r| Value::Array(r.iter().copied().map(num).collect()))
                            .collect();
                        (label.clone(), Value::Array(rows))
                    })
                    .collect(),
            ),
        ),
    ]);
    write_file(
        &args.out_dir.join(format!("{tag}.json")),
        &serde_json::to_string_pretty(&record).expect("the record serializes"),
    );
    if let Some(tracer) = &result.tracer {
        write_file(
            &args.out_dir.join(format!("{tag}-spans.json")),
            &tracer.to_json(),
        );
    }
    let last = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(result.checks.attempted)),
        ("failed", Value::UInt(result.checks.failed)),
        ("metrics", metric_obj(false)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&last).expect("the result serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `key` field of every entry of `BENCHMARK.json`'s `section`.
    fn declared(section: &str, key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| match m.get(key) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{section} entry without a string {key}: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        for (section, defs) in [
            ("end_to_end", bench::end_to_end_defs()),
            ("per_layer", bench::per_layer_defs()),
        ] {
            let names: Vec<String> = defs.iter().map(|d| d.name.clone()).collect();
            let units: Vec<String> = defs.iter().map(|d| d.unit.to_string()).collect();
            assert_eq!(names, declared(section, "name"));
            assert_eq!(units, declared(section, "unit"));
        }
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(kinds, declared("workloads", "name"));
    }

    /// A tiny run of every workload, traced and not, passes its checks
    /// and reports every declared metric with a finite value (checked by
    /// `summarise`); every end-to-end value is positive.
    #[test]
    fn tiny_runs_report_every_metric_with_its_unit() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("test-{}", std::process::id()));
        for kind in Kind::ALL {
            for trace in [false, true] {
                let result = bench::run(kind, 7, 0.0, trace, true, &dir);
                assert_eq!(
                    result.checks.failed, 0,
                    "{kind:?}: {:?}",
                    result.checks.messages
                );
                assert!(result.checks.attempted > 0);
                let defs = if trace {
                    bench::per_layer_defs()
                } else {
                    bench::end_to_end_defs()
                };
                let reported = summarise(&defs, &result, 1.0).expect("every metric measured");
                assert_eq!(reported.len(), defs.len());
                for r in &reported {
                    assert!(stats::valid_metric_name(&r.def.name) && stats::valid_unit(r.def.unit));
                    assert!(
                        trace || r.median > 0.0,
                        "{kind:?} {}: {}",
                        r.def.name,
                        r.median
                    );
                }
                assert_eq!(result.tracer.is_some(), trace);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
