//! The three workloads and the passes that measure them.
//!
//! Every workload is a list of [`RunSpec`]s. A run repeats rounds of
//! these passes (see [`run`]):
//!
//! 1. **set-up** — specs, cache keys, `ConfigId::resolve` and
//!    `build_sim` for every spec, the simulators dropped unrun;
//! 2. **cold** — `run_matrix` (in-process threads, serial engine) into
//!    an empty result cache: the path every sweep, figure and shoot-out
//!    binary takes (`paper-sweep` every round, the others in the first
//!    round only);
//! 3. **in-process** — each spec resolved, built and run to the end on
//!    the serial engine from the benchmark itself, so the set-up, tick
//!    loop and report layers are timed one by one;
//! 4. **parallel** (`scale-uniform`) — each spec on the parallel engine
//!    (first round only, unless traced);
//! 5. **traced** (`--trace 1`) — pass 3 with `Simulator::tick_profiled`,
//!    a span around every layer call and explicit cache key/store/load
//!    calls.
//!
//! Between the rounds, **warm** passes run `run_matrix` over the last
//! cold cache, so every report is read back from disk. The reports of all
//! passes must be byte-identical; see [`Checks`] for what makes a
//! simulation count as failed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ccfit::metrics::SimReport;
use ccfit::topology::KAryNTree;
use ccfit::traffic::{self, Workload};
use ccfit::{
    ConfigId, ExperimentSpec, Mechanism, ParallelConfig, PhaseProfile, SimConfig, PHASE_NAMES,
};
use ccfit_orchestrator::hash::sha256_hex;
use ccfit_orchestrator::{
    run_matrix, Cache, EngineKnobs, ExecMode, ExperimentMatrix, MatrixRun, RunSpec, RunnerOptions,
};

use crate::calib;
use crate::stats;
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperSweep,
    ScaleUniform,
    FlowFct,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperSweep, Kind::ScaleUniform, Kind::FlowFct];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSweep => "paper-sweep",
            Kind::ScaleUniform => "scale-uniform",
            Kind::FlowFct => "flow-fct",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A metric's name and unit.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("wall_s", "s"),
        def("setup_s", "s"),
        def("warm_wall_s", "s"),
        def("sim_cycles_per_s", "cycles/s"),
        def("host_ns_per_packet", "ns"),
        def("peak_rss_mib", "MiB"),
        def("ok_ops_share", "share"),
        def("sim_throughput_norm", "share"),
    ]
}

const CC_COUNTERS: [&str; 9] = [
    "packets_isolated",
    "cfq_allocated",
    "cfq_exhausted",
    "stops_sent",
    "fecn_marked",
    "becn_received",
    "throttled_injections",
    "cnp_generated",
    "ack_generated",
];

fn phase_metric(phase: &str) -> String {
    format!("core.phase.{}_s", phase.replace('+', "_"))
}

/// The per-layer metrics, reported by every workload with tracing on.
/// A layer a workload never calls reports 0.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut d: Vec<MetricDef> = PHASE_NAMES
        .iter()
        .map(|p| def(phase_metric(p), "s"))
        .collect();
    d.extend([
        def("core.tick_s", "s"),
        def("core.ticks", "count"),
        def("core.ns_per_tick", "ns"),
        def("core.skip_share", "share"),
        def("core.active.switches_avg", "count"),
        def("core.active.adapters_avg", "count"),
        def("core.active.links_avg", "count"),
        def("core.build_s", "s"),
        def("core.parallel.effective_threads", "threads"),
        def("core.parallel.cycles_per_s", "cycles/s"),
        def("topology.resolve_s", "s"),
        def("topology.routing_s", "s"),
        def("traffic.build_s", "s"),
        def("traffic.flows", "count"),
        def("metrics.report_s", "s"),
        def("metrics.to_json_s", "s"),
        def("metrics.report_bytes", "bytes"),
        def("metrics.fct_p99_us", "us"),
        def("metrics.fct_slowdown_avg", "ratio"),
    ]);
    d.extend(CC_COUNTERS.iter().map(|c| def(format!("cc.{c}"), "count")));
    d.extend([
        def("cc.iso_ns_per_isolated_packet", "ns"),
        def("orchestrator.cache_key_s", "s"),
        def("orchestrator.cache.store_s", "s"),
        def("orchestrator.cache.load_s", "s"),
        def("orchestrator.cache.hit_share", "share"),
        def("orchestrator.runner.worker_idle_share", "share"),
        def("orchestrator.runner.retries", "count"),
        def("trace.overhead_share", "share"),
        def("host.calib_s", "s"),
    ]);
    d
}

// --- workload definitions -----------------------------------------------

/// The paper matrix, time-compressed (see the file's header).
const PAPER_MATRIX: &str = include_str!("../matrices/paper-sweep.toml");

/// Congestion-control mechanisms of `flow-fct`.
const FLOW_MECHANISMS: [&str; 3] = ["CCFIT", "DCQCN", "HPCC"];

/// A workload's simulations, whether it has a parallel leg, and which
/// pass its `wall_s` times. (`run_matrix` always gets `nproc` jobs; it
/// never starts more jobs than there are specs.)
struct Plan {
    specs: Vec<RunSpec>,
    /// Whether every spec also runs on the parallel engine with `nproc`
    /// threads (only where the engine does not fall back to serial):
    /// once per run, and in every round of a traced run.
    parallel_leg: bool,
    /// Whether `wall_s` is the cold `run_matrix` pass, which then runs
    /// every round. Otherwise `wall_s` is the in-process pass, and the
    /// cold pass runs in the first round only, for the checks and the
    /// warm passes' cache.
    wall_from_cold: bool,
}

/// The two simulation seeds a benchmark seed stands for (the paper
/// matrix's `[1, 2]` is benchmark seed 0).
fn sim_seeds(seed: u64) -> [u64; 2] {
    let base = seed.wrapping_mul(2);
    [base.wrapping_add(1), base.wrapping_add(2)]
}

/// Build the workload's specs from the seed. This is the first step of
/// set-up and is timed with it (for `paper-sweep` it parses the matrix).
fn plan(kind: Kind, seed: u64, tiny: bool) -> Plan {
    match kind {
        Kind::PaperSweep => {
            let mut m = ExperimentMatrix::from_toml_str(PAPER_MATRIX)
                .expect("the embedded paper matrix parses");
            m.seeds = sim_seeds(seed).to_vec();
            if tiny {
                for c in &mut m.configs {
                    if let ConfigId::Config1Case1 { scale }
                    | ConfigId::Config2Case2 { scale }
                    | ConfigId::Config2Case3 { scale }
                    | ConfigId::Config3Case4 { scale, .. } = c
                    {
                        *scale /= 8.0;
                    }
                }
            }
            Plan {
                specs: m.resolve(),
                parallel_leg: false,
                wall_from_cold: true,
            }
        }
        Kind::ScaleUniform => {
            let (ary, levels, duration_ns) = if tiny {
                (4, 2, 20_000.0)
            } else {
                (16, 3, SCALE_DURATION_NS)
            };
            let config = ConfigId::UniformTree {
                ary,
                levels,
                load: 0.1,
                duration_ns,
            };
            Plan {
                specs: vec![RunSpec::new(
                    config,
                    Mechanism::ccfit(),
                    sim_seeds(seed)[0],
                    duration_ns / 20.0,
                )],
                parallel_leg: true,
                wall_from_cold: false,
            }
        }
        Kind::FlowFct => {
            let (presets, config, horizon_ns) = flow_setup(tiny);
            let mut specs = Vec::new();
            for w in &presets {
                for name in FLOW_MECHANISMS {
                    let mech = Mechanism::parse(name).expect("registry knows the mechanism");
                    specs.push(
                        RunSpec::new(config.clone(), mech, sim_seeds(seed)[0], horizon_ns / 20.0)
                            .with_workload(w.clone()),
                    );
                }
            }
            Plan {
                specs,
                parallel_leg: false,
                wall_from_cold: false,
            }
        }
    }
}

/// Simulated time of `scale-uniform` (4096 nodes).
const SCALE_DURATION_NS: f64 = 0.03e6;

/// The sized-flow presets of `flow-fct`, the network they run on (its
/// own traffic is replaced) and the horizon in ns, within which every
/// flow completes under every mechanism. The tiny variant, for tests,
/// runs the same presets on an 8-node tree.
fn flow_setup(tiny: bool) -> (Vec<Workload>, ConfigId, f64) {
    if tiny {
        let horizon_ns = 0.2e6;
        let tree = ConfigId::UniformTree {
            ary: 2,
            levels: 3,
            load: 0.1,
            duration_ns: horizon_ns,
        };
        let presets = vec![
            traffic::incast(4, 4096),
            traffic::all_to_all(2048),
            traffic::mpi_phase_bursts(2, 2048, 10_000.0),
        ];
        return (presets, tree, horizon_ns);
    }
    let horizon_ms = 2.0;
    let config3 = ConfigId::Config3Case4 {
        hotspots: 1,
        duration_ms: horizon_ms,
        scale: 1.0,
    };
    // The all-to-all runs are by far the longest; listing them first
    // keeps the cold pass's two-job schedule from ending on one of them.
    let presets = vec![
        traffic::all_to_all(4096),
        traffic::incast(48, 32 * 1024),
        traffic::mpi_phase_bursts(4, 16 * 1024, 50_000.0),
    ];
    (presets, config3, horizon_ms * 1e6)
}

/// The experiment `spec` names, as `RunSpec::execute` assembles it.
fn resolve(spec: &RunSpec) -> ExperimentSpec {
    let exp = spec.config.resolve();
    match &spec.workload {
        Some(w) => exp.with_workload(w),
        None => exp,
    }
}

/// The engine configuration `RunSpec::execute` builds, so in-process
/// reports are byte-comparable with the orchestrator's.
fn sim_config(spec: &RunSpec, threads: usize) -> SimConfig {
    SimConfig {
        metrics_bin_ns: spec.metrics_bin_ns,
        parallel: ParallelConfig {
            threads,
            ..ParallelConfig::default()
        },
        ..SimConfig::default()
    }
}

// --- correctness --------------------------------------------------------

/// Correctness verdicts. The unit is one (spec, round): it fails when
/// any of its executions breaks a check —
/// - packet conservation: `injected = delivered + resident` at the end;
/// - a sized flow is incomplete or has slowdown < 1, or the FCT p99
///   disagrees with the nearest-rank p99 of the flows;
/// - the cold report, or the parallel-engine report, or their cycle
///   counts differ from the serial in-process one;
/// - a warm report is not a cache hit or differs from its cold report;
/// - the traced report, or the cache round-trip of it, differs.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Record one unit; returns whether it passed.
    fn record(&mut self, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        self.messages.extend(problems);
        false
    }

    /// A later check failed a unit already recorded as passed.
    fn fail_recorded(&mut self, passed: &mut bool, problem: String) {
        if std::mem::take(passed) {
            self.failed += 1;
        }
        self.messages.push(problem);
    }
}

// --- the in-process pass ------------------------------------------------

/// What one in-process pass observed for one spec.
struct SimOut {
    digest: String,
    /// Resolve, build, tick loop, finish and `to_json`.
    wall_s: f64,
    tick_s: f64,
    /// Midpoint of the simulation on the calibration kernel's clock (0
    /// when the pass is not calibrated).
    at_s: f64,
    cycles: u64,
    delivered: u64,
    throughput_norm: f64,
    fct: Option<(f64, f64)>,
    counters: BTreeMap<String, u64>,
    problems: Vec<String>,
}

/// Layer timings of one in-process pass, summed over its specs.
#[derive(Default)]
struct PassTimes {
    resolve_s: f64,
    build_s: f64,
    tick_s: f64,
    report_s: f64,
    to_json_s: f64,
    report_bytes: u64,
    // Traced pass only.
    routing_s: f64,
    traffic_s: f64,
    flows: u64,
    ticks: u64,
    phase_ns: [u64; 10],
    active: [u64; 4],
    key_s: f64,
    store_s: f64,
    load_s: f64,
    hits: usize,
    effective_threads: usize,
}

impl PassTimes {
    /// The layer calls both the plain and the traced pass make.
    fn common_s(&self) -> f64 {
        self.resolve_s + self.build_s + self.tick_s + self.report_s + self.to_json_s
    }
}

/// Opens and closes spans when tracing, and times calls either way.
struct Timer<'a> {
    tracer: Option<&'a mut Tracer>,
}

impl Timer<'_> {
    fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        run: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        match self.tracer.as_deref_mut() {
            Some(t) => {
                let id = t.open(name, parent, run);
                let out = f();
                (out, t.close(id))
            }
            None => {
                let t0 = Instant::now();
                let out = f();
                (out, t0.elapsed().as_secs_f64())
            }
        }
    }
}

/// The routing table and traffic pattern of `spec`, rebuilt by their
/// public constructors so the traced pass can time them on their own.
fn rebuild_routing_and_traffic(
    spec: &RunSpec,
    num_nodes: usize,
    t: &mut Timer,
    parent: usize,
    run: u32,
) -> (f64, f64) {
    let tree = match spec.config {
        ConfigId::Config3Case4 { .. } => Some(KAryNTree::new(4, 3)),
        ConfigId::UniformTree { ary, levels, .. } => {
            Some(KAryNTree::new(ary as u32, levels as u32))
        }
        _ => None,
    };
    let routing_s = tree.map_or(0.0, |tree| {
        t.time("topology.routing", Some(parent), run, || {
            black_box(tree.det_routing())
        })
        .1
    });
    let (_, traffic_s) = t.time("traffic.build", Some(parent), run, || {
        match (&spec.workload, &spec.config) {
            (Some(w), _) => black_box(w.build(num_nodes)),
            (None, ConfigId::Config1Case1 { .. }) => black_box(traffic::case1(10.0)),
            (None, ConfigId::Config2Case2 { .. }) => black_box(traffic::case2(10.0)),
            (None, ConfigId::Config2Case3 { .. }) => black_box(traffic::case3(10.0)),
            (None, ConfigId::Config3Case4 { hotspots, .. }) => {
                black_box(traffic::case4(num_nodes, *hotspots))
            }
            (None, ConfigId::UniformTree { load, .. } | ConfigId::UniformMesh { load, .. }) => {
                black_box(traffic::uniform_all(num_nodes, *load))
            }
        }
    });
    (routing_s, traffic_s)
}

/// Kernel calls are at least this far apart in a calibrated pass.
const CALIB_EVERY_S: f64 = 0.5;

/// Resolve, build, tick and finish every spec on the serial engine.
/// With a tracer the tick loop runs `tick_profiled`, every layer call
/// gets a span, and each report is stored to and loaded back from
/// `trace_cache`. With a kernel the pass is calibrated: the kernel runs
/// before the first simulation, between simulations once
/// `CALIB_EVERY_S` has passed since its last call, and after the last.
fn in_process(
    specs: &[RunSpec],
    nproc: usize,
    tracer: Option<&mut Tracer>,
    trace_cache: Option<&Cache>,
    run_base: u32,
    mut kern: Option<&mut calib::Kernel>,
) -> (Vec<SimOut>, PassTimes) {
    let traced = tracer.is_some();
    let mut t = Timer { tracer };
    let mut times = PassTimes::default();
    let mut outs = Vec::with_capacity(specs.len());
    let mut last_call: Option<Instant> = None;
    for (i, spec) in specs.iter().enumerate() {
        if let Some(k) = kern.as_deref_mut() {
            if last_call.is_none_or(|c| c.elapsed().as_secs_f64() >= CALIB_EVERY_S) {
                k.call();
                last_call = Some(Instant::now());
            }
        }
        let start_s = kern.as_deref().map_or(0.0, calib::Kernel::now);
        let run = run_base + i as u32;
        let before_s = times.common_s();
        let mut problems = Vec::new();
        let root = t.tracer.as_deref_mut().map(|tr| tr.open("run", None, run));
        let (exp, s) = t.time("resolve", root, run, || resolve(spec));
        times.resolve_s += s;
        if let Some(root) = root {
            let n = exp.topology.num_nodes();
            let (r, tr) = rebuild_routing_and_traffic(spec, n, &mut t, root, run);
            times.routing_s += r;
            times.traffic_s += tr;
            times.flows += (exp.pattern.flows.len() + exp.pattern.sized.len()) as u64;
            let decision = exp.engine_decision(&spec.mechanism, &sim_config(spec, nproc));
            times.effective_threads = times.effective_threads.max(decision.effective_threads);
        }
        let (mut sim, s) = t.time("build_sim", root, run, || {
            exp.build_sim(spec.mechanism.clone(), spec.seed, sim_config(spec, 1))
        });
        times.build_s += s;
        drop(exp);
        let tick_s;
        if traced {
            let mut prof = PhaseProfile::default();
            let (_, s) = t.time("tick_loop", root, run, || {
                while sim.now() < sim.end_cycle() {
                    sim.tick_profiled(&mut prof);
                }
            });
            times.tick_s += s;
            tick_s = s;
            times.ticks += prof.ticks;
            for (acc, ns) in times.phase_ns.iter_mut().zip(prof.nanos) {
                *acc += ns;
            }
            if let Some(tr) = t.tracer.as_deref_mut() {
                let loop_id = tr.spans().len() - 1;
                let totals: Vec<(&str, u64)> =
                    PHASE_NAMES.iter().copied().zip(prof.nanos).collect();
                tr.add_totals(loop_id, &totals);
            }
            let a = sim.active_set_stats();
            for (acc, v) in times
                .active
                .iter_mut()
                .zip([a.ticks, a.sw_sum, a.node_sum, a.link_sum])
            {
                *acc += v;
            }
        } else {
            let (_, s) = t.time("tick_loop", root, run, || sim.run_to_end());
            times.tick_s += s;
            tick_s = s;
        }
        let resident = sim.resident_packets() as u64;
        if sim.injected() != sim.delivered() + resident {
            problems.push(format!(
                "{}: conservation broken: injected {} != delivered {} + resident {resident}",
                spec.label(),
                sim.injected(),
                sim.delivered()
            ));
        }
        let (report, s) = t.time("finish", root, run, || sim.finish());
        times.report_s += s;
        let (json, s) = t.time("to_json", root, run, || report.to_json());
        times.to_json_s += s;
        times.report_bytes += json.len() as u64;
        let digest = sha256_hex(json.as_bytes());
        if let Some(cache) = trace_cache {
            let (key, s) = t.time("cache_key", root, run, || spec.cache_key());
            times.key_s += s;
            let (_, s) = t.time("cache.store", root, run, || {
                cache.store(&key, spec, &report)
            });
            times.store_s += s;
            let (loaded, s) = t.time("cache.load", root, run, || cache.load(&key, spec));
            times.load_s += s;
            times.hits += usize::from(loaded.is_some());
            if loaded.map(|r| r.to_json()) != Some(json) {
                problems.push(format!(
                    "{}: cache store/load changed the report",
                    spec.label()
                ));
            }
        }
        if let (Some(tr), Some(root)) = (t.tracer.as_deref_mut(), root) {
            tr.close(root);
        }
        problems.extend(fct_problems(spec, &report));
        outs.push(SimOut {
            digest,
            wall_s: times.common_s() - before_s,
            tick_s,
            at_s: kern.as_deref().map_or(0.0, |k| (start_s + k.now()) / 2.0),
            cycles: report.simulated_cycles,
            delivered: report.delivered_packets,
            throughput_norm: report.mean_normalized_throughput(0.0, report.duration_ns),
            fct: report.fct.as_ref().map(|f| (f.p99_fct_ns, f.avg_slowdown)),
            counters: report.counters.clone(),
            problems,
        });
    }
    if let Some(k) = kern {
        k.call();
    }
    (outs, times)
}

fn fct_problems(spec: &RunSpec, report: &SimReport) -> Vec<String> {
    let Some(fct) = &report.fct else {
        return if spec.workload.is_some() {
            vec![format!(
                "{}: sized-flow run has no FCT report",
                spec.label()
            )]
        } else {
            Vec::new()
        };
    };
    let mut p = Vec::new();
    if fct.incomplete > 0 {
        p.push(format!(
            "{}: {} of {} flows incomplete",
            spec.label(),
            fct.incomplete,
            fct.flows.len()
        ));
    }
    if let Some(f) = fct
        .flows
        .iter()
        .find(|f| f.slowdown.is_some_and(|s| s < 1.0))
    {
        p.push(format!(
            "{}: flow {} has slowdown {:?} < 1",
            spec.label(),
            f.id.0,
            f.slowdown
        ));
    }
    let fcts: Vec<f64> = fct.flows.iter().filter_map(|f| f.fct_ns).collect();
    if stats::percentile(&fcts, 0.99).unwrap_or(0.0) != fct.p99_fct_ns {
        p.push(format!(
            "{}: p99 FCT disagrees with the per-flow FCTs",
            spec.label()
        ));
    }
    p
}

// --- rounds -------------------------------------------------------------

/// Every measured value, by metric name, in the order measured. A
/// metric is reported as the median of its samples.
#[derive(Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn merge(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }
}

/// Everything a run produced.
pub struct RunResult {
    pub samples: Samples,
    /// Rounds recorded (the warm-up round is not).
    pub rounds: usize,
    pub checks: Checks,
    /// SHA-256 over the per-spec report digests, in spec order.
    pub report_digest: String,
    /// Per spec: its label and median tick-loop seconds.
    pub spec_ticks: Vec<(String, f64)>,
    pub tracer: Option<Tracer>,
    /// The host-time metrics' samples before scaling to nominal speed.
    pub unscaled: Samples,
    /// The host times other than the in-process pass's, unscaled:
    /// metric, instant and seconds.
    pub timed: Vec<(&'static str, f64, f64)>,
    /// Every calibration kernel call: midpoint and time, in seconds.
    pub kernel_calls: Vec<(f64, f64)>,
    /// Per spec, its label and per recorded round the instant, tick-loop
    /// seconds and in-process seconds, unscaled.
    pub timeline: Vec<(String, Vec<[f64; 3]>)>,
}

/// `run_matrix` over `specs` on in-process threads, every simulation on
/// the serial engine.
fn matrix_pass(specs: &[RunSpec], jobs: usize, cache: &Cache) -> (Result<MatrixRun, String>, f64) {
    let opts = RunnerOptions {
        jobs,
        mode: ExecMode::Threads,
        cache: cache.clone(),
        engine: EngineKnobs::default(),
        quiet: true,
    };
    let t0 = Instant::now();
    let run = run_matrix(specs, &opts);
    (run, t0.elapsed().as_secs_f64())
}

/// Extra set-ups measured per round, besides the in-process pass's own.
const EXTRA_SETUPS: usize = 2;

/// Share of the measured time spent on warm passes, on top of it (a
/// run makes at least one).
const WARM_SHARE: f64 = 0.5;

/// One full set-up of the workload: specs (and for `paper-sweep` the
/// matrix parse), cache keys, then every simulator resolved and built.
/// The simulators are dropped unrun, after the clock stops, so the
/// sample holds the same calls as the in-process pass's set-up.
fn setup_once(kind: Kind, seed: u64, tiny: bool) -> f64 {
    let t0 = Instant::now();
    let plan = plan(kind, seed, tiny);
    let sims: Vec<_> = plan
        .specs
        .iter()
        .map(|spec| {
            black_box(spec.cache_key());
            resolve(spec).build_sim(spec.mechanism.clone(), spec.seed, sim_config(spec, 1))
        })
        .collect();
    let s = t0.elapsed().as_secs_f64();
    drop(black_box(sims));
    s
}

/// Run `kind`: an unrecorded warm-up round, then rounds of (set-ups,
/// [cold pass], in-process pass[, parallel leg][, traced pass]) for
/// `seconds` (at least one round), with warm passes between the
/// recorded rounds. The cold pass and the parallel leg run in every
/// round only where they are measured (see [`Plan`]); otherwise in the
/// first round alone. The calibration kernel runs at the start of each
/// round and through its in-process pass; once the run is over, every
/// host time is scaled by the kernel calls near it (see `calib.rs`).
/// Scratch caches live under `scratch` and are removed.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    scratch: &Path,
) -> RunResult {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut v = Samples::default();
    let mut unscaled = Samples::default();
    let mut checks = Checks::default();
    let mut tracer = trace.then(Tracer::new);
    let t0 = Instant::now();
    let plan = plan(kind, seed, tiny);
    let plan_s = t0.elapsed().as_secs_f64();
    let specs = &plan.specs;
    let dir = scratch.join(format!("tmp-{}", std::process::id()));
    let mut rounds = 0;
    let mut report_digest;
    let mut last_cold: Option<ColdRound> = None;
    // Round 0 warms the allocator and the caches and is not recorded
    // (unless the run is a single round: `seconds` = 0).
    let mut measure_start = None;
    let mut measured = 0;
    let mut warm_s = 0.0;
    // Per spec, one (instant, seconds) sample per recorded round of its
    // tick loop and of its whole in-process run.
    let mut spec_ticks = PerSpec::new(specs.len());
    let mut spec_walls = PerSpec::new(specs.len());
    // The calibration kernel, and the other host times of the recorded
    // rounds as (metric, instant, seconds); all are scaled at the end.
    let mut kern = calib::Kernel::new();
    let mut timed: Vec<(&'static str, f64, f64)> = Vec::new();
    let mut totals: (u64, u64);
    loop {
        let first = rounds == 0;
        let mut rv = Samples::default();
        let mut round_timed = Vec::new();
        kern.call();
        let round_dir = dir.join(format!("round-{rounds}"));
        let _ = std::fs::remove_dir_all(&round_dir);
        let cache = Cache::new(round_dir.join("cold"));
        if !trace {
            for _ in 0..EXTRA_SETUPS {
                let at = kern.now();
                let s = setup_once(kind, seed, tiny);
                round_timed.push(("setup_s", at + s / 2.0, s));
            }
        }
        let cold_at = kern.now();
        let cold = (first || plan.wall_from_cold).then(|| matrix_pass(specs, nproc, &cache));
        let t0 = Instant::now();
        let keys: Vec<String> = specs.iter().map(RunSpec::cache_key).collect();
        let keys_s = t0.elapsed().as_secs_f64();
        black_box(keys);
        // The plain and the traced pass alternate in order, so neither
        // always runs on the memory the other just freed.
        let traced_first = rounds % 2 == 1;
        // The warm-up round skips the traced pass (it is not recorded).
        let warming_up = measure_start.is_none() && seconds > 0.0;
        let trace_cache = Cache::new(round_dir.join("traced"));
        let base = (rounds * specs.len()) as u32;
        let mut run_traced = || match tracer.as_mut() {
            Some(tr) if !warming_up => Some(in_process(
                specs,
                nproc,
                Some(tr),
                Some(&trace_cache),
                base,
                None,
            )),
            _ => None,
        };
        let early = if traced_first { run_traced() } else { None };
        let pass_at = kern.now();
        let (outs, times) = in_process(specs, nproc, None, None, 0, Some(&mut kern));
        let pass_at = (pass_at + kern.now()) / 2.0;
        let traced = if traced_first { early } else { run_traced() };

        let par = (plan.parallel_leg && (first || trace)).then(|| parallel_pass(specs, nproc));

        // Correctness, per spec.
        let mut digests = String::new();
        let mut passed = Vec::with_capacity(specs.len());
        for (i, out) in outs.iter().enumerate() {
            let label = specs[i].label();
            let mut problems = out.problems.clone();
            match &cold {
                Some((Ok(c), _)) => {
                    let rep = &c.outputs[i].report;
                    if rep.simulated_cycles != out.cycles
                        || sha256_hex(rep.to_json().as_bytes()) != out.digest
                    {
                        problems.push(format!(
                            "{label}: cold report differs from the in-process one"
                        ));
                    }
                }
                Some((Err(e), _)) => problems.push(format!("{label}: cold pass failed: {e}")),
                None => {}
            }
            if let Some((pouts, _)) = &par {
                if pouts[i] != (out.cycles, out.digest.clone()) {
                    problems.push(format!(
                        "{label}: {nproc}-thread report differs from the serial one"
                    ));
                }
            }
            if let Some((touts, _)) = &traced {
                problems.extend(touts[i].problems.iter().cloned());
                if touts[i].digest != out.digest {
                    problems.push(format!("{label}: traced report differs from the plain one"));
                }
            }
            passed.push(checks.record(problems));
            digests.push_str(&out.digest);
        }
        report_digest = sha256_hex(digests.as_bytes());
        if let Some((Ok(run), wall_s)) = cold {
            if plan.wall_from_cold {
                round_timed.push(("wall_s", cold_at + wall_s / 2.0, wall_s));
            }
            let new = ColdRound {
                cache,
                run,
                wall_s,
                passed,
            };
            if let Some(old) = last_cold.replace(new) {
                let _ = std::fs::remove_dir_all(old.cache.dir());
            }
        }

        let cycles: u64 = outs.iter().map(|o| o.cycles).sum();
        let delivered: u64 = outs.iter().map(|o| o.delivered).sum();
        let setup_s = plan_s + keys_s + times.resolve_s + times.build_s;
        round_timed.push(("setup_s", pass_at, setup_s));
        totals = (cycles, delivered);
        let tput: f64 = outs.iter().map(|o| o.throughput_norm).sum();
        rv.add("sim_throughput_norm", tput / outs.len() as f64);
        match &par {
            Some((_, par_tick_s)) if trace => {
                rv.add("core.parallel.cycles_per_s", cycles as f64 / par_tick_s)
            }
            None if trace => rv.add("core.parallel.cycles_per_s", 0.0),
            _ => {}
        }
        if let Some((touts, tt)) = &traced {
            layer_values(&mut rv, touts, tt, &times, cycles);
            let c = last_cold.as_ref();
            let busy: f64 = c.map_or(0.0, |c| c.run.outputs.iter().map(|o| o.wall_s).sum());
            let jobs = nproc.min(specs.len()) as f64;
            let cold_s = c.map_or(f64::INFINITY, |c| c.wall_s);
            rv.add(
                "orchestrator.runner.worker_idle_share",
                (1.0 - busy / (jobs * cold_s)).max(0.0),
            );
            rv.add(
                "orchestrator.runner.retries",
                c.map_or(0, |c| c.run.stats.retried) as f64,
            );
            rv.add(
                "orchestrator.cache.hit_share",
                tt.hits as f64 / specs.len() as f64,
            );
        }
        rounds += 1;
        match measure_start {
            None if seconds > 0.0 => measure_start = Some(Instant::now()),
            _ => {
                v.merge(rv);
                timed.extend(round_timed);
                for (i, out) in outs.iter().enumerate() {
                    spec_ticks.push(i, out.at_s, out.tick_s);
                    spec_walls.push(i, out.at_s, out.wall_s);
                }
                measured += 1;
                let measured_s = measure_start.map_or(0.0, |t| t.elapsed().as_secs_f64() - warm_s);
                // Warm passes are spread over the run: after each round,
                // as many as keep them within WARM_SHARE of the measured
                // time (one at least). Their time does not count.
                if let (false, Some(cold)) = (trace, &mut last_cold) {
                    while warm_s == 0.0 || warm_s < WARM_SHARE * measured_s {
                        let at = kern.now();
                        let s = warm_pass(specs, nproc, cold, &mut checks);
                        timed.push(("warm_wall_s", at + s / 2.0, s));
                        warm_s += s;
                    }
                }
                if measured_s >= seconds {
                    break;
                }
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    for &(name, at, x) in &timed {
        v.add(name, x * kern.factor_at(at, x));
        unscaled.add(name, x);
    }
    for (calib, samples) in [(Some(&kern), &mut v), (None, &mut unscaled)] {
        if !plan.wall_from_cold {
            samples.add("wall_s", spec_walls.median_sum(calib));
        }
        let tick_s = spec_ticks.median_sum(calib);
        samples.add("sim_cycles_per_s", totals.0 as f64 / tick_s);
        samples.add("host_ns_per_packet", tick_s * 1e9 / totals.1.max(1) as f64);
    }
    v.add(
        "ok_ops_share",
        1.0 - checks.failed as f64 / checks.attempted as f64,
    );
    v.0.insert(
        "host.calib_s".into(),
        kern.calls().iter().map(|c| c.1).collect(),
    );
    let labels: Vec<String> = specs.iter().map(RunSpec::label).collect();
    RunResult {
        samples: v,
        rounds: measured,
        checks,
        report_digest,
        spec_ticks: labels
            .iter()
            .cloned()
            .zip(spec_ticks.medians(None))
            .collect(),
        tracer,
        unscaled,
        timed,
        kernel_calls: kern.calls().to_vec(),
        timeline: labels
            .into_iter()
            .zip(spec_ticks.0.iter().zip(&spec_walls.0))
            .map(|(label, (ticks, walls))| {
                let rows = ticks
                    .iter()
                    .zip(walls)
                    .map(|(t, w)| [t.0, t.1, w.1])
                    .collect();
                (label, rows)
            })
            .collect(),
    }
}

/// Per spec, its (instant, seconds) samples over the recorded rounds.
struct PerSpec(Vec<Vec<(f64, f64)>>);

impl PerSpec {
    fn new(specs: usize) -> Self {
        PerSpec(vec![Vec::new(); specs])
    }

    fn push(&mut self, spec: usize, at: f64, value: f64) {
        self.0[spec].push((at, value));
    }

    /// Each spec's median, scaled to nominal host speed when given the
    /// calibration kernel.
    fn medians(&self, calib: Option<&calib::Kernel>) -> Vec<f64> {
        self.0
            .iter()
            .map(|s| {
                let xs: Vec<f64> = s
                    .iter()
                    .map(|&(at, x)| calib.map_or(x, |k| x * k.factor_at(at, x)))
                    .collect();
                stats::median(&xs).expect("one round or more")
            })
            .collect()
    }

    /// Each spec's median over the rounds, summed: a contention burst on
    /// the shared host then spoils one simulation's sample in one round,
    /// not the whole round.
    fn median_sum(&self, calib: Option<&calib::Kernel>) -> f64 {
        self.medians(calib).iter().sum()
    }
}

/// Per-layer values of one traced round.
fn layer_values(v: &mut Samples, outs: &[SimOut], t: &PassTimes, plain: &PassTimes, cycles: u64) {
    for (name, ns) in PHASE_NAMES.iter().zip(t.phase_ns) {
        v.add(phase_metric(name), ns as f64 * 1e-9);
    }
    let ticks = t.ticks.max(1) as f64;
    v.add("core.tick_s", t.tick_s);
    v.add("core.ticks", t.ticks as f64);
    v.add("core.ns_per_tick", t.tick_s * 1e9 / ticks);
    v.add(
        "core.skip_share",
        1.0 - t.ticks as f64 / cycles.max(1) as f64,
    );
    let [act_ticks, sw, nodes, links] = t.active.map(|x| x as f64);
    let act_ticks = act_ticks.max(1.0);
    v.add("core.active.switches_avg", sw / act_ticks);
    v.add("core.active.adapters_avg", nodes / act_ticks);
    v.add("core.active.links_avg", links / act_ticks);
    v.add("core.build_s", t.build_s);
    v.add(
        "core.parallel.effective_threads",
        t.effective_threads as f64,
    );
    v.add("topology.resolve_s", t.resolve_s);
    v.add("topology.routing_s", t.routing_s);
    v.add("traffic.build_s", t.traffic_s);
    v.add("traffic.flows", t.flows as f64);
    v.add("metrics.report_s", t.report_s);
    v.add("metrics.to_json_s", t.to_json_s);
    v.add("metrics.report_bytes", t.report_bytes as f64);
    let fcts: Vec<(f64, f64)> = outs.iter().filter_map(|o| o.fct).collect();
    let p99 = fcts.iter().map(|f| f.0).fold(0.0, f64::max);
    let slowdown = if fcts.is_empty() {
        0.0
    } else {
        fcts.iter().map(|f| f.1).sum::<f64>() / fcts.len() as f64
    };
    v.add("metrics.fct_p99_us", p99 * 1e-3);
    v.add("metrics.fct_slowdown_avg", slowdown);
    let mut counts = BTreeMap::new();
    for o in outs {
        for c in CC_COUNTERS {
            *counts.entry(c).or_insert(0u64) += o.counters.get(c).copied().unwrap_or(0);
        }
    }
    for (c, n) in &counts {
        v.add(format!("cc.{c}"), *n as f64);
    }
    let iso_ns = t.phase_ns[PHASE_NAMES
        .iter()
        .position(|p| *p == "iso+congestion")
        .expect("iso phase")];
    let isolated = counts["packets_isolated"];
    let per_packet = if isolated == 0 {
        0.0
    } else {
        iso_ns as f64 / isolated as f64
    };
    v.add("cc.iso_ns_per_isolated_packet", per_packet);
    v.add("orchestrator.cache_key_s", t.key_s);
    v.add("orchestrator.cache.store_s", t.store_s);
    v.add("orchestrator.cache.load_s", t.load_s);
    v.add(
        "trace.overhead_share",
        t.common_s() / plain.common_s() - 1.0,
    );
    v.add(
        "trace.phase_coverage",
        t.phase_ns.iter().sum::<u64>() as f64 * 1e-9 / t.tick_s,
    );
}

/// A cold pass: its cache, its outcome and wall time, and which of its
/// units passed.
struct ColdRound {
    cache: Cache,
    run: MatrixRun,
    wall_s: f64,
    passed: Vec<bool>,
}

/// A warm pass: `run_matrix` over the cache of a cold pass, so every
/// report is served from disk. Returns its wall time. A warm report
/// that is not a hit or differs from its cold report fails the unit
/// that produced it.
fn warm_pass(specs: &[RunSpec], nproc: usize, cold: &mut ColdRound, checks: &mut Checks) -> f64 {
    let (warm, warm_s) = matrix_pass(specs, nproc, &cold.cache);
    for (i, c) in cold.run.outputs.iter().enumerate() {
        let problem = match &warm {
            Ok(w) if w.outputs[i].cached && w.outputs[i].report == c.report => continue,
            Ok(_) => format!(
                "{}: warm report is not the cached cold report",
                c.spec.label()
            ),
            Err(e) => format!("{}: warm pass failed: {e}", c.spec.label()),
        };
        checks.fail_recorded(&mut cold.passed[i], problem);
    }
    warm_s
}

/// Every spec on the parallel engine with `threads` threads: per spec
/// the simulated cycles and report digest, plus the summed tick-loop
/// seconds.
fn parallel_pass(specs: &[RunSpec], threads: usize) -> (Vec<(u64, String)>, f64) {
    let mut tick_s = 0.0;
    let outs = specs
        .iter()
        .map(|spec| {
            let exp = resolve(spec);
            let mut sim =
                exp.build_sim(spec.mechanism.clone(), spec.seed, sim_config(spec, threads));
            drop(exp);
            let t0 = Instant::now();
            sim.run_to_end();
            tick_s += t0.elapsed().as_secs_f64();
            let report = sim.finish();
            (
                report.simulated_cycles,
                sha256_hex(report.to_json().as_bytes()),
            )
        })
        .collect();
    (outs, tick_s)
}

/// `VmHWM` (peak resident set) of this process in MiB, if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
