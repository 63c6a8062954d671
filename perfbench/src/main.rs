//! End-to-end and per-layer host benchmark of the CIM simulator stack.
//!
//! ```bash
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2 --seed 42 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload (`table2`, `serve-point`, `serve-burst`
//! or `electrical`). With `--trace 0` it sets the workload up, alternates
//! 1-thread and all-cores passes for `--seconds` seconds, and reports the
//! median-pass rates. Every end-to-end time is host time: wall time less
//! the time the hypervisor held the machine's virtual CPUs back meanwhile
//! (steal time, see [`HostClock`]). At even intervals of the run it
//! starts itself again with `--cold-start 1`: such a child sets the
//! workload up, runs one cold pass, prints its time from process start
//! and its peak resident set, and exits. `setup_s` and `peak_rss_mib` are the medians over this
//! process and its children, each a true cold start. With
//! `--trace 1` it compares traced and untraced passes, times every
//! layer's public calls from outside the program, writes the spans to
//! `perfbench/traces/` as Chrome trace-event JSON, and reports the
//! per-layer metrics. Every run checks the workload's outputs against
//! computations made apart from the program, outside the timed region,
//! and checks that every pass at every thread count produced
//! bit-identical modelled outputs. The last line of standard output is
//! one JSON object with the result.

mod electrical;
mod serve;
mod table2;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cim_sim::BatchPolicy;

use trace::Tracer;

/// Cold starts per untraced run, the run's own included; `setup_s` and
/// `peak_rss_mib` are their medians.
const COLD_STARTS: usize = 21;

/// Fewest passes per thread setting, however short the run.
const MIN_PASSES: usize = 5;

/// Host threading of one pass: every thread knob at its all-cores
/// default, or every knob at one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// `BatchPolicy::auto()`, solver threads 0.
    All,
    /// `BatchPolicy::SERIAL`, solver threads 1.
    One,
}

impl Threads {
    /// The batch policy of this setting.
    pub fn batch(self) -> BatchPolicy {
        match self {
            Threads::All => BatchPolicy::auto(),
            Threads::One => BatchPolicy::SERIAL,
        }
    }

    /// The raw thread knob (`0` = all cores).
    pub fn knob(self) -> usize {
        match self {
            Threads::All => 0,
            Threads::One => 1,
        }
    }
}

/// What the checks of one pass found.
#[derive(Debug, Default)]
pub struct Audit {
    /// Work units one pass completes.
    pub work: u64,
    /// Operations one pass attempts.
    pub attempted: u64,
    /// Operations of one pass that failed (rejected, unverified, wrong,
    /// unconverged).
    pub failed: u64,
    /// Violated properties of the outputs; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Passes the audit ran itself.
    pub passes: u64,
}

impl Audit {
    /// Records a property check.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }
}

/// One benchmark workload: inputs made from the seed, one pass of the
/// program on them, and checks of the pass's outputs.
pub trait Bench {
    /// What one pass produces.
    type Output;
    /// One pass through the program's public entry points. Only the
    /// generated inputs cross into the program.
    fn pass(&mut self, threads: Threads, tracer: &mut Tracer) -> Self::Output;
    /// The pass's modelled outputs, rendered bit-exactly. Passes at any
    /// thread count must agree on it.
    fn digest(&self, out: &Self::Output) -> String;
    /// Checks `out` against computations made apart from the program.
    fn audit(&mut self, out: &Self::Output) -> Audit;
}

/// A per-layer metric with its unit and where its inputs came from.
pub struct Layer {
    value: f64,
    unit: &'static str,
    own: bool,
}

/// Per-layer metrics, by name.
#[derive(Default)]
pub struct Layers {
    metrics: BTreeMap<&'static str, Layer>,
    /// Whether the metrics being recorded come from the run's own
    /// workload family (`false`: from a companion family at the same
    /// seed).
    pub own: bool,
}

impl Layers {
    /// Records `name`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(
            name,
            Layer {
                value,
                unit,
                own: self.own,
            },
        );
    }

    /// The value recorded under `name` (NaN if none was).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(f64::NAN, |l| l.value)
    }
}

/// Median of `values` (which must be non-empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles of `values` (which must be non-empty):
/// the medians of the lower and upper halves.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted.len() / 2;
    (
        median(&sorted[..half.max(1)]),
        median(&sorted[sorted.len() - half.max(1)..]),
    )
}

/// Median duration of `calls` runs of `call`, in seconds, each run
/// wrapped in a span.
pub fn timed_median<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    calls: usize,
    mut call: impl FnMut() -> R,
) -> f64 {
    for _ in 0..calls {
        std::hint::black_box(tracer.span(layer, name, |_| call()));
    }
    median(&tracer.durations(name))
}

/// FNV-1a over `bytes`: a compact fingerprint for digests.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on every Linux
/// architecture's user ABI).
const USER_HZ: f64 = 100.0;

/// Time the hypervisor has held back this machine's virtual CPUs since
/// boot, summed over CPUs, in seconds: the `steal` column of the `cpu`
/// line of `/proc/stat`. 0 where the kernel reports none.
fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// A stopwatch of host time: wall time less the time stolen from the
/// machine's virtual CPUs meanwhile. On a shared virtual machine another
/// tenant can hold a virtual CPU back for a large share of a run (steal
/// reached 70% of some runs' wall time on the 2-core reference host);
/// wall time alone then measures the neighbours, not the program.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    wall: Instant,
    stolen: f64,
}

/// What a [`HostClock`] read: wall seconds and stolen seconds.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    pub wall: f64,
    pub stolen: f64,
}

impl HostClock {
    pub fn start() -> Self {
        Self {
            stolen: stolen_s(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        let wall = self.wall.elapsed().as_secs_f64();
        Elapsed {
            wall,
            stolen: stolen_s() - self.stolen,
        }
    }
}

impl Elapsed {
    /// Host seconds: wall seconds less stolen seconds (steal is counted
    /// in 10 ms ticks, so one short interval can read below its work;
    /// medians over many intervals even that out).
    pub fn host(&self) -> f64 {
        (self.wall - self.stolen).max(0.0)
    }
}

/// The command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up, run one cold pass, report it and exit.
    cold_start: bool,
}

/// Parses a `0|1` flag value.
fn switch(flag: &str, value: u64) -> Result<bool, String> {
    match value {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("{flag} expects 0 or 1")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 0,
        trace: false,
        cold_start: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = switch(&flag, number()?)?,
            "--cold-start" => args.cold_start = switch(&flag, number()?)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 && !args.cold_start {
        return Err("--seconds is required and at least 1".into());
    }
    Ok(args)
}

/// The result line's pieces.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Checks every pass's digest against the first, collecting mismatches.
struct Digests {
    reference: String,
    mismatches: Vec<String>,
    passes: u64,
}

impl Digests {
    fn new(reference: String) -> Self {
        Self {
            reference,
            mismatches: Vec::new(),
            passes: 1,
        }
    }

    fn observe(&mut self, digest: &str, threads: Threads) {
        self.passes += 1;
        if digest != self.reference && self.mismatches.len() < 3 {
            self.mismatches.push(format!(
                "a {threads:?}-thread pass changed the modelled outputs:\n  {digest}\n  vs\n  {}",
                self.reference
            ));
        }
    }
}

/// The fastest of `times`: printed next to the median for reference.
pub fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Prints the checks' verdict and folds it into the result counts.
fn finish(audit: &Audit, digests: &Digests, passes: u64) -> (bool, u64, u64) {
    println!(
        "modelled outputs (every pass, both thread settings): {}",
        digests.reference
    );
    for problem in audit.problems.iter().chain(&digests.mismatches) {
        println!("CHECK FAILED: {problem}");
    }
    let correct = audit.problems.is_empty() && digests.mismatches.is_empty();
    println!(
        "checks: {} ({} operations attempted per pass, {} failed; {} passes)",
        if correct { "all passed" } else { "FAILED" },
        audit.attempted,
        audit.failed,
        passes
    );
    (correct, audit.attempted * passes, audit.failed * passes)
}

/// What a cold start measured: host time from process start to the end
/// of the first pass, the peak resident set by then, and that pass's
/// digest.
struct ColdStart {
    setup_s: f64,
    rss_mib: f64,
    digest: String,
}

/// Marks the line a `--cold-start 1` child reports on.
const COLD_START_TAG: &str = "cold-start";

impl ColdStart {
    /// Sets `bench` up and runs one cold all-cores pass; `process_start`
    /// is taken first thing in `main`.
    fn measure<B: Bench>(
        process_start: HostClock,
        setup: impl FnOnce() -> B,
    ) -> (Self, B, B::Output) {
        let mut bench = setup();
        let out = bench.pass(Threads::All, &mut Tracer::new(false));
        let cold = Self {
            setup_s: process_start.elapsed().host(),
            rss_mib: peak_rss_mib().unwrap_or(f64::NAN),
            digest: bench.digest(&out),
        };
        (cold, bench, out)
    }

    fn line(&self) -> String {
        format!(
            "{COLD_START_TAG} {} {} {}",
            self.setup_s, self.rss_mib, self.digest
        )
    }

    fn parse(line: &str) -> Option<Self> {
        let mut fields = line
            .strip_prefix(COLD_START_TAG)?
            .trim_start()
            .splitn(3, ' ');
        Some(Self {
            setup_s: fields.next()?.parse().ok()?,
            rss_mib: fields.next()?.parse().ok()?,
            digest: fields.next()?.to_owned(),
        })
    }

    /// Runs this program again as a `--cold-start 1` child on the same
    /// workload and seed, waits for it, and reads its report.
    fn spawn(workload: &str, seed: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cold start: {e}"))?;
        let out = Command::new(exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--cold-start", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cold start: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.lines().last().and_then(Self::parse) {
            Some(cold) if out.status.success() => Ok(cold),
            _ => Err(format!(
                "cold start exited with {} and printed no report",
                out.status
            )),
        }
    }
}

/// The durations of one thread setting's passes.
#[derive(Default)]
struct Passes {
    /// Host seconds of each pass.
    host: Vec<f64>,
    /// Wall seconds of each pass.
    wall: Vec<f64>,
    /// Seconds stolen during all passes.
    stolen: f64,
}

impl Passes {
    fn push(&mut self, elapsed: Elapsed) {
        self.host.push(elapsed.host());
        self.wall.push(elapsed.wall);
        self.stolen += elapsed.stolen;
    }

    /// Prints the median, quartiles and fastest pass in host time, and
    /// the median in wall time with the share of it stolen.
    fn report(&self, label: &str, work: u64) {
        let work_f = work as f64;
        let mid = median(&self.host);
        let (low, high) = quartiles(&self.host);
        let wall = median(&self.wall);
        println!(
            "{label:>9}: {} passes of {work} work; median {mid:.5} s ({:.1} work/s), quartiles \
             {low:.5} .. {high:.5} s, fastest {:.5} s; wall median {wall:.5} s ({:.1} work/s), \
             {:.1}% of wall time stolen",
            self.host.len(),
            work_f / mid,
            best(&self.host),
            work_f / wall,
            100.0 * self.stolen / self.wall.iter().sum::<f64>(),
        );
    }
}

/// Pass durations and cold starts of the untraced run.
#[derive(Default)]
struct Timings {
    all: Passes,
    one: Passes,
    cold: Vec<ColdStart>,
}

/// Alternates 1-thread and all-cores passes of `bench` for `seconds`
/// seconds, so both settings see the same host conditions, and runs
/// `COLD_STARTS - 1` cold-start children at even intervals of the window,
/// so the cold starts sample the whole run too.
fn timed_passes<B: Bench>(
    bench: &mut B,
    respawn: &impl Fn() -> Result<ColdStart, String>,
    seconds: u64,
    digests: &mut Digests,
    timings: &mut Timings,
) {
    let mut off = Tracer::new(false);
    let budget = Duration::from_secs(seconds);
    let begin = Instant::now();
    while begin.elapsed() < budget || timings.all.host.len() < MIN_PASSES {
        for threads in [Threads::One, Threads::All] {
            let clock = HostClock::start();
            let out = bench.pass(threads, &mut off);
            let elapsed = clock.elapsed();
            digests.observe(&bench.digest(&out), threads);
            match threads {
                Threads::All => timings.all.push(elapsed),
                Threads::One => timings.one.push(elapsed),
            }
        }
        let due = budget * timings.cold.len() as u32 / COLD_STARTS as u32;
        if timings.cold.len() < COLD_STARTS && begin.elapsed() >= due {
            cold_start_child(respawn, digests, timings);
        }
    }
    // Passes longer than the interval leave some due at the end.
    while timings.cold.len() < COLD_STARTS && digests.mismatches.is_empty() {
        cold_start_child(respawn, digests, timings);
    }
}

/// Runs one cold-start child and records it; a failed child is a failed
/// check.
fn cold_start_child(
    respawn: &impl Fn() -> Result<ColdStart, String>,
    digests: &mut Digests,
    timings: &mut Timings,
) {
    match respawn() {
        Ok(cold) => {
            digests.observe(&cold.digest, Threads::All);
            timings.cold.push(cold);
        }
        Err(e) => digests.mismatches.push(e),
    }
}

/// The untraced run: end-to-end metrics.
fn untraced<B: Bench>(
    process_start: HostClock,
    seconds: u64,
    setup: impl FnOnce() -> B,
    respawn: impl Fn() -> Result<ColdStart, String>,
) -> Outcome {
    let (first, mut bench, reference) = ColdStart::measure(process_start, setup);
    let mut digests = Digests::new(first.digest.clone());
    let mut timings = Timings {
        cold: vec![first],
        ..Timings::default()
    };
    timed_passes(&mut bench, &respawn, seconds, &mut digests, &mut timings);
    let audit = bench.audit(&reference);
    let passes = digests.passes + audit.passes;
    let (correct, attempted, failed) = finish(&audit, &digests, passes);

    let work = audit.work as f64;
    let Timings { all, one, cold } = &timings;
    let setups: Vec<f64> = cold.iter().map(|c| c.setup_s).collect();
    let rss: Vec<f64> = cold.iter().map(|c| c.rss_mib).collect();
    let listed = |v: &[f64]| v.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>();
    println!(
        "cold starts: {} processes; set-up median {:.4} s {:?}; peak resident set median {:.1} \
         MiB {:?}",
        cold.len(),
        median(&setups),
        listed(&setups),
        median(&rss),
        listed(&rss)
    );
    all.report("all cores", audit.work);
    one.report("1 thread", audit.work);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("work_per_s", work / median(&all.host), "1/s"),
            ("serial_work_per_s", work / median(&one.host), "1/s"),
            ("peak_rss_mib", median(&rss), "MiB"),
        ],
    }
}

/// Traced and untraced all-cores passes, alternating, for `seconds`
/// seconds; returns (untraced, traced) pass durations in host seconds.
fn overhead_passes<B: Bench>(
    bench: &mut B,
    tracer: &mut Tracer,
    seconds: u64,
    digests: &mut Digests,
) -> (Vec<f64>, Vec<f64>) {
    let mut off = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(seconds);
    let begin = Instant::now();
    while begin.elapsed() < budget || plain.len() < MIN_PASSES {
        let clock = HostClock::start();
        let out = bench.pass(Threads::All, &mut off);
        plain.push(clock.elapsed().host());
        digests.observe(&bench.digest(&out), Threads::All);
        let clock = HostClock::start();
        let out = tracer.span("bench", "pass", |t| bench.pass(Threads::All, t));
        traced.push(clock.elapsed().host());
        digests.observe(&bench.digest(&out), Threads::All);
    }
    (plain, traced)
}

/// Companion passes: a few traced passes of a family the run's own
/// workload does not exercise, so its layers have spans to read.
const COMPANION_PASSES: usize = 3;

/// The traced run: per-layer metrics, the trace file and the overhead.
fn traced(kind: &str, seed: u64, seconds: u64) -> Outcome {
    let mut tracer = Tracer::new(true);
    let mut layers = Layers::default();
    let mut t2 = None;
    let mut sv = None;
    let mut el = None;
    let (verdict, overhead) = match kind {
        "table2" => own(
            &mut t2,
            table2::Table2Bench::new(seed),
            &mut tracer,
            seconds,
        ),
        "serve-point" => own(
            &mut sv,
            serve::ServeBench::point(seed),
            &mut tracer,
            seconds,
        ),
        "serve-burst" => own(
            &mut sv,
            serve::ServeBench::burst(seed),
            &mut tracer,
            seconds,
        ),
        _ => own(
            &mut el,
            electrical::ElectricalBench::new(seed),
            &mut tracer,
            seconds,
        ),
    };
    let mut t2 = t2.unwrap_or_else(|| companion(table2::Table2Bench::new(seed), &mut tracer));
    let mut sv = sv.unwrap_or_else(|| companion(serve::ServeBench::point(seed), &mut tracer));
    let mut el =
        el.unwrap_or_else(|| companion(electrical::ElectricalBench::new(seed), &mut tracer));
    layers.own = kind == "table2";
    t2.probe(&mut tracer, &mut layers);
    layers.own = kind.starts_with("serve");
    sv.probe(&mut tracer, &mut layers);
    layers.own = kind == "electrical";
    el.probe(&mut tracer, &mut layers);

    let (plain_rate, traced_rate) = overhead;
    println!(
        "tracing overhead: traced {traced_rate:.1} work/s vs untraced {plain_rate:.1} work/s \
         at the median pass (tracing costs {:+.2}%), {} spans",
        (plain_rate / traced_rate - 1.0) * 100.0,
        tracer.span_count()
    );
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{kind}-seed{seed}.json"));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(kind)))
    {
        Ok(()) => println!("trace written: {}", path.display()),
        Err(e) => println!("trace not written ({}): {e}", path.display()),
    }
    println!(
        "\n{:<34} {:>16} {:<6} inputs",
        "per-layer metric", "value", "unit"
    );
    for (name, layer) in &layers.metrics {
        println!(
            "{name:<34} {:>16.6} {:<6} {}",
            layer.value,
            layer.unit,
            if layer.own { "own" } else { "companion" }
        );
    }
    let (correct, attempted, failed) = verdict;
    Outcome {
        correct,
        attempted,
        failed,
        metrics: layers
            .metrics
            .iter()
            .map(|(&name, l)| (name, l.value, l.unit))
            .collect(),
    }
}

/// Sets up the run's own workload, measures the tracing overhead on it
/// and checks it; the bench is left in `slot` for the probes.
fn own<B: Bench>(
    slot: &mut Option<B>,
    mut bench: B,
    tracer: &mut Tracer,
    seconds: u64,
) -> ((bool, u64, u64), (f64, f64)) {
    let reference = bench.pass(Threads::All, &mut Tracer::new(false));
    let mut digests = Digests::new(bench.digest(&reference));
    let (plain, traced) = overhead_passes(&mut bench, tracer, seconds, &mut digests);
    let audit = bench.audit(&reference);
    let passes = digests.passes + audit.passes;
    let verdict = finish(&audit, &digests, passes);
    let work = audit.work as f64;
    *slot = Some(bench);
    (verdict, (work / median(&plain), work / median(&traced)))
}

fn companion<B: Bench>(mut bench: B, tracer: &mut Tracer) -> B {
    for _ in 0..COMPANION_PASSES {
        std::hint::black_box(tracer.span("bench", "companion", |t| bench.pass(Threads::All, t)));
    }
    bench
}

/// A `--cold-start 1` child: one cold start, reported on the last line.
fn cold_start(workload: &str, seed: u64, process_start: HostClock) -> ExitCode {
    let cold = match workload {
        "table2" => ColdStart::measure(process_start, || table2::Table2Bench::new(seed)).0,
        "serve-point" => ColdStart::measure(process_start, || serve::ServeBench::point(seed)).0,
        "serve-burst" => ColdStart::measure(process_start, || serve::ServeBench::burst(seed)).0,
        "electrical" => {
            ColdStart::measure(process_start, || electrical::ElectricalBench::new(seed)).0
        }
        other => {
            eprintln!("error: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    println!("{}", cold.line());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let process_start = HostClock::start();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <table2|serve-point|serve-burst|electrical> \
                 [--seed N] --seconds N [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    if args.cold_start {
        return cold_start(&args.workload, seed, process_start);
    }
    println!(
        "== perfbench {} seed {seed}, {} s, trace {} ({} cores) ==",
        args.workload,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let respawn = || ColdStart::spawn(&args.workload, seed);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("table2" | "serve-point" | "serve-burst" | "electrical", true) => {
            traced(&args.workload, seed, args.seconds)
        }
        ("table2", false) => untraced(
            process_start,
            args.seconds,
            || table2::Table2Bench::new(seed),
            respawn,
        ),
        ("serve-point", false) => untraced(
            process_start,
            args.seconds,
            || serve::ServeBench::point(seed),
            respawn,
        ),
        ("serve-burst", false) => untraced(
            process_start,
            args.seconds,
            || serve::ServeBench::burst(seed),
            respawn,
        ),
        ("electrical", false) => untraced(
            process_start,
            args.seconds,
            || electrical::ElectricalBench::new(seed),
            respawn,
        ),
        (other, _) => {
            eprintln!("error: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    if let Some((name, ..)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("error: metric {name} was not measured");
        return ExitCode::from(1);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
