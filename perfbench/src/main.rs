//! The PCS reproduction's benchmark: one workload per invocation, run on
//! one thread with the serial engine and its cells back to back.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-fig6 --seed 7 --seconds 30 --trace 0
//! ```
//!
//! A workload's cells run on the traces of a fixed panel of seeds and on
//! the `--seed` trace (the scenario's own seed by default). Each round
//! trains the PCS models once and then builds and runs every cell; rounds
//! repeat until `--seconds` is spent. A fixed kernel, the yardstick, is
//! timed before the first cell and after each one; the end-to-end times
//! are taken in its units, which divides out drift in the host's speed.
//! Host metrics cover every cell, simulated metrics the panel's. With
//! `--trace 0` the run prints the end-to-end metrics, measured on bare
//! hooks and policies. With `--trace 1` it alternates bare rounds with
//! traced ones, whose hooks and policies sit in timing delegates, and
//! prints the per-layer metrics; the spans of the last traced round go to
//! a Chrome trace-event file. Every cell's report is checked and
//! digested, and the digests must agree across rounds and between bare
//! and traced rounds. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod checks;
mod layers;
mod probe;
#[cfg(test)]
mod tests;
mod workloads;
mod yardstick;

use pcs::controller::PcsController;
use pcs::techniques::TechniqueEnv;
use pcs_core::ClassModelSet;
use pcs_harness::Json;
use pcs_sim::{RunReport, Simulation};
use pcs_types::NodeCapacity;
use probe::{HookCall, PolicyTotals, TimedHook, TimedPolicy, Trace};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Cell, Workload};
use yardstick::Yardstick;

/// Rounds every run makes, however long one takes; the medians are over
/// at least this many.
const MIN_ROUNDS: usize = 2;

/// One cell's run.
pub struct CellRun {
    /// The report; `None` for a cell that panicked.
    pub report: Option<RunReport>,
    /// Checks the report failed (a panic counts as one).
    pub failures: Vec<String>,
    /// Host time of the hook and policy construction plus
    /// `Simulation::new`.
    pub setup: Duration,
    /// Host time of `Simulation::run`.
    pub run: Duration,
    /// Whether the hook reads its context (false for the no-op hook).
    pub hook_wants_context: bool,
    /// The hook's intervals (traced rounds only).
    pub hook_calls: Vec<HookCall>,
    /// The policy's calls (traced rounds only).
    pub policy: PolicyTotals,
}

impl CellRun {
    /// The report's trajectory digest; 0 for a cell that panicked.
    pub fn digest(&self) -> u64 {
        self.report.as_ref().map_or(0, checks::digest)
    }
}

/// One round: a profiling campaign, then every cell.
pub struct Round {
    /// Host time of `PcsController::train_for`.
    pub train: Duration,
    /// The cells' runs, in workload order.
    pub cells: Vec<CellRun>,
    /// The yardstick's cost in seconds, timed before training and after
    /// each cell: cell `i` ran between entries `i` and `i + 1`.
    pub yardstick: Vec<f64>,
    /// The spans (traced rounds only).
    pub trace: Option<Trace>,
}

impl Round {
    /// Host seconds spent in `Simulation::run`.
    pub fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.run.as_secs_f64()).sum()
    }

    /// Host seconds of training plus every cell's set-up.
    pub fn setup_s(&self) -> f64 {
        let cells: f64 = self.cells.iter().map(|c| c.setup.as_secs_f64()).sum();
        self.train.as_secs_f64() + cells
    }

    /// Cell `i`'s `Simulation::run` time in yardstick units: over the mean
    /// of the yardstick's costs just before and just after it.
    pub fn run_units(&self, i: usize) -> f64 {
        let around = (self.yardstick[i] + self.yardstick[i + 1]) / 2.0;
        self.cells[i].run.as_secs_f64() / around
    }

    /// [`Round::setup_s`] in yardstick units: over the median of the
    /// round's yardstick costs.
    pub fn setup_units(&self) -> f64 {
        self.setup_s() / median(&self.yardstick)
    }

    /// Simulated events across the cells.
    pub fn events(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.report.as_ref())
            .map(|r| r.events_processed)
            .sum()
    }
}

fn train(workload: &Workload) -> ClassModelSet {
    PcsController::train_for(
        &workload.train_topology,
        NodeCapacity::XEON_E5645,
        workload.train_seed,
    )
    .expect("the profiling campaign trains")
}

/// Builds and runs one cell, with timing delegates when `traced`.
pub fn run_cell(cell: &Cell, models: &ClassModelSet, epsilon_secs: f64, traced: bool) -> CellRun {
    let env = TechniqueEnv {
        models,
        epsilon_secs,
    };
    let setup_start = Instant::now();
    let mut policy = cell.technique.make_policy();
    let mut hook = cell.technique.make_hook(&env);
    let hook_wants_context = hook.wants_context();
    let mut probes = None;
    if traced {
        let (timed_policy, totals) = TimedPolicy::wrap(policy);
        let (timed_hook, calls) = TimedHook::wrap(hook);
        policy = Box::new(timed_policy);
        hook = Box::new(timed_hook);
        probes = Some((totals, calls));
    }
    let config = cell.config.clone();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let sim = Simulation::new(config, policy, hook);
        let setup = setup_start.elapsed();
        let run_start = Instant::now();
        let report = sim.run();
        (report, setup, run_start.elapsed())
    }));
    let (policy, hook_calls) = match probes {
        Some((totals, calls)) => (totals.get(), calls.take()),
        None => (PolicyTotals::default(), Vec::new()),
    };
    let (report, failures, setup, run) = match outcome {
        Ok((mut report, setup, run)) => {
            report.technique = cell.technique.name();
            let failures = checks::failures(cell, &report);
            (Some(report), failures, setup, run)
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            let failure = format!("{}: panicked: {message}", cell.label);
            (None, vec![failure], Duration::ZERO, Duration::ZERO)
        }
    };
    CellRun {
        report,
        failures,
        setup,
        run,
        hook_wants_context,
        hook_calls,
        policy,
    }
}

/// Records a traced cell's spans under the workload span `root`: the
/// cell, its set-up, its run and one span per hook interval.
fn record_cell(trace: &mut Trace, root: usize, label: &str, start: Instant, run: &CellRun) {
    let span = trace.push(label, "cell", Some(root), start, start.elapsed());
    trace.push("sim_setup", "sim_setup", Some(span), start, run.setup);
    let run_span = trace.push("run", "sim", Some(span), start + run.setup, run.run);
    trace.spans[run_span].args = vec![
        ("policy_calls".into(), run.policy.calls.into()),
        (
            "policy_us".into(),
            (run.policy.busy().as_secs_f64() * 1e6).into(),
        ),
    ];
    for call in &run.hook_calls {
        let interval = trace.push(
            "on_interval",
            "controller",
            Some(run_span),
            call.start,
            call.dur,
        );
        trace.spans[interval].args = vec![
            ("sim_time_s".into(), call.at.as_secs_f64().into()),
            ("orders".into(), call.orders.into()),
        ];
    }
}

/// Runs one round of `workload`; a traced round also records its spans.
pub fn run_round(workload: &Workload, traced: bool, yardstick: &mut Yardstick) -> Round {
    let mut costs = vec![yardstick.cost()];
    let round_start = Instant::now();
    let models = train(workload);
    let train = round_start.elapsed();
    let mut trace = traced.then(Trace::default);
    let root = trace.as_mut().map(|t| {
        let root = t.push(workload.name, "workload", None, round_start, Duration::ZERO);
        t.push("train", "training", Some(root), round_start, train);
        root
    });
    let mut cells = Vec::with_capacity(workload.cells.len());
    for cell in &workload.cells {
        let start = Instant::now();
        let run = run_cell(cell, &models, workload.epsilon_secs, traced);
        if let (Some(trace), Some(root)) = (&mut trace, root) {
            record_cell(trace, root, &cell.label, start, &run);
        }
        cells.push(run);
        costs.push(yardstick.cost());
    }
    if let (Some(trace), Some(root)) = (&mut trace, root) {
        trace.spans[root].dur = round_start.elapsed();
    }
    Round {
        train,
        cells,
        yardstick: costs,
        trace,
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A memory figure of this process in MB, `VmHWM` (peak resident) or
/// `VmRSS` (resident now); 0 where the kernel does not report it.
fn read_memory_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks every run of every cell, and its digest against the first bare
/// round's; prints every problem and returns, per cell, whether any of
/// its runs failed.
fn verify(workload: &Workload, bare: &[Round], traced: &[Round]) -> Vec<bool> {
    let reference: Vec<u64> = bare[0].cells.iter().map(CellRun::digest).collect();
    let mut failed = vec![false; workload.cells.len()];
    for (kind, rounds) in [("bare", bare), ("traced", traced)] {
        for (index, round) in rounds.iter().enumerate() {
            for (i, (cell, run)) in workload.cells.iter().zip(&round.cells).enumerate() {
                let mut problems = run.failures.clone();
                if run.digest() != reference[i] {
                    problems.push(format!(
                        "{}: {kind} round {index} digest {:016x}, expected {:016x}",
                        cell.label,
                        run.digest(),
                        reference[i]
                    ));
                }
                for p in &problems {
                    println!("FAILED {p}");
                }
                failed[i] |= !problems.is_empty();
            }
        }
    }
    failed
}

/// Prints one line per cell: digest and the simulated tail.
fn print_digests(workload: &Workload, round: &Round) {
    for (cell, run) in workload.cells.iter().zip(&round.cells) {
        let Some(r) = &run.report else { continue };
        println!(
            "digest {} {:?} panel {} {:016x} p99_ms {} overall_p99_ms {} lost {} events {}",
            workload.name,
            cell.label,
            u8::from(workload.on_panel(cell)),
            run.digest(),
            r.component_p99_ms(),
            r.overall_latency.p99 * 1e3,
            r.faults.stats.requests_lost,
            r.events_processed
        );
    }
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads::default_seed(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args
        .seed
        .or_else(|| workloads::default_seed(&args.workload))
        .expect("the name was checked");
    let workload = workloads::build(&args.workload, seed).expect("the name was checked");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Duration::from_secs(args.seconds);

    // The yardstick's buffers stay resident for the whole run; their size
    // is taken off the peak so that it stays the program's.
    let resident_before = read_memory_mb("VmRSS");
    let mut yardstick = Yardstick::new();
    let yardstick_mb = read_memory_mb("VmRSS") - resident_before;

    let start = Instant::now();
    let mut bare: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut peak_rss_mb = None;
    loop {
        let round_start = Instant::now();
        bare.push(run_round(&workload, false, &mut yardstick));
        // One round's peak: later rounds only add allocator noise.
        peak_rss_mb.get_or_insert_with(|| read_memory_mb("VmHWM") - yardstick_mb);
        if args.trace {
            traced.push(run_round(&workload, true, &mut yardstick));
        }
        // Leave room for one more round.
        if bare.len() >= MIN_ROUNDS && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }

    println!(
        "workload {} seed {seed} panel {:?} host_cpus {host_cpus} rounds {} cells {} trace {}",
        workload.name,
        workload.panel,
        bare.len(),
        workload.cells.len(),
        u8::from(args.trace)
    );
    for (index, round) in bare.iter().enumerate() {
        println!(
            "round {index} host wall_s {:.4} setup_s {:.5} yardstick_s {:.4} events {}",
            round.wall_s(),
            round.setup_s(),
            median(&round.yardstick),
            round.events()
        );
    }
    let cells_failed = verify(&workload, &bare, &traced);
    print_digests(&workload, &bare[0]);
    let attempted = cells_failed.len() as u64;
    let failed = cells_failed.iter().filter(|&&f| f).count() as u64;
    let mut correct = failed == 0;

    let e2e = layers::end_to_end(
        &workload,
        &bare,
        failed,
        attempted,
        peak_rss_mb.unwrap_or_default(),
    );
    let metrics = if args.trace {
        for line in layers::share_table(&workload, &traced) {
            println!("share {line} host_cpus {host_cpus}");
        }
        if let Some(trace) = traced.last().and_then(|r| r.trace.as_ref()) {
            let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into());
            let dir = PathBuf::from(dir).join("perfbench");
            let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name));
            let process = format!("{} seed {seed} host_cpus {host_cpus}", workload.name);
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, trace.chrome_json(&process).render()));
            match written {
                Ok(()) => println!("spans {}", path.display()),
                Err(e) => {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                    correct = false;
                }
            }
        }
        for m in &e2e {
            println!("e2e {} {} {}", m.name, m.value, m.unit);
        }
        layers::per_layer(&workload, &bare, &traced)
    } else {
        e2e
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let result = Json::object(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), attempted.into()),
        ("failed".into(), failed.into()),
        (
            "metrics".into(),
            Json::object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::object(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), m.unit.into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
