//! The single `pcs` CLI: runs any registered scenario through the shared
//! deterministic parallel sweep runner.
//!
//! ```text
//! pcs list [scenarios|techniques]
//! pcs run --scenario fig6 [--techniques basic,ll,pcs] [--rates 50,500]
//!         [--seed N] [--threads N] [--repeats N] [--smoke] [--json PATH]
//!         [--quiet]
//! ```
//!
//! Every experiment (fig5, fig6, fig7, headline, the five ablations) is
//! a scenario here, plus the extended scenarios (`diurnal`, `hetero`,
//! `mmpp`). The comparison scenarios sweep the open technique registry,
//! so `--techniques` selects any registered set for any of them. Reports
//! print as plain-text tables and, with `--json`, as a machine-readable
//! sweep report whose bytes are reproducible at a fixed seed for every
//! scenario without wall-clock metrics.

use pcs::scenarios;
use pcs::tables;
use pcs::techniques;
use pcs_harness::{run_sweep, Json, SweepOutcome, SweepParams};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(args.get(1).map(String::as_str)),
        Some("run") => cmd_run(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{}", usage());
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{}", usage());
            2
        }
    };
    std::process::exit(code);
}

fn usage() -> String {
    let mut out = String::from(
        "pcs - PCS (ICPP 2015) experiment harness\n\
         \n\
         USAGE:\n\
         \x20 pcs list [scenarios|techniques]   list the registries\n\
         \x20 pcs run --scenario <name>         run one scenario\n\
         \n\
         OPTIONS (run):\n\
         \x20 --scenario <name>    required; see `pcs list scenarios`\n\
         \x20 --techniques <a,b>   technique-set override (comparison sweeps);\n\
         \x20                      see `pcs list techniques`\n\
         \x20 --seed <u64>         base seed (default: the scenario's)\n\
         \x20 --threads <n>        worker threads (default: all cores)\n\
         \x20 --rates <a,b,c>      arrival-rate grid override, req/s\n\
         \x20 --repeats <n>        repeat count override (fig7)\n\
         \x20 --sizes <a,b,c>      cluster-size grid override, nodes (scale)\n\
         \x20 --group-cap <n>      PCS-H per-group component cap (scale)\n\
         \x20 --target-util <f>    autoscaler target utilisation in (0, 1] (elastic)\n\
         \x20 --cooldown <secs>    autoscaler cooldown between scale actions (elastic)\n\
         \x20 --detector-latency <secs>  failure-detector heartbeat timeout, pinned\n\
         \x20                      across all levels (imperfect)\n\
         \x20 --fp-rate <f>        detector false-positive rate in [0, 1] (imperfect)\n\
         \x20 --fn-rate <f>        detector false-negative rate in [0, 1] (imperfect)\n\
         \x20 --noise <sigma>      prediction-noise sigma for the PCS cells\n\
         \x20                      (imperfect; not with --techniques)\n\
         \x20 --observe            observability layer: request timelines, tail\n\
         \x20                      attribution, time-series, scheduler audits\n\
         \x20 --top-k <n>          slowest timelines retained per cell (default 5;\n\
         \x20                      requires --observe)\n\
         \x20 --trace-out <path>   write the retained timelines as Chrome trace-event\n\
         \x20                      JSON, loadable in Perfetto (requires --observe)\n\
         \x20 --smoke              tiny CI budgets (short horizon, small grid)\n\
         \x20 --json <path>        also write the machine-readable report\n\
         \x20 --quiet              suppress the cell table\n",
    );
    out.push_str("\nSCENARIOS:\n");
    for scenario in scenarios::registry() {
        out.push_str(&format!(
            "  {:<20} {}\n",
            scenario.name(),
            scenario.description()
        ));
    }
    out.push_str("\nTECHNIQUES (any `red-<k>` / `ri-<p>` parses, e.g. ri-99.5):\n");
    for technique in techniques::registry() {
        out.push_str(&format!(
            "  {:<20} {}\n",
            technique.name().to_lowercase(),
            technique.description()
        ));
    }
    out
}

fn cmd_list(which: Option<&str>) -> i32 {
    let scenarios_section = || {
        for scenario in scenarios::registry() {
            println!("{:<20} {}", scenario.name(), scenario.description());
        }
    };
    let techniques_section = || {
        for technique in techniques::registry() {
            println!(
                "{:<20} {}",
                technique.name().to_lowercase(),
                technique.description()
            );
        }
    };
    match which {
        None => {
            println!("SCENARIOS:");
            scenarios_section();
            println!("\nTECHNIQUES (any `red-<k>` / `ri-<p>` parses, e.g. ri-99.5):");
            techniques_section();
        }
        Some("scenarios") => scenarios_section(),
        Some("techniques") => techniques_section(),
        Some(other) => {
            eprintln!("unknown registry `{other}`; use `scenarios` or `techniques`");
            return 2;
        }
    }
    0
}

struct RunArgs {
    scenario: String,
    params: SweepParams,
    seed_override: Option<u64>,
    json_path: Option<String>,
    trace_path: Option<String>,
    quiet: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut scenario = None;
    let mut params = SweepParams::default();
    let mut seed_override = None;
    let mut json_path = None;
    let mut observe = false;
    let mut top_k = None;
    let mut trace_path = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => scenario = Some(value("--scenario")?),
            "--seed" => {
                seed_override = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--threads" => {
                let threads: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err(
                        "--threads: must be at least 1 (0 workers would run no cells)".to_string(),
                    );
                }
                params.threads = threads;
            }
            "--repeats" => {
                let repeats: usize = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if repeats == 0 {
                    return Err(
                        "--repeats: must be at least 1 (0 repeats would produce an empty report)"
                            .to_string(),
                    );
                }
                params.repeats = Some(repeats);
            }
            "--rates" => {
                let list = value("--rates")?;
                if list.trim().is_empty() {
                    return Err(
                        "--rates: expected a comma-separated list of at least one rate, got an \
                         empty list"
                            .to_string(),
                    );
                }
                let rates: Result<Vec<f64>, _> =
                    list.split(',').map(|r| r.trim().parse::<f64>()).collect();
                let rates = rates.map_err(|e| format!("--rates: {e}"))?;
                if let Some(bad) = rates.iter().find(|r| !r.is_finite() || **r <= 0.0) {
                    return Err(format!(
                        "--rates: rates must be finite and positive, got {bad}"
                    ));
                }
                params.rates = Some(rates);
            }
            "--techniques" => {
                let list = value("--techniques")?;
                // Validate here (with the registry's vocabulary in the
                // error) and hand scenarios the canonical names.
                let specs =
                    techniques::parse_list(&list).map_err(|e| format!("--techniques: {e}"))?;
                params.techniques = Some(specs.iter().map(|s| s.name()).collect());
            }
            "--group-cap" => {
                let cap: usize = value("--group-cap")?
                    .parse()
                    .map_err(|e| format!("--group-cap: {e}"))?;
                if !(1..=techniques::MAX_GROUP_CAP).contains(&cap) {
                    return Err(format!(
                        "--group-cap: must be in 1..={}, got {cap} (0 would forbid every group)",
                        techniques::MAX_GROUP_CAP
                    ));
                }
                params.group_cap = Some(cap);
            }
            "--sizes" => {
                let list = value("--sizes")?;
                if list.trim().is_empty() {
                    return Err(
                        "--sizes: expected a comma-separated list of at least one cluster size, \
                         got an empty list"
                            .to_string(),
                    );
                }
                let sizes: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse::<usize>()).collect();
                let sizes = sizes.map_err(|e| format!("--sizes: {e}"))?;
                if let Some(bad) = sizes.iter().find(|s| **s < scenarios::scale::MIN_NODES) {
                    return Err(format!(
                        "--sizes: cluster sizes must be >= {} nodes, got {bad}",
                        scenarios::scale::MIN_NODES
                    ));
                }
                params.sizes = Some(sizes);
            }
            "--target-util" => {
                let target: f64 = value("--target-util")?
                    .parse()
                    .map_err(|e| format!("--target-util: {e}"))?;
                if !(target > 0.0 && target <= 1.0) {
                    return Err(format!(
                        "--target-util: target utilisation must be in (0, 1], got {target}"
                    ));
                }
                params.target_util = Some(target);
            }
            "--cooldown" => {
                let secs: f64 = value("--cooldown")?
                    .parse()
                    .map_err(|e| format!("--cooldown: {e}"))?;
                // The clock ticks in microseconds: a cooldown that rounds
                // to zero ticks is a zero cooldown.
                if !secs.is_finite() || pcs_types::SimDuration::from_secs_f64(secs).is_zero() {
                    return Err(format!(
                        "--cooldown: must be a positive number of seconds of at least \
                         1 µs, got {secs} (a zero cooldown would let the controller \
                         thrash every window)"
                    ));
                }
                params.cooldown_secs = Some(secs);
            }
            "--detector-latency" => {
                let secs: f64 = value("--detector-latency")?
                    .parse()
                    .map_err(|e| format!("--detector-latency: {e}"))?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(format!(
                        "--detector-latency: must be a non-negative number of seconds, got {secs}"
                    ));
                }
                params.detector_latency_secs = Some(secs);
            }
            "--fp-rate" => {
                let rate: f64 = value("--fp-rate")?
                    .parse()
                    .map_err(|e| format!("--fp-rate: {e}"))?;
                if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                    return Err(format!(
                        "--fp-rate: false-positive rate must be in [0, 1], got {rate}"
                    ));
                }
                params.fp_rate = Some(rate);
            }
            "--fn-rate" => {
                let rate: f64 = value("--fn-rate")?
                    .parse()
                    .map_err(|e| format!("--fn-rate: {e}"))?;
                if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                    return Err(format!(
                        "--fn-rate: false-negative rate must be in [0, 1], got {rate}"
                    ));
                }
                params.fn_rate = Some(rate);
            }
            "--noise" => {
                let sigma: f64 = value("--noise")?
                    .parse()
                    .map_err(|e| format!("--noise: {e}"))?;
                if !(sigma.is_finite() && (0.0..=techniques::MAX_NOISE_SIGMA).contains(&sigma)) {
                    return Err(format!(
                        "--noise: sigma must be in 0..={}, got {sigma}",
                        techniques::MAX_NOISE_SIGMA
                    ));
                }
                params.noise = Some(sigma);
            }
            "--observe" => observe = true,
            "--top-k" => {
                let k: usize = value("--top-k")?
                    .parse()
                    .map_err(|e| format!("--top-k: {e}"))?;
                if k == 0 {
                    return Err(
                        "--top-k: must be at least 1 (0 would retain no timelines)".to_string()
                    );
                }
                top_k = Some(k);
            }
            "--trace-out" => trace_path = Some(value("--trace-out")?),
            "--smoke" => params.smoke = true,
            "--json" => json_path = Some(value("--json")?),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !observe {
        if top_k.is_some() {
            return Err("--top-k requires --observe (it sizes the observe retention)".to_string());
        }
        if trace_path.is_some() {
            return Err(
                "--trace-out requires --observe (the trace is built from observe timelines)"
                    .to_string(),
            );
        }
    }
    if params.noise.is_some() && params.techniques.is_some() {
        // The noise dial works by swapping the default grid's PCS cell
        // for `pcs-n<sigma>`; a technique override replaces that grid, so
        // the flag would silently do nothing.
        return Err(
            "--noise cannot combine with --techniques (the override replaces the grid the \
             noise is applied to); select `pcs-n<sigma>` in --techniques instead"
                .to_string(),
        );
    }
    if observe {
        params.observe = Some(top_k.unwrap_or(5));
    }
    Ok(RunArgs {
        scenario: scenario.ok_or("missing --scenario")?,
        params,
        seed_override,
        json_path,
        trace_path,
        quiet,
    })
}

fn cmd_run(args: &[String]) -> i32 {
    let mut run = match parse_run_args(args) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("{message}\n\n{}", usage());
            return 2;
        }
    };
    let Some(scenario) = scenarios::find(&run.scenario) else {
        eprintln!(
            "unknown scenario `{}`; `pcs list` shows the registry",
            run.scenario
        );
        return 2;
    };
    if run.params.techniques.is_some() && !scenario.techniques_selectable() {
        let selectable: Vec<&str> = scenarios::registry()
            .iter()
            .filter(|s| s.techniques_selectable())
            .map(|s| s.name())
            .collect();
        eprintln!(
            "scenario `{}` does not sweep techniques; --techniques applies to: {}",
            scenario.name(),
            selectable.join(", ")
        );
        return 2;
    }
    if (run.params.group_cap.is_some() || run.params.sizes.is_some()) && scenario.name() != "scale"
    {
        eprintln!(
            "scenario `{}` has no cluster-size grid; --sizes/--group-cap apply to: scale",
            scenario.name()
        );
        return 2;
    }
    if (run.params.target_util.is_some() || run.params.cooldown_secs.is_some())
        && scenario.name() != "elastic"
    {
        eprintln!(
            "scenario `{}` has no autoscaler; --target-util/--cooldown apply to: elastic",
            scenario.name()
        );
        return 2;
    }
    if (run.params.detector_latency_secs.is_some()
        || run.params.fp_rate.is_some()
        || run.params.fn_rate.is_some()
        || run.params.noise.is_some())
        && scenario.name() != "imperfect"
    {
        eprintln!(
            "scenario `{}` has no imperfect-information dials; \
             --detector-latency/--fp-rate/--fn-rate/--noise apply to: imperfect",
            scenario.name()
        );
        return 2;
    }
    if run.params.observe.is_some() && !scenario.observe_supported() {
        let supported: Vec<&str> = scenarios::registry()
            .iter()
            .filter(|s| s.observe_supported())
            .map(|s| s.name())
            .collect();
        eprintln!(
            "scenario `{}` does not support the observability layer (its metrics are \
             wall-clock or it runs no simulation); --observe applies to: {}",
            scenario.name(),
            supported.join(", ")
        );
        return 2;
    }
    run.params.seed = run.seed_override.unwrap_or_else(|| scenario.default_seed());

    eprintln!(
        "running scenario `{}` (seed {}, {} threads{})...",
        scenario.name(),
        run.params.seed,
        run.params.threads,
        if run.params.smoke { ", smoke" } else { "" }
    );
    let plan = scenario.plan(&run.params);
    let cell_count = plan.cells.len();
    let outcome = run_sweep(&plan, &run.params);

    if !run.quiet {
        println!("== {} ==\n", scenario.description());
        print_cells(&outcome);
    }
    print_summary(&outcome);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    eprintln!("{cell_count} cells done");

    if let Some(path) = &run.json_path {
        let report = outcome.to_json(scenario.name(), &run.params).render() + "\n";
        if let Err(error) = std::fs::write(path, report) {
            eprintln!("writing {path}: {error}");
            return 1;
        }
        eprintln!("JSON report written to {path}");
    }
    if let Some(path) = &run.trace_path {
        let report = outcome.to_json(scenario.name(), &run.params);
        let rendered = pcs::trace::chrome_trace(&report).render() + "\n";
        // The trace must round-trip the harness's own strict parser:
        // writing a file Perfetto would reject is worse than failing.
        if let Err(error) = Json::parse(&rendered) {
            eprintln!("internal error: trace does not round-trip: {error}");
            return 1;
        }
        if let Err(error) = std::fs::write(path, rendered) {
            eprintln!("writing {path}: {error}");
            return 1;
        }
        eprintln!("Chrome trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    0
}

/// True for values the plain-text table can show in one cell.
fn is_scalar(value: &Json) -> bool {
    !matches!(value, Json::Array(_) | Json::Object(_))
}

fn print_cells(outcome: &SweepOutcome) {
    let Some(first) = outcome.cells.first() else {
        println!("(no cells)");
        return;
    };
    let columns: Vec<&String> = first
        .params
        .iter()
        .chain(first.metrics.iter())
        .filter(|(_, v)| is_scalar(v))
        .map(|(k, _)| k)
        .collect();
    let header: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    let rows: Vec<Vec<String>> = outcome
        .cells
        .iter()
        .map(|cell| {
            columns
                .iter()
                .map(|column| {
                    cell.value(column)
                        .map(Json::to_cell_string)
                        .unwrap_or_default()
                })
                .collect()
        })
        .collect();
    println!("{}", tables::render(&header, &rows));
}

fn print_summary(outcome: &SweepOutcome) {
    for (key, value) in &outcome.summary {
        match value {
            Json::Array(rows) if rows.iter().all(|r| matches!(r, Json::Object(_))) => {
                let Some(Json::Object(first)) = rows.first() else {
                    continue;
                };
                let header: Vec<String> = first.iter().map(|(k, _)| k.clone()).collect();
                let table_rows: Vec<Vec<String>> = rows
                    .iter()
                    .filter_map(|row| match row {
                        Json::Object(pairs) => Some(
                            header
                                .iter()
                                .map(|column| {
                                    pairs
                                        .iter()
                                        .find(|(k, _)| k == column)
                                        .map(|(_, v)| v.to_cell_string())
                                        .unwrap_or_default()
                                })
                                .collect(),
                        ),
                        _ => None,
                    })
                    .collect();
                println!("{key}:\n{}", tables::render(&header, &table_rows));
            }
            value => println!("{key}: {}", value.to_cell_string()),
        }
    }
}
