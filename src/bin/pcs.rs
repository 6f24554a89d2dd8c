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
use pcs_harness::{run_sweep, Json, Override, SweepOutcome, SweepParams};
use pcs_sim::ObserveConfig;
use std::fmt::Display;
use std::str::FromStr;

/// Largest accepted `--rates` entry, req/s: 20× the paper's largest rate
/// (500). Latency recording takes fixed memory, but past saturation the
/// queue backlog grows with the arrival rate: one full fig6 Basic cell
/// peaks at about 1.0 GB of RSS at this rate, against 9 MB at 500 req/s.
const MAX_RATE: f64 = 10_000.0;

fn main() {
    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(std::ffi::OsString::into_string)
        .collect();
    let args = match args {
        Ok(args) => args,
        Err(bad) => {
            std::process::exit(usage_error(&format!("argument {bad:?} is not valid UTF-8")))
        }
    };
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(args.get(1).map(String::as_str)),
        Some("run") => cmd_run(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{}", usage());
            0
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
    };
    std::process::exit(code);
}

/// Reports a command-line error as the reason plus a pointer to the
/// usage text, and returns the usage exit code.
fn usage_error(reason: &str) -> i32 {
    eprintln!("{reason}\nsee `pcs --help` for usage");
    2
}

/// The line above the technique listing: the listed names are instances,
/// and every member of a parameterised family parses.
fn techniques_header() -> String {
    format!(
        "TECHNIQUES (any member of a parameterised family parses: {}):",
        techniques::parameterised_families()
    )
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
         \x20 --rates <a,b,c>      arrival-rate grid override, req/s, each in (0, 10000]\n\
         \x20                      (simulation sweeps)\n\
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
            scenario.name, scenario.description
        ));
    }
    out.push_str(&format!("\n{}\n", techniques_header()));
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
            println!("{:<20} {}", scenario.name, scenario.description);
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
            println!("\n{}", techniques_header());
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

/// Parses one flag value, naming the flag in the error.
fn parse<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a comma-separated grid list of at least one `noun`, none of
/// them listed twice (`80` and `80.0` are the same rate): a repeated
/// entry would run and count the same cells twice.
fn parse_list<T: FromStr + PartialEq + Display>(
    flag: &str,
    text: &str,
    noun: &str,
) -> Result<Vec<T>, String>
where
    T::Err: Display,
{
    if text.trim().is_empty() {
        return Err(format!(
            "{flag}: expected a comma-separated list of at least one {noun}, got an empty list"
        ));
    }
    let values = text
        .split(',')
        .map(|entry| parse(flag, entry.trim()))
        .collect::<Result<Vec<T>, _>>()?;
    if let Some((_, dup)) = values
        .iter()
        .enumerate()
        .find(|(i, v)| values[..*i].contains(v))
    {
        return Err(format!(
            "{flag}: {noun} {dup} is listed more than once (a repeated {noun} would run and \
             count the same cells twice)"
        ));
    }
    Ok(values)
}

/// Parses the `pcs run` arguments. Only syntax is checked here, plus the
/// ranges of the grid-level `--rates`, `--repeats` and `--threads`: every
/// other value's range is checked by the code that consumes it (the
/// scenario's plan, or `ObserveConfig::validate` for `--top-k`).
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
        let flag = arg.as_str();
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--scenario" => scenario = Some(value()?),
            "--seed" => seed_override = Some(parse(flag, &value()?)?),
            "--threads" => {
                params.threads = parse(flag, &value()?)?;
                if params.threads == 0 {
                    return Err(
                        "--threads: must be at least 1 (0 workers would run no cells)".to_string(),
                    );
                }
            }
            "--repeats" => {
                let repeats = parse(flag, &value()?)?;
                if repeats == 0 {
                    return Err(
                        "--repeats: must be at least 1 (0 repeats would produce an empty report)"
                            .to_string(),
                    );
                }
                params.repeats = Some(repeats);
            }
            "--rates" => {
                let rates: Vec<f64> = parse_list(flag, &value()?, "rate")?;
                if let Some(bad) = rates.iter().find(|r| !(**r > 0.0 && **r <= MAX_RATE)) {
                    return Err(format!(
                        "--rates: rates must be finite and positive, at most {MAX_RATE} req/s \
                         (a simulation's memory grows with its rate), got {bad:?}"
                    ));
                }
                params.rates = Some(rates);
            }
            "--techniques" => {
                // Parsed here (with the registry's vocabulary in the
                // error); scenarios get the canonical names.
                let specs =
                    techniques::parse_list(&value()?).map_err(|e| format!("--techniques: {e}"))?;
                params.techniques = Some(specs.iter().map(|s| s.name()).collect());
            }
            "--sizes" => params.sizes = Some(parse_list(flag, &value()?, "cluster size")?),
            "--group-cap" => params.group_cap = Some(parse(flag, &value()?)?),
            "--target-util" => params.target_util = Some(parse(flag, &value()?)?),
            "--cooldown" => params.cooldown_secs = Some(parse(flag, &value()?)?),
            "--detector-latency" => params.detector_latency_secs = Some(parse(flag, &value()?)?),
            "--fp-rate" => params.fp_rate = Some(parse(flag, &value()?)?),
            "--fn-rate" => params.fn_rate = Some(parse(flag, &value()?)?),
            "--noise" => params.noise = Some(parse(flag, &value()?)?),
            "--observe" => observe = true,
            "--top-k" => {
                let config = ObserveConfig {
                    top_k: parse(flag, &value()?)?,
                };
                config.validate().map_err(|e| format!("--top-k: {e}"))?;
                top_k = Some(config.top_k);
            }
            "--trace-out" => trace_path = Some(value()?),
            "--smoke" => params.smoke = true,
            "--json" => json_path = Some(value()?),
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
    if observe {
        params.observe = Some(top_k.unwrap_or(ObserveConfig::default().top_k));
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
        Err(message) => return usage_error(&message),
    };
    let Some(scenario) = scenarios::find(&run.scenario) else {
        eprintln!(
            "unknown scenario `{}`; `pcs list` shows the registry",
            run.scenario
        );
        return 2;
    };
    // A report records every override it ran with: one the scenario's
    // plan does not read would misstate what was run.
    if let Some(unread) = Override::ALL
        .into_iter()
        .find(|o| o.is_set(&run.params) && !scenario.overrides.contains(o))
    {
        let readers: Vec<&str> = scenarios::registry()
            .iter()
            .filter(|s| s.overrides.contains(&unread))
            .map(|s| s.name)
            .collect();
        let flag = unread.flag();
        return usage_error(&format!(
            "scenario `{}` does not read {flag}; {flag} applies to: {}",
            scenario.name,
            readers.join(", ")
        ));
    }
    run.params.seed = run.seed_override.unwrap_or(scenario.default_seed);
    let plan = match scenario.plan(&run.params) {
        Ok(plan) => plan,
        Err(error) => return usage_error(&error.to_string()),
    };

    eprintln!(
        "running scenario `{}` (seed {}, {} threads{})...",
        scenario.name,
        run.params.seed,
        run.params.threads,
        if run.params.smoke { ", smoke" } else { "" }
    );
    let cell_count = plan.cells.len();
    let outcome = run_sweep(&plan, &run.params);

    if !run.quiet {
        println!("== {} ==\n", scenario.description);
        print_cells(&outcome);
    }
    print_summary(&outcome);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    eprintln!("{cell_count} cells done");

    if let Some(path) = &run.json_path {
        let report = outcome.to_json(scenario.name, &run.params).render() + "\n";
        if let Err(error) = std::fs::write(path, report) {
            eprintln!("writing {path}: {error}");
            return 1;
        }
        eprintln!("JSON report written to {path}");
    }
    if let Some(path) = &run.trace_path {
        let report = outcome.to_json(scenario.name, &run.params);
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
