//! The deterministic parallel sweep runner.
//!
//! [`run_indexed`] is the reusable core: a work-stealing parallel map over
//! `0..count` whose results land in **index-addressed slots**. Workers
//! claim indices from a shared atomic counter, so load balances like a
//! work queue, but the output vector is ordered by construction — no
//! mutex-push-then-sort, and the result is byte-identical for any thread
//! count (each cell is a pure function of its index).
//!
//! [`run_sweep`] layers the scenario plumbing on top: per-cell seeds via
//! [`crate::seed::mix`]`(base_seed, cell_index)`, the cross-cell summary
//! reduction, and the JSON report.

use crate::json::Json;
use crate::scenario::{CellOutcome, SweepParams, SweepPlan};
use crate::seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(i)` for every `i in 0..count` on up to `threads` workers and
/// returns the results in index order.
///
/// `f` must be a pure function of its index (plus captured immutable
/// state): the parallel schedule is nondeterministic, the output is not.
///
/// # Panics
/// Propagates a panic from any worker once all workers have stopped.
pub fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // One slot per index: each is written exactly once by whichever worker
    // claims the index, so the lock is uncontended and the output order is
    // fixed by construction (never by completion order).
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let workers = threads.max(1).min(count.max(1));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                let prev = slots[i].lock().unwrap().replace(value);
                debug_assert!(prev.is_none(), "indices are claimed exactly once");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding a slot")
                .expect("every index was run")
        })
        .collect()
}

/// A finished sweep: ordered cells, the summary reduction, and notes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Finished cells, in plan order.
    pub cells: Vec<CellOutcome>,
    /// Summary metrics from the plan's reduction (empty if none).
    pub summary: Vec<(String, Json)>,
    /// The plan's notes, passed through for display.
    pub notes: Vec<String>,
}

impl SweepOutcome {
    /// Renders the machine-readable report.
    ///
    /// Deliberately excludes anything execution-specific (thread count,
    /// wall-clock timestamps): for a fixed scenario, parameters and seed
    /// the rendered report is byte-identical across runs and thread
    /// counts — unless a scenario's metrics are themselves wall-clock
    /// measurements (fig7), which the scenario documents.
    pub fn to_json(&self, scenario: &str, params: &SweepParams) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                Json::object(vec![
                    ("label".into(), Json::from(cell.label.clone())),
                    ("params".into(), Json::Object(cell.params.clone())),
                    ("metrics".into(), Json::Object(cell.metrics.clone())),
                ])
            })
            .collect();
        // Grid overrides are part of the report's provenance: a fig7 run
        // averaged over 1 repeat must be distinguishable from one averaged
        // over 100. `null` means "the scenario's default".
        let rates = match &params.rates {
            Some(rates) => Json::Array(rates.iter().map(|r| Json::Num(*r)).collect()),
            None => Json::Null,
        };
        let repeats = params
            .repeats
            .map(|r| Json::from(r as u64))
            .unwrap_or(Json::Null);
        let mut report = vec![
            ("scenario".into(), Json::from(scenario)),
            ("seed".into(), Json::from(params.seed)),
            ("smoke".into(), Json::from(params.smoke)),
            ("rates_override".into(), rates),
            ("repeats_override".into(), repeats),
        ];
        // Unlike the overrides above, the techniques key appears only
        // when set: default reports pre-date the technique axis and stay
        // byte-identical.
        if let Some(techniques) = &params.techniques {
            report.push((
                "techniques_override".into(),
                Json::Array(techniques.iter().map(|t| Json::from(t.clone())).collect()),
            ));
        }
        // The same for the scale and elastic knobs.
        if let Some(sizes) = &params.sizes {
            report.push((
                "sizes_override".into(),
                Json::Array(sizes.iter().map(|&n| Json::from(n as u64)).collect()),
            ));
        }
        if let Some(cap) = params.group_cap {
            report.push(("group_cap_override".into(), Json::from(cap as u64)));
        }
        if let Some(target) = params.target_util {
            report.push(("target_util_override".into(), Json::Num(target)));
        }
        if let Some(cooldown) = params.cooldown_secs {
            report.push(("cooldown_override".into(), Json::Num(cooldown)));
        }
        // Same pattern for observability: the key (the retained top-K)
        // appears only on observe-on runs.
        if let Some(top_k) = params.observe {
            report.push(("observe_override".into(), Json::from(top_k as u64)));
        }
        // And for the imperfect-information knobs: each key appears only
        // when its flag was given, so every other scenario's report keeps
        // its historical bytes.
        if let Some(latency) = params.detector_latency_secs {
            report.push(("detector_latency_override".into(), Json::Num(latency)));
        }
        if let Some(fp) = params.fp_rate {
            report.push(("fp_rate_override".into(), Json::Num(fp)));
        }
        if let Some(fnr) = params.fn_rate {
            report.push(("fn_rate_override".into(), Json::Num(fnr)));
        }
        if let Some(noise) = params.noise {
            report.push(("noise_override".into(), Json::Num(noise)));
        }
        report.push(("cells".into(), Json::Array(cells)));
        report.push(("summary".into(), Json::Object(self.summary.clone())));
        Json::object(report)
    }
}

/// Executes a planned sweep: every cell in parallel (work-stealing,
/// index-addressed results), then the summary reduction.
///
/// Each cell receives the seed `seed::mix(params.seed, cell_index)`.
pub fn run_sweep(plan: &SweepPlan, params: &SweepParams) -> SweepOutcome {
    let results = run_indexed(plan.cells.len(), params.threads, |i| {
        (plan.cells[i].run)(seed::mix(params.seed, i as u64))
    });
    let cells: Vec<CellOutcome> = plan
        .cells
        .iter()
        .zip(results)
        .map(|(cell, result)| CellOutcome {
            label: cell.label.clone(),
            params: cell.params.clone(),
            metrics: result.metrics,
        })
        .collect();
    let summary = plan
        .summarize
        .as_ref()
        .map(|f| f(&cells))
        .unwrap_or_default();
    SweepOutcome {
        cells,
        summary,
        notes: plan.notes.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CellPlan, CellResult};

    #[test]
    fn indexed_results_are_ordered_for_any_thread_count() {
        let square = |i: usize| i * i;
        let serial = run_indexed(64, 1, square);
        for threads in [2, 3, 8, 64, 200] {
            assert_eq!(run_indexed(64, threads, square), serial);
        }
        assert_eq!(serial[63], 63 * 63);
    }

    #[test]
    fn empty_and_single_counts_work() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 0, |i| i + 10), vec![10]);
    }

    fn toy_plan() -> SweepPlan {
        let cells = (0..6)
            .map(|i| CellPlan {
                label: format!("cell{i}"),
                params: vec![("i".to_string(), Json::from(i as u64))],
                run: Box::new(move |cell_seed| CellResult {
                    metrics: vec![
                        ("seed".to_string(), Json::from(format!("{cell_seed:016x}"))),
                        ("double".to_string(), Json::from(2 * i as u64)),
                    ],
                }),
            })
            .collect();
        SweepPlan {
            cells,
            summarize: Some(Box::new(|cells| {
                let total: f64 = cells.iter().filter_map(|c| c.value_f64("double")).sum();
                vec![("total".to_string(), Json::Num(total))]
            })),
            notes: vec!["toy".into()],
        }
    }

    #[test]
    fn sweep_reports_are_identical_across_thread_counts() {
        let base = SweepParams {
            seed: 42,
            threads: 1,
            ..SweepParams::default()
        };
        let reference = run_sweep(&toy_plan(), &base).to_json("toy", &base);
        for threads in [2, 5, 16] {
            let params = SweepParams {
                threads,
                ..base.clone()
            };
            let outcome = run_sweep(&toy_plan(), &params).to_json("toy", &params);
            assert_eq!(outcome.render(), reference.render());
        }
    }

    #[test]
    fn techniques_override_appears_only_when_selected() {
        // Default reports pre-date the technique axis: the key must stay
        // absent so their bytes are unchanged.
        let default_params = SweepParams {
            seed: 1,
            ..SweepParams::default()
        };
        let outcome = run_sweep(&toy_plan(), &default_params);
        let plain = outcome.to_json("toy", &default_params).render();
        assert!(!plain.contains("techniques_override"), "{plain}");

        let selected = SweepParams {
            techniques: Some(vec!["basic".into(), "pcs".into()]),
            ..default_params
        };
        let report = run_sweep(&toy_plan(), &selected).to_json("toy", &selected);
        let rendered = report.render();
        assert!(
            rendered.contains("\"techniques_override\":[\"basic\",\"pcs\"]"),
            "{rendered}"
        );
    }

    #[test]
    fn scale_and_elastic_overrides_appear_only_when_given() {
        let keys = [
            "sizes_override",
            "group_cap_override",
            "target_util_override",
            "cooldown_override",
        ];
        let default_params = SweepParams {
            seed: 1,
            ..SweepParams::default()
        };
        let outcome = run_sweep(&toy_plan(), &default_params);
        let plain = outcome.to_json("toy", &default_params).render();
        for key in keys {
            assert!(!plain.contains(key), "{plain}");
        }

        let given = SweepParams {
            sizes: Some(vec![200, 400]),
            group_cap: Some(128),
            target_util: Some(0.8),
            cooldown_secs: Some(2.5),
            ..default_params
        };
        let rendered = outcome.to_json("toy", &given).render();
        for expected in [
            "\"sizes_override\":[200,400]",
            "\"group_cap_override\":128",
            "\"target_util_override\":0.8",
            "\"cooldown_override\":2.5",
        ] {
            assert!(rendered.contains(expected), "{expected} in {rendered}");
        }
    }

    #[test]
    fn cell_seeds_are_the_splitmix_mix_of_base_and_index() {
        let params = SweepParams {
            seed: 7,
            threads: 3,
            ..SweepParams::default()
        };
        let outcome = run_sweep(&toy_plan(), &params);
        for (i, cell) in outcome.cells.iter().enumerate() {
            let expected = format!("{:016x}", seed::mix(7, i as u64));
            assert_eq!(
                cell.value("seed").unwrap().as_str(),
                Some(expected.as_str())
            );
        }
        assert_eq!(
            outcome.summary,
            vec![("total".to_string(), Json::Num(30.0))]
        );
    }
}
