//! Stage and overall service latency (paper Eq. 3 and Eq. 4), with
//! efficient "what-if" evaluation under component-latency overrides.
//!
//! ```text
//! l_stage   = max_{1≤i≤C} { l_i }          (Eq. 3)
//! l_overall = Σ_{j=1..S}  l_stage_j        (Eq. 4)
//! ```
//!
//! The performance matrix evaluates `l'_overall` for every candidate
//! migration; each evaluation overrides the latencies of the migrant and
//! of every co-resident of the origin and destination nodes (Table III).
//! That is a handful on a large, sparse cluster and dozens on a small,
//! dense one. [`StageLatencyIndex`] keeps each stage's latencies sorted.
//! The caller folds the overrides into one maximum per touched stage and
//! names the overridden components by a predicate (for a matrix entry:
//! "hosted on the origin or the destination"), so a what-if costs
//! O(touched stages + scanned stage prefix), never O(m) or O(overrides²),
//! and needs no per-component scratch.

use pcs_types::ComponentId;

/// Per-stage sorted latency index supporting override evaluation.
#[derive(Debug, Clone)]
pub struct StageLatencyIndex {
    /// For each stage: `(latency_secs, component)` sorted descending.
    stages: Vec<Vec<(f64, ComponentId)>>,
    /// Component → stage.
    stage_of: Vec<usize>,
    /// Cached Σ of stage maxima (the current `l_overall`).
    overall: f64,
}

impl StageLatencyIndex {
    /// Builds the index from per-component latencies and stage assignments.
    ///
    /// `latencies[i]` and `stage_of[i]` describe component `i`;
    /// `stage_count` is the number of sequential stages.
    ///
    /// # Panics
    /// Panics if a stage index is out of range, inputs differ in length,
    /// or any stage ends up empty.
    pub fn build(latencies: &[f64], stage_of: &[usize], stage_count: usize) -> Self {
        assert_eq!(latencies.len(), stage_of.len(), "length mismatch");
        assert!(stage_count > 0, "need at least one stage");
        let mut stages: Vec<Vec<(f64, ComponentId)>> = vec![Vec::new(); stage_count];
        for (i, (&lat, &st)) in latencies.iter().zip(stage_of).enumerate() {
            assert!(
                st < stage_count,
                "component {i} has out-of-range stage {st}"
            );
            assert!(
                lat.is_finite() && lat >= 0.0,
                "component {i} has invalid latency {lat}"
            );
            stages[st].push((lat, ComponentId::from_index(i)));
        }
        for (si, s) in stages.iter_mut().enumerate() {
            assert!(!s.is_empty(), "stage {si} has no components");
            s.sort_by(|a, b| b.0.total_cmp(&a.0));
        }
        let overall = stages.iter().map(|s| s[0].0).sum();
        StageLatencyIndex {
            stages,
            stage_of: stage_of.to_vec(),
            overall,
        }
    }

    /// The current overall latency `l_overall` (Eq. 4), seconds.
    #[inline]
    pub fn overall(&self) -> f64 {
        self.overall
    }

    /// The current latency of stage `s` (Eq. 3), seconds.
    pub fn stage_latency(&self, s: usize) -> f64 {
        self.stages[s][0].0
    }

    /// The current latency of component `c`, seconds.
    pub fn component_latency(&self, c: ComponentId) -> f64 {
        let stage = &self.stages[self.stage_of[c.index()]];
        stage
            .iter()
            .find(|(_, id)| *id == c)
            .map(|(l, _)| *l)
            .expect("component present in its stage")
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The components that hold their stage's maximum: in every stage,
    /// each component whose latency equals the stage latency (all of a
    /// tied top). Only an override of one of these can lower
    /// [`Self::overall_what_if`] below [`Self::overall`].
    pub fn stage_max_holders(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.stages.iter().flat_map(|stage| {
            let top = stage[0].0;
            stage
                .iter()
                .take_while(move |&&(lat, _)| lat == top)
                .map(|&(_, id)| id)
        })
    }

    /// Evaluates `l'_overall` (Eq. 4) as if some components had new
    /// latencies, without mutating the index.
    ///
    /// `touched` lists every stage that holds an overridden component, each
    /// once, with the maximum of its overridden components' new latencies;
    /// `overridden` tells whether a component is overridden. The stages are
    /// summed in `touched` order.
    ///
    /// Cost is O(touched + scanned stage prefix), independent of the number
    /// of stages and components: the scan of a touched stage stops at its
    /// first component not overridden. That keeps matrix construction at
    /// the paper's O(m·k) even when a node hosts dozens of components (an
    /// entry only perturbs the residents of two nodes).
    ///
    /// Given each stage's maximum folded over its overrides in any order,
    /// and the stages in first-occurrence order of an override list, this
    /// is bit-identical to evaluating that list: `max` over finite,
    /// non-negative latencies only selects.
    pub fn overall_what_if(
        &self,
        touched: &[(usize, f64)],
        overridden: impl Fn(ComponentId) -> bool,
    ) -> f64 {
        // Start from the cached Eq. 4 total and adjust only the touched
        // stages. The highest unaffected latency is the first entry of the
        // sorted stage not overridden (0.0 if all are).
        let mut total = self.overall;
        for &(si, new_max) in touched {
            let stage = &self.stages[si];
            let unaffected = stage
                .iter()
                .find(|&&(_, id)| !overridden(id))
                .map_or(0.0, |&(lat, _)| lat);
            total += unaffected.max(new_max) - stage[0].0;
        }
        total
    }

    /// Applies latency changes permanently (after a migration is accepted)
    /// and refreshes the cached overall latency.
    pub fn apply(&mut self, changes: &[(ComponentId, f64)]) {
        for &(c, lat) in changes {
            assert!(
                lat.is_finite() && lat >= 0.0,
                "invalid latency {lat} for {c}"
            );
            let stage = &mut self.stages[self.stage_of[c.index()]];
            if let Some(slot) = stage.iter_mut().find(|(_, id)| *id == c) {
                slot.0 = lat;
            }
        }
        // Re-sort only the touched stages.
        let mut touched: Vec<usize> = changes
            .iter()
            .map(|(c, _)| self.stage_of[c.index()])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for si in touched {
            self.stages[si].sort_by(|a, b| b.0.total_cmp(&a.0));
        }
        self.overall = self.stages.iter().map(|s| s[0].0).sum();
    }

    /// All component latencies as a dense vector (index = component id).
    pub fn latencies(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.stage_of.len()];
        for stage in &self.stages {
            for &(lat, id) in stage {
                out[id.index()] = lat;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> ComponentId {
        ComponentId::from_index(i)
    }

    /// Paper Figure 3 example: a 3-stage service, stage 2 parallelised
    /// into two components. Latencies in ms: l1=2, l2=30, l3=25, l4=10.
    /// Stage maxima: 2, max(30,25)=30, 10 → overall 42 ... the figure uses
    /// 57 with different numbers; we just need Eq. 3/4 semantics here.
    fn figure_like_index() -> StageLatencyIndex {
        StageLatencyIndex::build(&[0.002, 0.030, 0.025, 0.010], &[0, 1, 1, 2], 3)
    }

    /// The what-if of an override list, each component at most once: its
    /// touched stages in first-occurrence order with their maxima.
    fn what_if(idx: &StageLatencyIndex, overrides: &[(ComponentId, f64)]) -> f64 {
        let mut touched: Vec<(usize, f64)> = Vec::new();
        for &(o, lat) in overrides {
            let si = idx.stage_of[o.index()];
            match touched.iter_mut().find(|(s, _)| *s == si) {
                Some(t) => t.1 = t.1.max(lat),
                None => touched.push((si, lat)),
            }
        }
        idx.overall_what_if(&touched, |id| overrides.iter().any(|&(o, _)| o == id))
    }

    #[test]
    fn overall_is_sum_of_stage_maxima() {
        let idx = figure_like_index();
        assert!((idx.stage_latency(0) - 0.002).abs() < 1e-15);
        assert!((idx.stage_latency(1) - 0.030).abs() < 1e-15);
        assert!((idx.stage_latency(2) - 0.010).abs() < 1e-15);
        assert!((idx.overall() - 0.042).abs() < 1e-15);
    }

    #[test]
    fn component_latency_lookup() {
        let idx = figure_like_index();
        assert!((idx.component_latency(c(2)) - 0.025).abs() < 1e-15);
    }

    #[test]
    fn override_of_non_max_component_below_max_changes_nothing() {
        let idx = figure_like_index();
        // c2 (25ms) rises to 28ms: still below c1's 30ms.
        let got = what_if(&idx, &[(c(2), 0.028)]);
        assert!((got - 0.042).abs() < 1e-15);
    }

    #[test]
    fn override_becoming_new_max_raises_stage() {
        let idx = figure_like_index();
        // c2 rises to 40ms and becomes the stage max.
        let got = what_if(&idx, &[(c(2), 0.040)]);
        assert!((got - 0.052).abs() < 1e-15);
    }

    #[test]
    fn override_of_max_component_falls_to_second() {
        let idx = figure_like_index();
        // c1 (30ms max) drops to 1ms; stage max becomes c2's 25ms.
        let got = what_if(&idx, &[(c(1), 0.001)]);
        assert!((got - 0.037).abs() < 1e-15);
    }

    #[test]
    fn multiple_overrides_across_stages() {
        let idx = figure_like_index();
        // c0: 2→5ms; c1: 30→10ms (stage max now c2 at 25); c3: 10→20ms.
        let got = what_if(&idx, &[(c(0), 0.005), (c(1), 0.010), (c(3), 0.020)]);
        assert!((got - (0.005 + 0.025 + 0.020)).abs() < 1e-15);
    }

    #[test]
    fn overrides_do_not_mutate() {
        let idx = figure_like_index();
        let _ = what_if(&idx, &[(c(1), 0.999)]);
        assert!((idx.overall() - 0.042).abs() < 1e-15);
    }

    #[test]
    fn apply_updates_and_resorts() {
        let mut idx = figure_like_index();
        idx.apply(&[(c(1), 0.001)]);
        assert!((idx.overall() - 0.037).abs() < 1e-15);
        assert!((idx.stage_latency(1) - 0.025).abs() < 1e-15);
        // Applying again keeps consistency.
        idx.apply(&[(c(2), 0.0005)]);
        assert!((idx.stage_latency(1) - 0.001).abs() < 1e-15);
    }

    #[test]
    fn apply_then_override_composes() {
        let mut idx = figure_like_index();
        idx.apply(&[(c(1), 0.020)]);
        let got = what_if(&idx, &[(c(2), 0.001)]);
        // Stage 1 max: c1 at 20ms (c2 overridden to 1ms).
        assert!((got - (0.002 + 0.020 + 0.010)).abs() < 1e-15);
    }

    #[test]
    fn whole_stage_overridden() {
        let idx = figure_like_index();
        // Both stage-1 components overridden.
        let got = what_if(&idx, &[(c(1), 0.003), (c(2), 0.004)]);
        assert!((got - (0.002 + 0.004 + 0.010)).abs() < 1e-15);
    }

    fn holders(idx: &StageLatencyIndex) -> Vec<ComponentId> {
        let mut out: Vec<ComponentId> = idx.stage_max_holders().collect();
        out.sort();
        out
    }

    #[test]
    fn stage_max_holders_include_every_tied_top() {
        // Stage 0: c0 and c2 tie at the top, c1 below; stage 1: c3 and c4
        // tie; stage 2: c5 alone.
        let idx = StageLatencyIndex::build(
            &[0.030, 0.010, 0.030, 0.005, 0.005, 0.002],
            &[0, 0, 0, 1, 1, 2],
            3,
        );
        assert_eq!(holders(&idx), vec![c(0), c(2), c(3), c(4), c(5)]);
    }

    #[test]
    fn stage_max_holder_moves_when_apply_demotes_the_maximum() {
        let mut idx = figure_like_index();
        assert_eq!(holders(&idx), vec![c(0), c(1), c(3)]);
        // c1 (stage 1's 30 ms max) drops below c2's 25 ms.
        idx.apply(&[(c(1), 0.001)]);
        assert_eq!(holders(&idx), vec![c(0), c(2), c(3)]);
        // Raising c1 to exactly c2's latency makes both hold the stage.
        idx.apply(&[(c(1), 0.025)]);
        assert_eq!(holders(&idx), vec![c(0), c(1), c(2), c(3)]);
    }

    #[test]
    fn latencies_round_trip() {
        let idx = figure_like_index();
        assert_eq!(idx.latencies(), vec![0.002, 0.030, 0.025, 0.010]);
    }

    #[test]
    #[should_panic(expected = "stage 1 has no components")]
    fn empty_stage_rejected() {
        let _ = StageLatencyIndex::build(&[0.1], &[0], 2);
    }
}
