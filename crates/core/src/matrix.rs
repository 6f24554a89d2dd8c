//! The performance matrix `L` (paper §IV-C).
//!
//! For `m` components on `k` nodes, `L[i][j]` is the predicted *reduction*
//! in overall service latency if component `cᵢ` migrates from its current
//! node to node `nⱼ` (Eq. 5: `L[i][j] = l_overall − l'_overall`). A
//! migration perturbs contention vectors per Table III:
//!
//! | component                        | updated contention vector `U'` |
//! |----------------------------------|--------------------------------|
//! | `cᵢ` (the migrant)               | `U_nⱼ`                         |
//! | any component on the origin node | `U − U_cᵢ`                     |
//! | any component on the destination | `U + U_cᵢ`                     |
//! | any other component              | `U`                            |
//!
//! Note the paper's asymmetry: the migrant's new vector is the
//! destination's *pre-migration* aggregate (it does not contend with
//! itself), while destination co-residents see the aggregate *plus* the
//! migrant's demand. We implement Table III verbatim and keep the same
//! convention when refreshing base latencies after an accepted migration
//! (a component's monitored contention includes every program on its node,
//! itself included — that is what `/proc`-level node monitoring reports).
//!
//! Contention arithmetic happens in absolute demand space
//! ([`ResourceVector`]) and is normalised per destination node capacity, so
//! heterogeneous clusters are handled correctly.
//!
//! Storage covers only the **hot cross**. A node is hot when it hosts a
//! stage-max holder, and an entry with neither endpoint hot is exactly
//! zero (see [`PerformanceMatrix::gain`]). So the matrix stores full rows
//! for the components homed on hot nodes and full columns for the hot
//! nodes; every other entry reads 0.0 without being stored. Algorithm 2
//! only writes whole rows or the columns of a move's two nodes, so each
//! accepted move adds its refreshed rows and its two columns to the cross.
//! On a 1000-node cluster with a handful of hot nodes the cross holds about
//! 1% of the m·k entries.
//!
//! An entry's Eq. 4 what-if overrides exactly the residents of its two
//! nodes, so it names them by node
//! ([`StageLatencyIndex::overall_what_if`]) instead of listing them. The
//! origin side of row `i` (Table III rows 1–2 per stage, the migrant's
//! stage first) is the same for every column, so it is folded once into a
//! short `(stage, max)` summary and kept, across greedy iterations too,
//! until the origin node's state changes. An entry then predicts only the
//! migrant and the destination residents.

use crate::inputs::MatrixInputs;
use crate::predictor::{mg1_latency, ClassModelSet};
use crate::service::StageLatencyIndex;
use pcs_types::{ComponentId, ContentionVector, NodeCapacity, NodeId, ResourceVector};
use std::ops::Range;
use std::time::{Duration, Instant};

/// The best migration candidate found in the matrix (Algorithm 1 lines
/// 6–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestEntry {
    /// Component to migrate (`c_max`).
    pub component: ComponentId,
    /// Destination node (`n_Destination`).
    pub destination: NodeId,
    /// Predicted overall-latency reduction `l_max = L[c_max][n_Dest]`.
    pub gain: f64,
    /// Predicted reduction of the migrant's own latency (the tie-breaker).
    pub self_gain: f64,
}

/// Classes covered by the per-what-if service-time memo (components of
/// higher class indices — none exist in current topologies — just skip
/// the memo).
const CLASS_MEMO: usize = 8;

/// One stored entry: `(L[i][j], self-gain)`.
type Entry = (f64, f64);

/// The value of every entry outside the hot cross.
const ZERO: Entry = (0.0, 0.0);

/// The stored entries of the matrix: the hot cross of a row store and a
/// column store (see the module docs).
///
/// An entry `(i, j)` lives in the row store when row `i` is active, else in
/// the column store when column `j` is active, and is (0.0, 0.0) otherwise.
/// Column-store entries of active rows are never read, so they are neither
/// evaluated nor kept current.
#[derive(Debug, Default, Clone)]
struct HotCross {
    /// Row length `k`.
    k: usize,
    /// Per component: the slot of its active row in `rows`.
    row_slot: Vec<Option<usize>>,
    /// Row store: `k` entries per active row, by slot.
    rows: Vec<Entry>,
    /// Per node: the slot of its active column in `cols`.
    col_slot: Vec<Option<usize>>,
    /// Active columns as `(node, slot)`, sorted by node: the row-major scan
    /// order of a row outside the row store.
    active_cols: Vec<(usize, usize)>,
    /// Column slots per component in `cols`; slots past the active columns
    /// are spare.
    stride: usize,
    /// Column store, laid out by component so that one row's column
    /// entries are contiguous: entry `(i, j)` at `i * stride + slot(j)`.
    cols: Vec<Entry>,
}

impl HotCross {
    /// Makes the cross of the `hot` nodes current: the rows of components
    /// homed on a hot node (slots in component order) and the hot columns.
    /// Stored values are left for the caller to overwrite: every active
    /// row, and every inactive row's active columns.
    fn reset(&mut self, allocation: &[NodeId], hot: &[bool]) {
        let k = hot.len();
        self.k = k;
        let mut rows = 0;
        self.row_slot.clear();
        self.row_slot.extend(allocation.iter().map(|a| {
            hot[a.index()].then(|| {
                rows += 1;
                rows - 1
            })
        }));
        self.col_slot.clear();
        self.active_cols.clear();
        for (j, &h) in hot.iter().enumerate() {
            let slot = h.then_some(self.active_cols.len());
            if let Some(slot) = slot {
                self.active_cols.push((j, slot));
            }
            self.col_slot.push(slot);
        }
        // Room for as many columns again before a relayout.
        self.stride = (2 * self.active_cols.len()).clamp(1, k);
        self.rows.truncate(rows * k);
        self.rows.resize(rows * k, ZERO);
        let len = allocation.len() * self.stride;
        self.cols.truncate(len);
        self.cols.resize(len, ZERO);
    }

    /// Entry `(i, j)` by the lookup rule.
    #[inline]
    fn get(&self, i: usize, j: usize) -> Entry {
        match (self.row_slot[i], self.col_slot[j]) {
            (Some(r), _) => self.rows[r * self.k + j],
            (None, Some(c)) => self.cols[i * self.stride + c],
            (None, None) => ZERO,
        }
    }

    /// Stores entry `(i, j)`, which must lie in the cross.
    fn set(&mut self, i: usize, j: usize, entry: Entry) {
        match (self.row_slot[i], self.col_slot[j]) {
            (Some(r), _) => self.rows[r * self.k + j] = entry,
            (None, Some(c)) => self.cols[i * self.stride + c] = entry,
            (None, None) => unreachable!("entry ({i}, {j}) lies outside the hot cross"),
        }
    }

    /// Moves row `i` into the row store, if it is not there yet; the
    /// caller then writes all of its entries.
    fn activate_row(&mut self, i: usize) {
        if self.row_slot[i].is_none() {
            self.row_slot[i] = Some(self.rows.len() / self.k);
            self.rows.resize(self.rows.len() + self.k, ZERO);
        }
    }

    /// Activates column `j`. Its entries start at 0.0, the value of every
    /// entry outside the cross; slots run out by doubling the stride.
    fn activate_column(&mut self, j: usize) {
        if self.col_slot[j].is_some() {
            return;
        }
        let slot = self.active_cols.len();
        if slot == self.stride {
            let stride = (2 * self.stride).min(self.k);
            let mut cols = Vec::with_capacity(self.cols.len() / self.stride * stride);
            for row in self.cols.chunks_exact(self.stride) {
                cols.extend_from_slice(row);
                cols.resize(cols.len() + stride - self.stride, ZERO);
            }
            (self.cols, self.stride) = (cols, stride);
        }
        for row in self.cols.chunks_exact_mut(self.stride) {
            row[slot] = ZERO;
        }
        self.col_slot[j] = Some(slot);
        let at = self.active_cols.partition_point(|&(n, _)| n < j);
        self.active_cols.insert(at, (j, slot));
    }

    /// The entries of active row `slot`, by node.
    fn row(&self, slot: usize) -> &[Entry] {
        &self.rows[slot * self.k..(slot + 1) * self.k]
    }

    /// Entries held by both stores, spare column slots included.
    #[cfg(test)]
    fn stored_entries(&self) -> usize {
        self.rows.len() + self.cols.len()
    }

    /// Component `i`'s column-store entries over the active column slots
    /// (in slot order, not node order).
    fn col_entries(&self, i: usize) -> &[Entry] {
        let start = i * self.stride;
        &self.cols[start..start + self.active_cols.len()]
    }
}

/// One hypothetical node state under evaluation: see
/// [`PerformanceMatrix::prepare_what_if`].
#[derive(Debug, Default, Clone)]
struct NodeWhatIf {
    mean_u: ContentionVector,
    /// Per-class memo of the Eq. 1 service time under this state.
    service_times: [Option<f64>; CLASS_MEMO],
}

/// The slot of a stage not in [`EvalScratch::touched`].
const NO_SLOT: usize = usize::MAX;

/// Where a row's origin summary lives in [`EvalScratch::summaries`], and
/// the home-node state it was computed under. The fields are `u32` because
/// the table is allocated at every build: at 40 bytes a row instead of 20,
/// `elastic`'s perfbench peak RSS rose by 0.9 MB, 17%.
#[derive(Debug, Default, Clone, Copy)]
struct SummarySpan {
    start: u32,
    len: u32,
    /// Pairs the span can hold before it moves to the end of the buffer.
    cap: u32,
    /// The home node, and its version then (0: never computed).
    home: u32,
    version: u32,
}

/// The matrix's evaluation caches (see
/// [`PerformanceMatrix::evaluate_migration`]). Pure caching: entries are
/// bit-identical whatever the caches hold, so the build, the rebuild and
/// Algorithm 2 all share this one scratch.
///
/// Every cache is keyed by node versions: [`Self::node_changed`] bumps a
/// node's version, which invalidates both its current-state memo and the
/// origin summary of every row homed on it.
#[derive(Debug, Default, Clone)]
struct EvalScratch {
    /// Per node: bumped whenever its demand or residents change.
    version: Vec<u32>,
    /// Memoised *current-state* what-if per node (the Table III row-1
    /// evaluation every matrix row repeats against the same destination),
    /// valid while `current_at[j]` equals node `j`'s version.
    current: Vec<NodeWhatIf>,
    current_at: Vec<u32>,
    /// Per row: its origin summary's span in `summaries`.
    spans: Vec<SummarySpan>,
    /// Origin summaries, one span per row: `(stage, max)` pairs in
    /// first-occurrence order, the migrant's stage first (its max over the
    /// origin co-residents alone, `NEG_INFINITY` if none share its stage),
    /// then every stage of the co-residents' Table III row-2 latencies
    /// under `U − U_cᵢ`. They are the same for every column of the row.
    summaries: Vec<(usize, f64)>,
    /// Buffer for the hypothetical origin or destination state in use.
    hypothetical: NodeWhatIf,
    /// The touched stages of the entry or summary being folded, with their
    /// override maxima.
    touched: Vec<(usize, f64)>,
    /// Per stage: its position in `touched`, or `NO_SLOT`. All `NO_SLOT`
    /// between folds.
    slot: Vec<usize>,
}

impl EvalScratch {
    /// Sizes the caches for `m` components on `k` nodes over `stages`
    /// stages, all empty.
    fn fit(&mut self, m: usize, k: usize, stages: usize) {
        self.version = vec![1; k];
        self.current.resize_with(k, NodeWhatIf::default);
        self.current_at = vec![0; k];
        self.spans = vec![SummarySpan::default(); m];
        self.summaries.clear();
        self.slot = vec![NO_SLOT; stages];
    }

    /// Node `j`'s demand or residents changed: drop what was cached of it.
    fn node_changed(&mut self, j: usize) {
        self.version[j] += 1;
    }

    /// Folds latency `lat` of a stage-`stage` component into `touched`.
    #[inline]
    fn fold(&mut self, stage: usize, lat: f64) {
        match self.slot[stage] {
            NO_SLOT => {
                self.slot[stage] = self.touched.len();
                self.touched.push((stage, lat));
            }
            n => {
                let max = &mut self.touched[n].1;
                *max = max.max(lat);
            }
        }
    }

    /// Clears the stage slots `touched` set.
    fn clear_slots(&mut self) {
        for &(stage, _) in &self.touched {
            self.slot[stage] = NO_SLOT;
        }
    }
}

/// Per-component scheduling state.
#[derive(Debug, Clone)]
struct CompState {
    class: usize,
    stage: usize,
    demand: ResourceVector,
    arrival_rate: f64,
    scv: f64,
}

/// The m×k performance matrix with the state needed to maintain it.
#[derive(Debug, Clone)]
pub struct PerformanceMatrix {
    models: ClassModelSet,
    caps: Vec<NodeCapacity>,
    /// Aggregate demand per node (all resident programs); demand units.
    node_demand: Vec<ResourceVector>,
    comps: Vec<CompState>,
    /// `A[i]`: current hosting node per component.
    allocation: Vec<NodeId>,
    /// Residents per node (component ids).
    node_components: Vec<Vec<ComponentId>>,
    /// Predicted latency of each component at the current allocation.
    base_latency: Vec<f64>,
    /// Eq. 3/4 evaluation structure over `base_latency`.
    index: StageLatencyIndex,
    /// Per node: does it host a stage-max holder
    /// ([`StageLatencyIndex::stage_max_holders`])? Refreshed whenever
    /// `index` changes; entries with neither endpoint hot are pruned.
    hot_node: Vec<bool>,
    /// `L[i][j]` and the migrant's own latency reduction, stored over the
    /// hot cross only: the rows and columns that were hot at the last
    /// build or rebuild, plus those Algorithm 2 has refreshed since.
    cross: HotCross,
    /// Evaluation caches, sized at build.
    scratch: EvalScratch,
    /// Wall-clock time spent in the initial full build ("analysis time").
    build_time: Duration,
}

impl PerformanceMatrix {
    /// Builds the matrix from monitored inputs and trained class models.
    ///
    /// This is the "analysis" phase of the paper's scalability discussion:
    /// O(m·k) entries, each touching the residents of two nodes. Only
    /// entries with a hot endpoint (see [`Self::gain`]) are stored and
    /// evaluated, each in O(r) for the r residents of its origin and
    /// destination: one latency prediction per resident (memoised per
    /// class) and a linear Eq. 4 what-if
    /// ([`StageLatencyIndex::overall_what_if`]). The origin side is folded
    /// once per row and kept while the origin's state holds, so most
    /// entries predict only the migrant and the destination residents.
    ///
    /// # Panics
    /// Panics on inconsistent inputs (see [`MatrixInputs::validate`]) or a
    /// class index missing from `models`.
    pub fn build(inputs: &MatrixInputs, models: &ClassModelSet) -> Self {
        inputs.validate();
        let start = Instant::now();
        let m = inputs.component_count();
        let k = inputs.node_count();

        let caps: Vec<NodeCapacity> = inputs.nodes.iter().map(|n| n.capacity).collect();
        let node_demand: Vec<ResourceVector> = inputs.nodes.iter().map(|n| n.demand).collect();
        let comps: Vec<CompState> = inputs
            .components
            .iter()
            .map(|c| {
                // Fail fast on unknown classes.
                models
                    .get(c.class)
                    .unwrap_or_else(|e| panic!("component {}: {e}", c.id));
                CompState {
                    class: c.class,
                    stage: c.stage,
                    demand: c.demand,
                    arrival_rate: c.arrival_rate,
                    scv: c.scv,
                }
            })
            .collect();
        let allocation: Vec<NodeId> = inputs.components.iter().map(|c| c.node).collect();
        let mut node_components: Vec<Vec<ComponentId>> = vec![Vec::new(); k];
        for (i, c) in inputs.components.iter().enumerate() {
            node_components[c.node.index()].push(ComponentId::from_index(i));
        }

        let mut matrix = PerformanceMatrix {
            models: models.clone(),
            caps,
            node_demand,
            comps,
            allocation,
            node_components,
            base_latency: vec![0.0; m],
            // Placeholder; replaced right below once base latencies exist.
            index: StageLatencyIndex::build(&vec![0.0; m.max(1)], &vec![0; m.max(1)], 1),
            hot_node: vec![false; k],
            cross: HotCross::default(),
            scratch: EvalScratch::default(),
            build_time: Duration::ZERO,
        };
        matrix.refresh_base_latencies(inputs.stage_count);
        matrix.scratch.fit(m, k, inputs.stage_count);
        matrix.rebuild_entries();
        matrix.build_time = start.elapsed();
        matrix
    }

    /// Number of components `m`.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Number of nodes `k`.
    pub fn node_count(&self) -> usize {
        self.caps.len()
    }

    /// `L[i][j]`: predicted overall-latency reduction (seconds) for
    /// migrating component `i` to node `j`.
    ///
    /// Entries proven ≤ 0 read 0.0, self-gain included: when neither the
    /// component's node nor `j` hosts a stage-max holder, the move cannot
    /// lower any stage maximum, so it is neither evaluated nor stored. The
    /// greedy skips every entry ≤ 0 either way; [`Self::evaluate`] gives
    /// the exact value.
    #[inline]
    pub fn gain(&self, i: ComponentId, j: NodeId) -> f64 {
        self.cross.get(i.index(), j.index()).0
    }

    /// The migrant's own predicted latency reduction for entry `(i, j)`.
    #[inline]
    pub fn self_gain(&self, i: ComponentId, j: NodeId) -> f64 {
        self.cross.get(i.index(), j.index()).1
    }

    /// Current predicted overall service latency (Eq. 4), seconds.
    pub fn overall_latency(&self) -> f64 {
        self.index.overall()
    }

    /// Current predicted latency of one component, seconds.
    pub fn component_latency(&self, i: ComponentId) -> f64 {
        self.base_latency[i.index()]
    }

    /// Current component→node allocation (`A` in Algorithm 1).
    pub fn allocation(&self) -> &[NodeId] {
        &self.allocation
    }

    /// The components node `j` hosts now, in the order the Eq. 4 what-if
    /// folds them (a fresh build lists them by id; a migration appends its
    /// component to the destination and fills its gap at the origin with
    /// the origin's last resident).
    pub fn residents(&self, j: NodeId) -> &[ComponentId] {
        &self.node_components[j.index()]
    }

    /// Aggregate demand currently attributed to a node.
    pub fn node_demand(&self, j: NodeId) -> ResourceVector {
        self.node_demand[j.index()]
    }

    /// Wall-clock time of the construction ([`Self::build`]).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Finds the best migration per Algorithm 1 lines 6–7: build the set
    /// `SL` of entries whose value is within `tie_tolerance` (a fraction,
    /// see [`crate::SchedulerConfig::tie_tolerance`]) of the largest, then
    /// pick the entry in `SL` with the largest reduction of the migrated
    /// component's own latency. Only rows whose component is still a
    /// candidate are considered. Returns `None` if no candidate entry has
    /// positive gain.
    ///
    /// Only stored entries are scanned: an active row in full, any other
    /// row over the active columns. Pass 2 visits them in row-major order,
    /// so a self-gain tie goes to the first entry, as over the full matrix.
    pub fn best_candidate(&self, candidates: &[bool], tie_tolerance: f64) -> Option<BestEntry> {
        assert_eq!(candidates.len(), self.component_count());
        let cross = &self.cross;
        let rows = candidates
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| c.then_some((i, cross.row_slot[i])));
        // Pass 1 (line 6): the largest entry value.
        let mut max_gain = 0.0_f64;
        for (i, slot) in rows.clone() {
            let entries = match slot {
                Some(r) => cross.row(r),
                None => cross.col_entries(i),
            };
            max_gain = entries.iter().fold(max_gain, |max, e| max.max(e.0));
        }
        if max_gain <= 0.0 {
            return None;
        }
        // Pass 2 (line 7): among the tie set, the largest self-reduction.
        let threshold = max_gain * (1.0 - tie_tolerance.clamp(0.0, 1.0));
        let mut best: Option<BestEntry> = None;
        let mut consider = |i: usize, j: usize, (gain, self_gain): Entry| {
            if gain < threshold || gain <= 0.0 {
                return;
            }
            let entry = BestEntry {
                component: ComponentId::from_index(i),
                destination: NodeId::from_index(j),
                gain,
                self_gain,
            };
            best = Some(match best {
                None => entry,
                Some(b) if entry.self_gain > b.self_gain => entry,
                Some(b) => b,
            });
        };
        for (i, slot) in rows {
            match slot {
                Some(r) => {
                    for (j, &e) in cross.row(r).iter().enumerate() {
                        consider(i, j, e);
                    }
                }
                None => {
                    let entries = cross.col_entries(i);
                    for &(j, c) in &cross.active_cols {
                        consider(i, j, entries[c]);
                    }
                }
            }
        }
        best
    }

    /// Applies an accepted migration (Algorithm 1 lines 10–13): moves the
    /// component, refreshes the affected base latencies, and incrementally
    /// updates the matrix per Algorithm 2. `candidates` marks components
    /// still eligible for migration (rows of removed components are left
    /// stale, exactly as the paper prescribes: "all the entries related to
    /// c_cmax are not updated").
    ///
    /// Returns the origin node.
    pub fn apply_migration(
        &mut self,
        i: ComponentId,
        destination: NodeId,
        candidates: &[bool],
    ) -> NodeId {
        let origin = self.allocation[i.index()];
        assert_ne!(origin, destination, "migration must change the node");
        let d_ci = self.comps[i.index()].demand;

        // Move the component (and drop what is cached of the two touched
        // nodes — their demand and residents just changed).
        self.node_demand[origin.index()] = self.node_demand[origin.index()].saturating_sub(&d_ci);
        self.node_demand[destination.index()] += d_ci;
        self.scratch.node_changed(origin.index());
        self.scratch.node_changed(destination.index());
        let residents = &mut self.node_components[origin.index()];
        let pos = residents
            .iter()
            .position(|&c| c == i)
            .expect("component resident on its allocation node");
        residents.swap_remove(pos);
        self.node_components[destination.index()].push(i);
        self.allocation[i.index()] = destination;

        // Refresh base latencies of every component on the two touched
        // nodes (their monitored contention changed); residents of one
        // node share a what-if, so each class's service time is predicted
        // once.
        let mut changes: Vec<(ComponentId, f64)> = Vec::new();
        for node in [origin, destination] {
            let demand = self.node_demand[node.index()];
            let mut state = self.what_if(node, demand);
            for &c in &self.node_components[node.index()] {
                let lat = self.latency_with(&mut state, c);
                self.base_latency[c.index()] = lat;
                changes.push((c, lat));
            }
        }
        self.index.apply(&changes);
        self.refresh_hot_nodes();

        self.update_matrix(origin, destination, candidates);
        origin
    }

    /// Algorithm 2 (`UpdateMatrix`): after a migration from `origin` to
    /// `destination`,
    ///
    /// 1. entries in the origin and destination *columns* are recomputed
    ///    for every candidate row (components migrating onto those nodes
    ///    see different contention now), and
    /// 2. every candidate row whose component is hosted on the origin or
    ///    destination node is recomputed in full (those components'
    ///    current latencies — hence the gain of migrating them anywhere —
    ///    changed).
    ///
    /// Each entry is evaluated once: a row refreshed in full already covers
    /// its origin and destination columns.
    ///
    /// Both columns join the hot cross, and so does every row refreshed in
    /// full; an entry of a new column outside the rows it refreshes keeps
    /// the 0.0 it held before.
    fn update_matrix(&mut self, origin: NodeId, destination: NodeId, candidates: &[bool]) {
        let k = self.node_count();
        self.cross.activate_column(origin.index());
        self.cross.activate_column(destination.index());
        self.with_scratch(|m, scratch| {
            for (i, _) in candidates.iter().enumerate().filter(|(_, &c)| c) {
                let home = m.allocation[i];
                if home == origin || home == destination {
                    m.cross.activate_row(i);
                    m.fill_row(scratch, i, 0..k);
                } else {
                    m.fill_row(scratch, i, [origin.index(), destination.index()]);
                }
            }
        });
    }

    /// Recomputes every entry from current state: the naïve alternative to
    /// Algorithm 2, and the path of [`Self::build`] and of the full-rebuild
    /// ablation. The hot cross is reset to the nodes hot now, then each
    /// stored entry is written as Algorithm 2 writes it: an active row in
    /// full, any other row over the hot columns.
    pub fn rebuild_entries(&mut self) {
        self.cross.reset(&self.allocation, &self.hot_node);
        let k = self.node_count();
        let hot: Vec<usize> = (0..k).filter(|&j| self.hot_node[j]).collect();
        self.with_scratch(|m, scratch| {
            for i in 0..m.component_count() {
                if m.cross.row_slot[i].is_some() {
                    m.fill_row(scratch, i, 0..k);
                } else {
                    m.fill_row(scratch, i, hot.iter().copied());
                }
            }
        });
    }

    /// Runs `f` on the matrix with its scratch lent out beside it.
    fn with_scratch<R>(&mut self, f: impl FnOnce(&mut Self, &mut EvalScratch) -> R) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = f(self, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// Evaluates row `i`'s entries at `nodes` and stores them in the cross:
    /// the one path that writes matrix entries.
    fn fill_row(
        &mut self,
        scratch: &mut EvalScratch,
        i: usize,
        nodes: impl IntoIterator<Item = usize>,
    ) {
        let ci = ComponentId::from_index(i);
        for j in nodes {
            let entry = self.entry(scratch, ci, NodeId::from_index(j));
            self.cross.set(i, j, entry);
        }
    }

    /// `(L[i][j], self-gain)` from current state: zero for the component's
    /// own node and for pruned entries, Eq. 5 elsewhere.
    ///
    /// An entry is pruned when neither the origin nor `j` is hot. Its
    /// overrides (the migrant, the origin co-residents, `j`'s residents)
    /// then hold no stage's maximum, so every stage it touches keeps its
    /// top latency unoverridden, each `new_max − old_max` term of
    /// [`StageLatencyIndex::overall_what_if`] is ≥ 0, and the exact gain
    /// is ≤ 0 in IEEE arithmetic.
    fn entry(&self, scratch: &mut EvalScratch, i: ComponentId, j: NodeId) -> (f64, f64) {
        let origin = self.allocation[i.index()];
        if origin == j || !(self.hot_node[origin.index()] || self.hot_node[j.index()]) {
            (0.0, 0.0)
        } else {
            self.evaluate_migration(scratch, i, j)
        }
    }

    /// The exact `(L[i][j], self-gain)` from current state, evaluated even
    /// where the stored entry is pruned (see [`Self::gain`]) or stale (a
    /// row Algorithm 2 no longer refreshes): zero for the component's own
    /// node, Eq. 5 elsewhere.
    pub fn evaluate(&mut self, i: ComponentId, j: NodeId) -> (f64, f64) {
        if self.allocation[i.index()] == j {
            return (0.0, 0.0);
        }
        self.with_scratch(|m, scratch| m.evaluate_migration(scratch, i, j))
    }

    /// The exact self-gain of migrating `i` to `j` from current state (the
    /// second half of [`Self::evaluate`]): Table III row 1 only, with no
    /// Eq. 4 what-if, so a whole row is cheap to scan. Zero for the
    /// component's own node.
    pub fn migrant_self_gain(&mut self, i: ComponentId, j: NodeId) -> f64 {
        if self.allocation[i.index()] == j {
            return 0.0;
        }
        let li_new = self.with_scratch(|m, scratch| m.migrant_latency(scratch, i, j));
        self.base_latency[i.index()] - li_new
    }

    /// Component `i`'s latency on node `j` under Table III row 1: the
    /// destination's pre-migration aggregate. That state is shared by every
    /// row of the destination's matrix column, so it comes from the
    /// per-node memo.
    fn migrant_latency(&self, scratch: &mut EvalScratch, i: ComponentId, j: NodeId) -> f64 {
        let (node, version) = (j.index(), scratch.version[j.index()]);
        let dest_now = &mut scratch.current[node];
        if scratch.current_at[node] != version {
            self.prepare_what_if(j, self.node_demand[node], dest_now);
            scratch.current_at[node] = version;
        }
        self.latency_with(dest_now, i)
    }

    /// Evaluates Eq. 5 for a candidate migration. Read-only but for the
    /// caches in `scratch`, which must be sized for this matrix.
    ///
    /// The entry overrides exactly the residents of its two nodes (Table
    /// III), so the Eq. 4 what-if names them by their node and folds their
    /// latencies per stage: the row's origin summary with the migrant's
    /// new latency, then the destination residents under `U + U_cᵢ`, in
    /// the stage order of the override list the paper describes.
    fn evaluate_migration(
        &self,
        scratch: &mut EvalScratch,
        i: ComponentId,
        j: NodeId,
    ) -> (f64, f64) {
        let origin = self.allocation[i.index()];
        debug_assert_ne!(origin, j, "a what-if must move {i} off its node");
        let li_new = self.migrant_latency(scratch, i, j);

        // Table III rows 1–2: the row's origin summary, with the migrant's
        // new latency folded into its stage.
        let summary = self.origin_summary(scratch, i);
        scratch.touched.clear();
        for n in summary {
            let (stage, max) = scratch.summaries[n];
            scratch.fold(stage, max);
        }
        scratch.fold(self.comps[i.index()].stage, li_new);
        // Row 3: the destination residents under `U + U_cᵢ`. An empty
        // destination has nobody to re-evaluate.
        let residents = &self.node_components[j.index()];
        if !residents.is_empty() {
            let d_ci = self.comps[i.index()].demand;
            self.prepare_what_if(
                j,
                self.node_demand[j.index()] + d_ci,
                &mut scratch.hypothetical,
            );
            for &c in residents {
                let lat = self.latency_with(&mut scratch.hypothetical, c);
                scratch.fold(self.comps[c.index()].stage, lat);
            }
        }
        let allocation = &self.allocation;
        let l_overall_new = self.index.overall_what_if(&scratch.touched, |c| {
            let node = allocation[c.index()];
            node == origin || node == j
        });
        scratch.clear_slots();
        let gain = self.index.overall() - l_overall_new;
        let self_gain = self.base_latency[i.index()] - li_new;
        (gain, self_gain)
    }

    /// Row `i`'s origin summary (see [`EvalScratch::summaries`]) as a range
    /// of `scratch.summaries`, folded again only when the origin's version
    /// moved on since it was last folded.
    fn origin_summary(&self, scratch: &mut EvalScratch, i: ComponentId) -> Range<usize> {
        let home = self.allocation[i.index()];
        let version = scratch.version[home.index()];
        let mut span = scratch.spans[i.index()];
        if span.home as usize != home.index() || span.version != version {
            scratch.touched.clear();
            scratch.fold(self.comps[i.index()].stage, f64::NEG_INFINITY);
            // Table III row 2: the co-residents under `U − U_cᵢ`. A migrant
            // living alone has nobody to re-evaluate.
            let residents = &self.node_components[home.index()];
            if residents.len() > 1 {
                let d_ci = self.comps[i.index()].demand;
                let demand = self.node_demand[home.index()].saturating_sub(&d_ci);
                self.prepare_what_if(home, demand, &mut scratch.hypothetical);
                for &c in residents.iter().filter(|&&c| c != i) {
                    let lat = self.latency_with(&mut scratch.hypothetical, c);
                    scratch.fold(self.comps[c.index()].stage, lat);
                }
            }
            scratch.clear_slots();
            let len = scratch.touched.len();
            if len > span.cap as usize {
                // Outgrew its span: move to the end of the buffer.
                (span.start, span.cap) = (scratch.summaries.len() as u32, len as u32);
                scratch.summaries.extend_from_slice(&scratch.touched);
            } else {
                scratch.summaries[span.start as usize..span.start as usize + len]
                    .copy_from_slice(&scratch.touched);
            }
            span = SummarySpan {
                len: len as u32,
                home: home.index() as u32,
                version,
                ..span
            };
            scratch.spans[i.index()] = span;
        }
        span.start as usize..(span.start + span.len) as usize
    }

    /// A fresh [`NodeWhatIf`]: see [`Self::prepare_what_if`].
    fn what_if(&self, node: NodeId, demand: ResourceVector) -> NodeWhatIf {
        let mut what_if = NodeWhatIf::default();
        self.prepare_what_if(node, demand, &mut what_if);
        what_if
    }

    /// Prepares, in `out`, the evaluation of one hypothetical node state
    /// ("what if node `node` carried aggregate demand `demand`"): the
    /// normalised contention and an empty per-class service-time memo.
    fn prepare_what_if(&self, node: NodeId, demand: ResourceVector, out: &mut NodeWhatIf) {
        out.mean_u = self.caps[node.index()].normalize(&demand);
        out.service_times = [None; CLASS_MEMO];
    }

    /// Predicts component `c`'s latency under a prepared node state,
    /// memoising the class-level Eq. 1 service time — a pure function of
    /// `(class, node state)`, so replaying it for co-resident components
    /// of the same class is bit-identical to recomputing.
    fn latency_with(&self, what_if: &mut NodeWhatIf, c: ComponentId) -> f64 {
        let state = &self.comps[c.index()];
        let service_time = match what_if.service_times.get(state.class) {
            Some(Some(x)) => *x,
            slot => {
                let x = self
                    .models
                    .service_time(state.class, &what_if.mean_u)
                    .expect("class validated at build time");
                if slot.is_some() {
                    what_if.service_times[state.class] = Some(x);
                }
                x
            }
        };
        mg1_latency(service_time, state.arrival_rate, state.scv)
    }

    /// Recomputes every base latency and the Eq. 3/4 index from scratch.
    fn refresh_base_latencies(&mut self, stage_count: usize) {
        // Node by node, so co-residents share one what-if (and its
        // per-class service-time memo). Order is irrelevant: each base
        // latency is a pure function of its component and node state.
        let mut base = std::mem::take(&mut self.base_latency);
        for j in 0..self.node_count() {
            let node = NodeId::from_index(j);
            let mut state = self.what_if(node, self.node_demand[j]);
            for &c in &self.node_components[j] {
                base[c.index()] = self.latency_with(&mut state, c);
            }
        }
        self.base_latency = base;
        let stages: Vec<usize> = self.comps.iter().map(|c| c.stage).collect();
        self.index = StageLatencyIndex::build(&self.base_latency, &stages, stage_count);
        self.refresh_hot_nodes();
    }

    /// Recomputes `hot_node` from the index: a node is hot when it hosts a
    /// stage-max holder.
    fn refresh_hot_nodes(&mut self) {
        self.hot_node.fill(false);
        for c in self.index.stage_max_holders() {
            self.hot_node[self.allocation[c.index()].index()] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{ComponentInput, NodeInput};
    use pcs_regression::{CombinedServiceTimeModel, SampleSet};

    /// Trains a model where service time is 1 ms · (1 + core usage):
    /// simple, exactly learnable, easy to reason about in assertions.
    fn linear_model() -> ClassModelSet {
        let mut set = SampleSet::new();
        for i in 0..50 {
            let t = i as f64 / 50.0 * 2.0;
            set.push(ContentionVector::new(t, 0.0, 0.0, 0.0), 0.001 * (1.0 + t));
        }
        let model = CombinedServiceTimeModel::train(&set, 2).unwrap();
        ClassModelSet::new(vec![model])
    }

    /// Two nodes; node 0 is loaded (8 cores demanded), node 1 idle.
    /// Two single-stage components, both on node 0, λ = 0 (pure service
    /// time — no queueing) so assertions are exact.
    fn two_node_inputs() -> MatrixInputs {
        let comp_demand = ResourceVector::new(1.0, 0.0, 0.0, 0.0);
        MatrixInputs {
            nodes: vec![
                NodeInput {
                    id: NodeId::new(0),
                    capacity: NodeCapacity::new(12.0, 200.0, 125.0),
                    demand: ResourceVector::new(8.0, 0.0, 0.0, 0.0),
                },
                NodeInput {
                    id: NodeId::new(1),
                    capacity: NodeCapacity::new(12.0, 200.0, 125.0),
                    demand: ResourceVector::ZERO,
                },
            ],
            components: vec![
                ComponentInput {
                    id: ComponentId::new(0),
                    class: 0,
                    stage: 0,
                    node: NodeId::new(0),
                    demand: comp_demand,
                    arrival_rate: 0.0,
                    scv: 1.0,
                },
                ComponentInput {
                    id: ComponentId::new(1),
                    class: 0,
                    stage: 0,
                    node: NodeId::new(0),
                    demand: comp_demand,
                    arrival_rate: 0.0,
                    scv: 1.0,
                },
            ],
            stage_count: 1,
        }
    }

    #[test]
    fn base_latency_reflects_node_load() {
        let models = linear_model();
        let m = PerformanceMatrix::build(&two_node_inputs(), &models);
        // Node 0 usage: 8/12 = 0.667 → x = 1ms · 1.667.
        let expected = 0.001 * (1.0 + 8.0 / 12.0);
        let got = m.component_latency(ComponentId::new(0));
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got}, expected ~{expected}"
        );
        // Single stage, two components → overall = max of the two.
        assert!(
            (m.overall_latency() - got.max(m.component_latency(ComponentId::new(1)))).abs() < 1e-12
        );
    }

    #[test]
    fn moving_to_idle_node_has_positive_gain() {
        let models = linear_model();
        let m = PerformanceMatrix::build(&two_node_inputs(), &models);
        let gain = m.gain(ComponentId::new(0), NodeId::new(1));
        // Migrant latency at idle node: 1ms (usage 0, Table III: U_nj).
        // But the stage max is the *other* component, which improves to
        // 1ms·(1 + 7/12). Overall drops from 1.667ms to ~1.583ms.
        let before = 0.001 * (1.0 + 8.0 / 12.0);
        let after = 0.001 * (1.0 + 7.0 / 12.0);
        assert!(
            (gain - (before - after)).abs() < 1e-5,
            "gain {gain}, expected ~{}",
            before - after
        );
        assert!(gain > 0.0);
    }

    #[test]
    fn self_column_is_zero() {
        let models = linear_model();
        let m = PerformanceMatrix::build(&two_node_inputs(), &models);
        assert_eq!(m.gain(ComponentId::new(0), NodeId::new(0)), 0.0);
        assert_eq!(m.self_gain(ComponentId::new(1), NodeId::new(0)), 0.0);
    }

    #[test]
    fn self_gain_is_migrants_own_reduction() {
        let models = linear_model();
        let m = PerformanceMatrix::build(&two_node_inputs(), &models);
        let sg = m.self_gain(ComponentId::new(0), NodeId::new(1));
        // Own latency: 1.667ms on node 0 → 1.0ms on idle node 1 (U_nj = 0).
        let expected = 0.001 * (8.0 / 12.0);
        assert!((sg - expected).abs() < 1e-5, "self gain {sg}");
    }

    /// An entry's what-if overrides the residents of its two nodes, so the
    /// two must differ: an entry on the component's own node reads 0.0 and
    /// is never evaluated, and evaluating one anyway fails in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must move")]
    fn a_what_if_onto_the_home_node_is_rejected() {
        let m = PerformanceMatrix::build(&two_node_inputs(), &linear_model());
        let mut scratch = m.scratch.clone();
        let _ = m.evaluate_migration(&mut scratch, ComponentId::new(0), NodeId::new(0));
    }

    #[test]
    fn apply_migration_moves_demand_and_updates_state() {
        let models = linear_model();
        let mut m = PerformanceMatrix::build(&two_node_inputs(), &models);
        let candidates = vec![true, true];
        let before_overall = m.overall_latency();
        let origin = m.apply_migration(ComponentId::new(0), NodeId::new(1), &candidates);
        assert_eq!(origin, NodeId::new(0));
        assert_eq!(m.allocation()[0], NodeId::new(1));
        assert!((m.node_demand(NodeId::new(0)).cores - 7.0).abs() < 1e-12);
        assert!((m.node_demand(NodeId::new(1)).cores - 1.0).abs() < 1e-12);
        assert!(
            m.overall_latency() < before_overall,
            "overall latency must improve after a positive-gain migration"
        );
        // Post-migration, the migrant's base latency includes its own
        // demand on the destination (monitored semantics).
        let expected = 0.001 * (1.0 + 1.0 / 12.0);
        let got = m.component_latency(ComponentId::new(0));
        assert!((got - expected).abs() < 1e-5, "got {got}");
    }

    #[test]
    fn update_matrix_matches_full_rebuild_on_touched_entries() {
        let models = linear_model();
        let mut incremental = PerformanceMatrix::build(&two_node_inputs(), &models);
        let candidates = vec![false, true]; // component 0 gets migrated
        incremental.apply_migration(ComponentId::new(0), NodeId::new(1), &candidates);

        let mut rebuilt = incremental.clone();
        rebuilt.rebuild_entries();

        // Candidate rows and touched columns must agree exactly.
        for j in 0..2 {
            let jn = NodeId::from_index(j);
            assert!(
                (incremental.gain(ComponentId::new(1), jn) - rebuilt.gain(ComponentId::new(1), jn))
                    .abs()
                    < 1e-15,
                "candidate row must be fresh after UpdateMatrix"
            );
        }
    }

    /// Bitwise equality of everything scheduling reads from two matrices.
    fn assert_bit_identical(a: &PerformanceMatrix, b: &PerformanceMatrix) {
        assert_eq!(a.overall_latency().to_bits(), b.overall_latency().to_bits());
        for i in 0..a.component_count() {
            let ci = ComponentId::from_index(i);
            assert_eq!(
                a.component_latency(ci).to_bits(),
                b.component_latency(ci).to_bits(),
                "base latency of component {i}"
            );
            for j in 0..a.node_count() {
                let jn = NodeId::from_index(j);
                assert_eq!(
                    a.gain(ci, jn).to_bits(),
                    b.gain(ci, jn).to_bits(),
                    "gain entry ({i}, {j})"
                );
                assert_eq!(
                    a.self_gain(ci, jn).to_bits(),
                    b.self_gain(ci, jn).to_bits(),
                    "self-gain entry ({i}, {j})"
                );
            }
        }
    }

    /// `m` components on `k` nodes over `stage_count` stages, with node 0
    /// pinned at the saturating demand a dead node is given.
    fn wide_inputs(m: usize, k: usize, stage_count: usize) -> MatrixInputs {
        let nodes = (0..k)
            .map(|j| {
                let demand = if j == 0 {
                    ResourceVector::new(48.0, 0.0, 800.0, 500.0)
                } else {
                    ResourceVector::new((j % 7) as f64, 0.0, (j % 5) as f64 * 10.0, 0.0)
                };
                NodeInput {
                    id: NodeId::from_index(j),
                    capacity: NodeCapacity::new(12.0, 200.0, 125.0),
                    demand,
                }
            })
            .collect();
        let components = (0..m)
            .map(|i| ComponentInput {
                id: ComponentId::from_index(i),
                class: 0,
                stage: i % stage_count,
                node: NodeId::from_index(i * 7 % k),
                demand: ResourceVector::new(0.5 + (i % 4) as f64 * 0.1, 0.0, 1.0, 0.0),
                arrival_rate: 20.0 + (i % 9) as f64,
                scv: 1.0,
            })
            .collect();
        MatrixInputs {
            nodes,
            components,
            stage_count,
        }
    }

    #[test]
    fn rebuild_rewrites_every_stored_entry() {
        let models = linear_model();
        // 191 rows × 180 columns. With a stage per component every node is
        // hot, so every row is in the row store; with three stages most rows
        // are filled over the hot columns; and a single row.
        for (m, k, stages) in [(191, 180, 191), (191, 180, 3), (1, 40, 1)] {
            let built = PerformanceMatrix::build(&wide_inputs(m, k, stages), &models);
            let mut rebuilt = built.clone();
            // Poison every stored entry so one the rebuild missed shows up.
            rebuilt.cross.rows.fill((f64::NAN, f64::NAN));
            rebuilt.cross.cols.fill((f64::NAN, f64::NAN));
            rebuilt.rebuild_entries();
            assert_bit_identical(&rebuilt, &built);
        }
    }

    #[test]
    fn a_mostly_cold_matrix_stores_a_small_cross() {
        let models = linear_model();
        let (m, k) = (1000, 1000);
        let mut inputs = wide_inputs(m, k, 3);
        // Distinct node loads, so that few latencies tie at a stage's top.
        for (j, node) in inputs.nodes.iter_mut().enumerate().skip(1) {
            node.demand = ResourceVector::new(j as f64 * 0.01, 0.0, 0.0, 0.0);
        }
        let built = PerformanceMatrix::build(&inputs, &models);
        let hot = built.hot_node.iter().filter(|&&h| h).count();
        assert!((1..=8).contains(&hot), "{hot} hot nodes");
        let stored = built.cross.stored_entries();
        assert!(stored * 20 < m * k, "{stored} of {} entries stored", m * k);
    }

    /// A column that joins the cross after another with a higher node index
    /// takes a later slot, yet a row outside the row store is still scanned
    /// in node order: of two entries tied on gain and self-gain, the one in
    /// the lower column wins, as in a row-major scan of the full matrix.
    #[test]
    fn best_candidate_breaks_column_store_ties_in_node_order() {
        let models = linear_model();
        let mut m = PerformanceMatrix::build(&wide_inputs(40, 30, 3), &models);
        let row = (0..40).find(|&i| m.cross.row_slot[i].is_none()).unwrap();
        let mut cold = (0..30).filter(|&j| m.cross.col_slot[j].is_none());
        let (low, high) = (cold.next().unwrap(), cold.next().unwrap());
        m.cross.activate_column(high);
        m.cross.activate_column(low);
        assert!(m.cross.col_slot[low] > m.cross.col_slot[high]);
        for j in [high, low] {
            m.cross.set(row, j, (1.0, 1.0));
        }
        let best = m.best_candidate(&[true; 40], 0.05).unwrap();
        assert_eq!(
            (best.component, best.destination),
            (ComponentId::from_index(row), NodeId::from_index(low))
        );
    }

    #[test]
    fn best_candidate_prefers_larger_gain() {
        let models = linear_model();
        let m = PerformanceMatrix::build(&two_node_inputs(), &models);
        let best = m.best_candidate(&[true, true], 0.25).unwrap();
        assert_eq!(best.destination, NodeId::new(1));
        assert!(best.gain > 0.0);
    }

    #[test]
    fn best_candidate_respects_candidate_mask() {
        let models = linear_model();
        let m = PerformanceMatrix::build(&two_node_inputs(), &models);
        let best = m.best_candidate(&[false, true], 0.25).unwrap();
        assert_eq!(best.component, ComponentId::new(1));
        assert!(m.best_candidate(&[false, false], 0.25).is_none());
    }
}
