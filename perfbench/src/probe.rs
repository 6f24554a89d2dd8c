//! Timing delegates around a technique's scheduler hook and dispatch
//! policy, and the in-memory span tree of a traced batch.
//!
//! The delegates forward every call unchanged and only read the clock
//! around it, so a wrapped run follows the bare run's trajectory byte for
//! byte (the tests and every traced run check this by digest).

use pcs_harness::Json;
use pcs_sim::{
    DispatchPolicy, IntervalAudit, MigrationRequest, SchedulerContext, SchedulerCost, SchedulerHook,
};
use pcs_types::{ComponentId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One `on_interval` call of a wrapped hook.
#[derive(Debug, Clone, Copy)]
pub struct HookCall {
    /// Host clock when the call began.
    pub start: Instant,
    /// Host time the call took.
    pub dur: Duration,
    /// Simulated time of the interval.
    pub at: SimTime,
    /// Migration orders the hook returned.
    pub orders: usize,
}

/// A scheduler hook that records a [`HookCall`] per interval.
pub struct TimedHook {
    inner: Box<dyn SchedulerHook>,
    calls: Rc<RefCell<Vec<HookCall>>>,
}

impl TimedHook {
    /// Wraps `inner`; the returned log fills as the simulation runs.
    pub fn wrap(inner: Box<dyn SchedulerHook>) -> (Self, Rc<RefCell<Vec<HookCall>>>) {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let hook = TimedHook {
            inner,
            calls: Rc::clone(&calls),
        };
        (hook, calls)
    }
}

impl SchedulerHook for TimedHook {
    fn on_interval(&mut self, ctx: &SchedulerContext<'_>) -> Vec<MigrationRequest> {
        let start = Instant::now();
        let orders = self.inner.on_interval(ctx);
        let dur = start.elapsed();
        self.calls.borrow_mut().push(HookCall {
            start,
            dur,
            at: ctx.now,
            orders: orders.len(),
        });
        orders
    }

    fn wants_context(&self) -> bool {
        self.inner.wants_context()
    }

    fn cost(&self) -> Option<SchedulerCost> {
        self.inner.cost()
    }

    fn enable_audit(&mut self) {
        self.inner.enable_audit();
    }

    fn take_interval_audit(&mut self) -> Option<IntervalAudit> {
        self.inner.take_interval_audit()
    }
}

/// One policy call in this many is timed; the rest are only counted.
/// Reading the clock around each of the millions of calls a run makes
/// would cost more than most of the calls themselves.
const POLICY_SAMPLE_EVERY: u64 = 32;

/// Calls into a wrapped dispatch policy, aggregated rather than kept as
/// spans (a run makes millions of them).
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyTotals {
    /// Calls to `initial_targets`, `reissue_delay` and
    /// `observe_latency`.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host time inside the timed calls.
    pub sampled_busy: Duration,
}

/// What reading the clock twice costs with nothing in between (the
/// median of many tries), taken off every timed policy call.
fn clock_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut samples: Vec<Duration> = (0..1001)
            .map(|_| {
                let start = Instant::now();
                start.elapsed()
            })
            .collect();
        samples.sort();
        samples[samples.len() / 2]
    })
}

impl PolicyTotals {
    /// Estimated host time inside all calls: the timed calls' mean
    /// scaled to every call.
    pub fn busy(&self) -> Duration {
        if self.sampled == 0 {
            Duration::ZERO
        } else {
            self.sampled_busy
                .mul_f64(self.calls as f64 / self.sampled as f64)
        }
    }
}

/// A dispatch policy that counts its per-sub-request calls and times a
/// sample of them.
pub struct TimedPolicy {
    inner: Box<dyn DispatchPolicy>,
    totals: Rc<Cell<PolicyTotals>>,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned totals fill as the simulation runs.
    pub fn wrap(inner: Box<dyn DispatchPolicy>) -> (Self, Rc<Cell<PolicyTotals>>) {
        let totals = Rc::new(Cell::new(PolicyTotals::default()));
        let policy = TimedPolicy {
            inner,
            totals: Rc::clone(&totals),
        };
        (policy, totals)
    }

    fn timed<T>(&mut self, call: impl FnOnce(&mut dyn DispatchPolicy) -> T) -> T {
        let mut totals = self.totals.get();
        totals.calls += 1;
        if !totals.calls.is_multiple_of(POLICY_SAMPLE_EVERY) {
            self.totals.set(totals);
            return call(self.inner.as_mut());
        }
        let start = Instant::now();
        let out = call(self.inner.as_mut());
        totals.sampled += 1;
        totals.sampled_busy += start.elapsed().saturating_sub(clock_cost());
        self.totals.set(totals);
        out
    }
}

impl DispatchPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn replication(&self) -> usize {
        self.inner.replication()
    }

    fn initial_targets(
        &mut self,
        replicas: &[ComponentId],
        rng: &mut SmallRng,
        out: &mut Vec<ComponentId>,
    ) {
        self.timed(|p| p.initial_targets(replicas, rng, out));
    }

    fn reissue_delay(&mut self, class: usize) -> Option<SimDuration> {
        self.timed(|p| p.reissue_delay(class))
    }

    fn reissues(&self) -> bool {
        self.inner.reissues()
    }

    fn observe_latency(&mut self, class: usize, latency: SimDuration) {
        self.timed(|p| p.observe_latency(class, latency));
    }

    fn cancel_on_start(&self) -> bool {
        self.inner.cancel_on_start()
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`train`, `sim_setup`, a cell label, …).
    pub name: String,
    /// The layer the span times.
    pub layer: &'static str,
    /// Host clock at the start.
    pub start: Instant,
    /// Host time taken.
    pub dur: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Extra key/values for the trace viewer.
    pub args: Vec<(String, Json)>,
}

/// The spans of one traced batch, in the order they opened.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span; a parent always precedes its children.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a closed span and returns its index.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start,
            dur,
            parent,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// A span's duration minus the part its children cover (children
    /// run sequentially inside their parent, so they never overlap).
    pub fn self_time(&self, index: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.dur)
            .sum();
        self.spans[index].dur.saturating_sub(children)
    }

    /// Total self time of every span of `layer`.
    pub fn layer_self_time(&self, layer: &str) -> Duration {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].layer == layer)
            .map(|i| self.self_time(i))
            .sum()
    }

    /// The spans in the Chrome trace-event format (one complete `"X"`
    /// event per span, microsecond times relative to the first span;
    /// load the file in Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self, process: &str) -> Json {
        let Some(origin) = self.spans.first().map(|s| s.start) else {
            return Json::object(vec![("traceEvents".into(), Json::Array(Vec::new()))]);
        };
        let micros = |d: Duration| d.as_secs_f64() * 1e6;
        let mut events = vec![Json::object(vec![
            ("name".into(), "process_name".into()),
            ("ph".into(), "M".into()),
            ("pid".into(), 0u64.into()),
            ("tid".into(), 0u64.into()),
            (
                "args".into(),
                Json::object(vec![("name".into(), process.into())]),
            ),
        ])];
        for (index, span) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("self_us".to_string(), micros(self.self_time(index)).into()),
                (
                    "parent".to_string(),
                    span.parent.map_or(Json::Null, |p| p.into()),
                ),
            ];
            args.extend(span.args.iter().cloned());
            events.push(Json::object(vec![
                ("name".into(), span.name.as_str().into()),
                ("cat".into(), span.layer.into()),
                ("ph".into(), "X".into()),
                ("ts".into(), micros(span.start - origin).into()),
                ("dur".into(), micros(span.dur).into()),
                ("pid".into(), 0u64.into()),
                ("tid".into(), 0u64.into()),
                ("args".into(), Json::object(args)),
            ]));
        }
        Json::object(vec![("traceEvents".into(), Json::Array(events))])
    }
}
