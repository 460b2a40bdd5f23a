//! A forwarding [`TraceSet`] that counts and times the replay engine's
//! calls into the trace-decode layer.
//!
//! [`CountingSet`] wraps any trace set (the benchmark wraps the
//! production `InternedSet`) and forwards every call unchanged, so a
//! replay through it runs the same program; `tests/wrapper_identity.rs`
//! checks that replays through it serialize byte-identical to replays of
//! the bare set under all five schedulers.
//!
//! Every call is counted. One call in [`SAMPLE_EVERY`] per method is also
//! timed, and the decode layer's self time is estimated as
//! `(mean sampled ns - timer overhead) x calls`, where the timer overhead
//! is the calibrated cost of an empty timed region. Sampling keeps the
//! clock reads off most calls; the traced run reports the residual
//! overhead against untraced replays.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use addict_trace::event::FlatEvent;
use addict_trace::{DataRun, Fetched, TraceSet, XctTypeId};

/// One timed call in this many, per method.
pub const SAMPLE_EVERY: u64 = 8;

/// Call statistics of one forwarded method. Counters are statistics
/// only, so `Relaxed` suffices.
#[derive(Debug, Default)]
struct Method {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl Method {
    #[inline(always)]
    fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self
            .calls
            .fetch_add(1, Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.sampled.fetch_add(1, Relaxed);
        self.sampled_ns.fetch_add(ns, Relaxed);
        r
    }

    fn estimated_ns(&self, timer_ns: f64) -> f64 {
        let sampled = self.sampled.load(Relaxed);
        if sampled == 0 {
            return 0.0;
        }
        let mean = self.sampled_ns.load(Relaxed) as f64 / sampled as f64;
        (mean - timer_ns).max(0.0) * self.calls.load(Relaxed) as f64
    }
}

/// Calibrated cost (ns) of an empty `Instant::now()` / `elapsed()` pair:
/// the median over batches of 1000 pairs, measured once per process.
pub fn timer_overhead_ns() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        let batches: Vec<f64> = (0..31)
            .map(|_| {
                let mut ns = 0u64;
                for _ in 0..1000 {
                    let t = Instant::now();
                    ns += std::hint::black_box(t.elapsed()).as_nanos() as u64;
                }
                ns as f64 / 1000.0
            })
            .collect();
        crate::measure::median(&batches)
    })
}

/// What one replay asked of the decode layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeReport {
    /// `fetch` calls.
    pub fetches: u64,
    /// Non-run events consumed (`advance_event` calls plus the accesses
    /// consumed by `advance_data_run`).
    pub events: u64,
    /// Instruction blocks consumed through `advance_run`.
    pub run_blocks: u64,
    /// `gather_data_run` calls that found a data run.
    pub data_runs: u64,
    /// Data accesses gathered into runs.
    pub data_accesses: u64,
    /// Estimated self time of the decode layer, ns.
    pub self_ns: f64,
}

impl DecodeReport {
    /// Accumulate another replay's report.
    pub fn add(&mut self, other: &DecodeReport) {
        self.fetches += other.fetches;
        self.events += other.events;
        self.run_blocks += other.run_blocks;
        self.data_runs += other.data_runs;
        self.data_accesses += other.data_accesses;
        self.self_ns += other.self_ns;
    }
}

/// Forwarding, counting wrapper around a trace set.
#[derive(Debug)]
pub struct CountingSet<'a, T: ?Sized> {
    inner: &'a T,
    fetch: Method,
    advance_run: Method,
    advance_event: Method,
    gather_data_run: Method,
    advance_data_run: Method,
    prefetch: Method,
    run_blocks: AtomicU64,
    data_events: AtomicU64,
    data_runs: AtomicU64,
    data_accesses: AtomicU64,
}

impl<'a, T: TraceSet + ?Sized> CountingSet<'a, T> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: &'a T) -> Self {
        CountingSet {
            inner,
            fetch: Method::default(),
            advance_run: Method::default(),
            advance_event: Method::default(),
            gather_data_run: Method::default(),
            advance_data_run: Method::default(),
            prefetch: Method::default(),
            run_blocks: AtomicU64::new(0),
            data_events: AtomicU64::new(0),
            data_runs: AtomicU64::new(0),
            data_accesses: AtomicU64::new(0),
        }
    }

    /// Counts and the estimated decode self time so far.
    pub fn report(&self) -> DecodeReport {
        let timer = timer_overhead_ns();
        let methods = [
            &self.fetch,
            &self.advance_run,
            &self.advance_event,
            &self.gather_data_run,
            &self.advance_data_run,
            &self.prefetch,
        ];
        DecodeReport {
            fetches: self.fetch.calls.load(Relaxed),
            events: self.advance_event.calls.load(Relaxed) + self.data_events.load(Relaxed),
            run_blocks: self.run_blocks.load(Relaxed),
            data_runs: self.data_runs.load(Relaxed),
            data_accesses: self.data_accesses.load(Relaxed),
            self_ns: methods.iter().map(|m| m.estimated_ns(timer)).sum(),
        }
    }
}

impl<T: TraceSet + ?Sized> TraceSet for CountingSet<'_, T> {
    type Cursor = T::Cursor;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn xct_type(&self, idx: usize) -> XctTypeId {
        self.inner.xct_type(idx)
    }

    fn instructions_of(&self, idx: usize) -> u64 {
        self.inner.instructions_of(idx)
    }

    #[inline]
    fn fetch(&self, idx: usize, cur: Self::Cursor) -> Fetched {
        self.fetch.call(|| self.inner.fetch(idx, cur))
    }

    #[inline]
    fn advance_run(&self, idx: usize, cur: &mut Self::Cursor, rem: u16, k: u16) {
        self.run_blocks.fetch_add(u64::from(k), Relaxed);
        self.advance_run
            .call(|| self.inner.advance_run(idx, cur, rem, k))
    }

    #[inline]
    fn advance_event(&self, idx: usize, cur: &mut Self::Cursor, ev: FlatEvent) {
        self.advance_event
            .call(|| self.inner.advance_event(idx, cur, ev))
    }

    #[inline]
    fn gather_data_run(&self, idx: usize, cur: Self::Cursor, run: &mut DataRun) -> usize {
        let n = self
            .gather_data_run
            .call(|| self.inner.gather_data_run(idx, cur, run));
        if n > 0 {
            self.data_runs.fetch_add(1, Relaxed);
            self.data_accesses.fetch_add(n as u64, Relaxed);
        }
        n
    }

    #[inline]
    fn prefetch(&self, idx: usize) {
        self.prefetch.call(|| self.inner.prefetch(idx))
    }

    #[inline]
    fn advance_data_run(&self, idx: usize, cur: &mut Self::Cursor, k: usize) {
        self.data_events.fetch_add(k as u64, Relaxed);
        self.advance_data_run
            .call(|| self.inner.advance_data_run(idx, cur, k))
    }
}
