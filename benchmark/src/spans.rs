//! The benchmark's own span recorder. Spans are recorded from outside the
//! crates, around the calls into each layer: `rep → phase → op →
//! {workloads.*, sealdb.*, seal-front.run_serve, seal-replica.put, verify}`.
//! Each span carries its id (its index), parent, the op index as request id,
//! and start/end on both clocks. They live in one preallocated `Vec` and are
//! only turned into tables and files after the measured work is over.
//!
//! A disabled recorder (every untraced run) reads no clock and stores nothing.

use crate::hostclock::Stopwatch;
use crate::json::Json;
use crate::stats::percentile;

/// Span names, fixed so the hot path stores one byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    Rep,
    Phase,
    Op,
    Draw,
    Key,
    Value,
    Put,
    Get,
    Scan,
    Flush,
    RunServe,
    ReplicaPut,
    Settle,
    Verify,
}

impl Name {
    pub const ALL: [Name; 14] = [
        Name::Rep,
        Name::Phase,
        Name::Op,
        Name::Draw,
        Name::Key,
        Name::Value,
        Name::Put,
        Name::Get,
        Name::Scan,
        Name::Flush,
        Name::RunServe,
        Name::ReplicaPut,
        Name::Settle,
        Name::Verify,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Rep => "rep",
            Name::Phase => "phase",
            Name::Op => "op",
            Name::Draw => "workloads.draw",
            Name::Key => "workloads.key",
            Name::Value => "workloads.value",
            Name::Put => "sealdb.put",
            Name::Get => "sealdb.get",
            Name::Scan => "sealdb.scan",
            Name::Flush => "sealdb.flush",
            Name::RunServe => "seal-front.run_serve",
            Name::ReplicaPut => "seal-replica.put",
            Name::Settle => "seal-replica.settle",
            Name::Verify => "verify",
        }
    }
}

/// No parent / no request.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    /// Op index within the rep (the request id shared by an op's subtree).
    pub req: u32,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns - self.sim_start_ns
    }
}

/// Handle of an open span; `NONE` when the recorder is off.
#[derive(Clone, Copy, Debug)]
pub struct Open(u32);

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Stopwatch,
    spans: Vec<Span>,
    /// Innermost open span.
    current: u32,
}

impl Recorder {
    /// A recorder that records nothing (untraced runs).
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            t0: Stopwatch::start(),
            spans: Vec::new(),
            current: NONE,
        }
    }

    /// A live recorder with room for `capacity` spans allocated up front, so
    /// the measured loop never grows the vector.
    pub fn on(capacity: usize) -> Recorder {
        Recorder {
            enabled: true,
            t0: Stopwatch::start(),
            spans: Vec::with_capacity(capacity),
            current: NONE,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span under the innermost open one. `sim_ns` is the caller's
    /// reading of the simulated clock (the recorder has no store).
    #[inline]
    pub fn open(&mut self, name: Name, req: u32, sim_ns: u64) -> Open {
        if !self.enabled {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        let now = self.t0.ns();
        self.spans.push(Span {
            name,
            parent: self.current,
            req,
            host_start_ns: now,
            host_end_ns: now,
            sim_start_ns: sim_ns,
            sim_end_ns: sim_ns,
        });
        self.current = id;
        Open(id)
    }

    /// A span around `f`, for work that does not advance the simulated clock.
    #[inline]
    pub fn span<T>(&mut self, name: Name, req: u32, sim_ns: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, req, sim_ns);
        let out = f();
        self.close(open, sim_ns);
        out
    }

    /// Closes `open`, which must be the innermost open span.
    #[inline]
    pub fn close(&mut self, open: Open, sim_ns: u64) {
        if open.0 == NONE {
            return;
        }
        debug_assert_eq!(open.0, self.current, "spans close innermost-first");
        let now = self.t0.ns();
        let span = &mut self.spans[open.0 as usize];
        span.host_end_ns = now;
        span.sim_end_ns = sim_ns;
        self.current = span.parent;
    }
}

/// One row of the aggregate table.
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotals {
    pub name: Name,
    pub count: u64,
    pub host_total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub host_self_ns: u64,
    pub sim_total_ns: u64,
    pub sim_self_ns: u64,
}

/// What the children of each span cover of it, ns on each clock.
fn child_totals(spans: &[Span]) -> (Vec<u64>, Vec<u64>) {
    let mut host = vec![0u64; spans.len()];
    let mut sim = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            host[s.parent as usize] += s.host_ns();
            sim[s.parent as usize] += s.sim_ns();
        }
    }
    (host, sim)
}

/// Per-name totals and self times over all recorded spans. Self times are
/// remainders, so over all names they add up to the root spans' durations by
/// construction; [`check_nesting`] is what makes each remainder meaningful.
pub fn aggregate(spans: &[Span]) -> Vec<NameTotals> {
    let (child_host, child_sim) = child_totals(spans);
    let mut rows: Vec<NameTotals> = Name::ALL
        .iter()
        .map(|&name| NameTotals {
            name,
            count: 0,
            host_total_ns: 0,
            host_self_ns: 0,
            sim_total_ns: 0,
            sim_self_ns: 0,
        })
        .collect();
    for (i, s) in spans.iter().enumerate() {
        // `Name::ALL` is in declaration order.
        let row = &mut rows[s.name as usize];
        row.count += 1;
        row.host_total_ns += s.host_ns();
        row.host_self_ns += s.host_ns().saturating_sub(child_host[i]);
        row.sim_total_ns += s.sim_ns();
        row.sim_self_ns += s.sim_ns().saturating_sub(child_sim[i]);
    }
    rows.retain(|r| r.count > 0);
    rows
}

/// Checks, on both clocks, what self times rest on: no span ends before it
/// starts, every child lies within its parent, and the children of a span
/// cover no more than the span (siblings never overlap). Returns a description
/// of the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.host_end_ns < s.host_start_ns || s.sim_end_ns < s.sim_start_ns {
            return Err(format!(
                "span {i} ({}) ends before it starts",
                s.name.as_str()
            ));
        }
        if s.parent == NONE {
            continue;
        }
        let p = &spans[s.parent as usize];
        if s.host_start_ns < p.host_start_ns
            || s.host_end_ns > p.host_end_ns
            || s.sim_start_ns < p.sim_start_ns
            || s.sim_end_ns > p.sim_end_ns
        {
            return Err(format!(
                "span {i} ({}) is not inside its parent {} ({})",
                s.name.as_str(),
                s.parent,
                p.name.as_str()
            ));
        }
    }
    let (child_host, child_sim) = child_totals(spans);
    for (i, s) in spans.iter().enumerate() {
        if child_host[i] > s.host_ns() || child_sim[i] > s.sim_ns() {
            return Err(format!(
                "the children of span {i} ({}) overlap: they cover more than the span",
                s.name.as_str()
            ));
        }
    }
    Ok(())
}

/// Sorted host durations (ns) of every span called `name`.
pub fn host_durations(spans: &[Span], name: Name) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::host_ns)
        .collect();
    v.sort_unstable();
    v
}

/// Sorted simulated durations (ns) of every span called `name`.
pub fn sim_durations(spans: &[Span], name: Name) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::sim_ns)
        .collect();
    v.sort_unstable();
    v
}

/// The aggregate table as text.
pub fn table(rows: &[NameTotals]) -> String {
    let mut out = format!(
        "{:<24} {:>9} {:>14} {:>14} {:>14} {:>14}\n",
        "span", "count", "host total ms", "host self ms", "sim total ms", "sim self ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>9} {:>14.3} {:>14.3} {:>14.3} {:>14.3}\n",
            r.name.as_str(),
            r.count,
            r.host_total_ns as f64 / 1e6,
            r.host_self_ns as f64 / 1e6,
            r.sim_total_ns as f64 / 1e6,
            r.sim_self_ns as f64 / 1e6,
        ));
    }
    out
}

/// Chrome trace-event JSON (open in `chrome://tracing` or Perfetto): the
/// rep/phase spans plus the subtrees of the first `max_ops` ops. Timestamps
/// are host microseconds; the simulated interval rides along in `args`.
pub fn chrome_trace(spans: &[Span], max_ops: u32) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.req == NONE || s.req < max_ops)
        .map(|(id, s)| {
            Json::obj()
                .with("name", s.name.as_str())
                .with("ph", "X")
                .with("pid", 1u64)
                .with("tid", 1u64)
                .with("ts", s.host_start_ns as f64 / 1e3)
                .with("dur", s.host_ns() as f64 / 1e3)
                .with(
                    "args",
                    Json::obj()
                        .with("id", id)
                        .with(
                            "parent",
                            if s.parent == NONE {
                                Json::Null
                            } else {
                                Json::from(s.parent as u64)
                            },
                        )
                        .with(
                            "req",
                            if s.req == NONE {
                                Json::Null
                            } else {
                                Json::from(s.req as u64)
                            },
                        )
                        .with("sim_start_ns", s.sim_start_ns)
                        .with("sim_end_ns", s.sim_end_ns),
                )
        })
        .collect();
    Json::obj()
        .with("displayTimeUnit", "ns")
        .with("traceEvents", events)
}

/// p50 and p99 of a sorted duration list, as floats (0 when empty).
pub fn p50_p99(sorted: &[u64]) -> (f64, f64) {
    (
        percentile(sorted, 0.50) as f64,
        percentile(sorted, 0.99) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_two_ops(rec: &mut Recorder) {
        let rep = rec.open(Name::Rep, NONE, 0);
        let phase = rec.open(Name::Phase, NONE, 0);
        let mut sim = 0;
        for i in 0..2u32 {
            let op = rec.open(Name::Op, i, sim);
            let k = rec.open(Name::Key, i, sim);
            rec.close(k, sim);
            let g = rec.open(Name::Get, i, sim);
            sim += 1000;
            rec.close(g, sim);
            rec.close(op, sim);
        }
        rec.close(phase, sim);
        rec.close(rep, sim);
    }

    #[test]
    fn names_are_listed_in_declaration_order() {
        // `aggregate` indexes its rows by discriminant.
        assert!(Name::ALL.iter().enumerate().all(|(i, &n)| n as usize == i));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::off();
        record_two_ops(&mut rec);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn parents_requests_and_self_times() {
        let mut rec = Recorder::on(16);
        record_two_ops(&mut rec);
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[2].name, Name::Op);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[4].name, Name::Get);
        assert_eq!((spans[4].parent, spans[4].req), (2, 0));
        assert_eq!(spans[7].req, 1);
        check_nesting(spans).unwrap();
        let rows = aggregate(spans);
        let get = rows.iter().find(|r| r.name == Name::Get).unwrap();
        assert_eq!(
            (get.count, get.sim_total_ns, get.sim_self_ns),
            (2, 2000, 2000)
        );
        let rep = rows.iter().find(|r| r.name == Name::Rep).unwrap();
        assert_eq!((rep.sim_total_ns, rep.sim_self_ns), (2000, 0));
        // Self times over all names equal the root's duration.
        let total: u64 = rows.iter().map(|r| r.host_self_ns).sum();
        assert_eq!(total, spans[0].host_ns());
    }

    #[test]
    fn nesting_catches_an_escaping_child_and_overlapping_siblings() {
        let mut rec = Recorder::on(16);
        record_two_ops(&mut rec);
        let mut escaping = rec.spans().to_vec();
        escaping[4].sim_end_ns += 1_000_000;
        assert!(check_nesting(&escaping).unwrap_err().contains("not inside"));
        // The key span (3) stretched over its sibling, the get (4): both are
        // still inside the op (2), but together they cover more than it.
        let mut overlapping = rec.spans().to_vec();
        overlapping[3].sim_end_ns = overlapping[4].sim_end_ns;
        overlapping[3].host_end_ns = overlapping[4].host_end_ns;
        assert!(check_nesting(&overlapping).unwrap_err().contains("overlap"));
    }

    #[test]
    fn chrome_trace_keeps_only_the_first_ops() {
        let mut rec = Recorder::on(16);
        record_two_ops(&mut rec);
        let trace = chrome_trace(rec.spans(), 1);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        // rep + phase + the three spans of op 0.
        assert_eq!(events.len(), 5);
        assert_eq!(Json::parse(&trace.encode()).unwrap(), trace);
    }
}
