//! The benchmark's host clocks, and the only file that reads them: seal-lint's
//! `no-wall-clock` rule sweeps every `.rs` file of the repo, so each read below
//! carries the lint's inline waiver and every other module times through
//! [`Stopwatch`] and [`PhaseTimer`].
//!
//! A phase is charged the calling thread's **on-CPU time** — the first field of
//! `/proc/thread-self/schedstat`, which excludes time stolen by the hypervisor
//! or spent waiting on a run queue. The sandbox is a small shared VM: while a
//! neighbour is busy the hypervisor takes the CPU away for most of a second at
//! a time (wall time of a fixed loop was seen to grow fivefold while its CPU
//! time moved 6 %). The benchmark is single-threaded and never blocks on real
//! I/O, so on an idle machine on-CPU time equals wall time; code that starts to
//! block or moves work to another thread would leave it, which is why the wall
//! time of every phase is reported beside it ([`PhaseTime::wall_ns`] →
//! `host_wall_ops_per_s`, `bench.wall_per_cpu`) and every output names the
//! clock in use ([`source`]).
//! The kernel refreshes the field at scheduler ticks (≤ 4 ms here), which is
//! fine for phases of a second and useless for single calls: per-op latencies,
//! spans and probes are wall time.

/// Wall time since `start()`.
#[derive(Debug)]
// seal-lint: allow(no-wall-clock)
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    #[inline]
    pub fn start() -> Stopwatch {
        // seal-lint: allow(no-wall-clock)
        Stopwatch(std::time::Instant::now())
    }

    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

fn on_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The clock behind `host_ns`: `"cpu"` where the kernel reports on-CPU time,
/// `"wall"` elsewhere. Host-clock values of the two are not comparable.
pub fn source() -> &'static str {
    if on_cpu_ns().is_some() {
        "cpu"
    } else {
        "wall"
    }
}

#[derive(Debug)]
pub struct PhaseTimer {
    wall: Stopwatch,
    cpu: Option<u64>,
}

/// What a phase took, ns.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTime {
    /// On-CPU time (wall time where [`source`] is `"wall"`).
    pub host_ns: u64,
    pub wall_ns: u64,
}

impl PhaseTimer {
    pub fn start() -> PhaseTimer {
        PhaseTimer {
            cpu: on_cpu_ns(),
            wall: Stopwatch::start(),
        }
    }

    pub fn stop(&self) -> PhaseTime {
        let wall_ns = self.wall.ns();
        let host_ns = match (self.cpu, on_cpu_ns()) {
            (Some(start), Some(end)) if end >= start => end - start,
            _ => wall_ns,
        };
        PhaseTime { host_ns, wall_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_phase_is_charged_about_its_wall_time_and_a_sleep_is_not() {
        let t = PhaseTimer::start();
        let mut x = 0u64;
        let spin = Stopwatch::start();
        while spin.ns() < 60_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = t.stop();
        assert!(busy.host_ns > 0 && busy.host_ns <= busy.wall_ns + 8_000_000);
        if source() == "cpu" {
            let t = PhaseTimer::start();
            std::thread::sleep(std::time::Duration::from_millis(60));
            let idle = t.stop();
            assert!(idle.host_ns < idle.wall_ns / 2, "{idle:?}");
        }
    }
}
