//! `seal-perf verify`: the benchmark checking itself at smoke scale. For each
//! workload the first rep runs twice with the same seed and must agree byte
//! for byte on the simulated clock with nothing failed; a traced rep must
//! leave the simulated clock alone, its `IoKind` shares must sum to 1 (with
//! nothing uncharged where the workload claims it), and its spans' self times
//! must add up to the rep span.

use crate::cases::{run_rep, sizes, Scale, Seeds, Workload};
use crate::ledger::{self, Ledger};
use crate::run::sim_section;
use crate::spans::{self, Recorder};

fn check(w: Workload, seed: u64) -> Result<(), String> {
    let sim = |rec: &mut Recorder| {
        let rep = run_rep(w, Scale::Smoke, Seeds::for_rep(seed, 0), rec);
        let text = sim_section(std::slice::from_ref(&rep)).encode();
        (rep, text)
    };
    let (first, first_sim) = sim(&mut Recorder::off());
    let (_, second_sim) = sim(&mut Recorder::off());
    if first_sim != second_sim {
        return Err("two runs of one seed differ on the simulated clock".into());
    }
    if first.failed != 0 {
        return Err(format!(
            "{} of {} ops failed",
            first.failed, first.attempted
        ));
    }
    let mut rec = Recorder::on(sizes(w, Scale::Smoke).ops as usize * 7 + 64);
    let (traced, traced_sim) = sim(&mut rec);
    if traced_sim != first_sim {
        return Err("tracing changed the simulated-clock results".into());
    }
    let mut l = Ledger::default();
    ledger::counters(&traced, &mut l);
    ledger::check_shares(w, &l)?;
    spans::check_nesting(rec.spans())?;
    if rec.spans().is_empty() {
        return Err("the traced rep recorded no spans".into());
    }
    Ok(())
}

/// Runs every check; `true` when all pass.
pub fn verify(seed: u64) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        match check(w, seed) {
            Ok(()) => println!("ok    {}", w.name()),
            Err(e) => {
                ok = false;
                println!("FAIL  {}: {e}", w.name());
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    #[test]
    fn verify_passes() {
        assert!(super::verify(1));
    }
}
