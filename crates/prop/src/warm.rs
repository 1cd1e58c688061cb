//! The two warm starts of the fact store, held to one another.
//!
//! A server reload warms from the run it still holds in memory
//! ([`Prior::Resident`]); a fresh process warms from the snapshot that
//! run saved ([`Prior::Snapshot`]). [`edit_chain`] walks one program
//! through a chain of edits both ways and requires, at every step, that
//! the two runs agree id for id ([`run_divergence`], snapshot text
//! included) and that both match a cold run at the fact level
//! ([`canonical_facts`]).

use pta_core::{analyze_recorded, AnalysisConfig, EngineRun};
use pta_simple::IrProgram;
use pta_store::{
    analyze_incremental, canonical_facts, parse, run_divergence, serialize, Prior, RunMemo,
    Snapshot, WarmMode,
};

/// Analyses `states[0]` cold, then each of `steps` edits in turn
/// (`states[1]`, `states[0]`, `states[1]`, … — an edit and its undo),
/// once warmed from the previous run in memory and once from that run's
/// snapshot text. Returns how many steps both sides ran warm.
///
/// # Errors
///
/// A description of the first disagreement: a source that does not
/// compile or analyse, memory and disk runs that differ in mode or at
/// the id level, or a warm run whose facts differ from a cold run.
pub fn edit_chain(states: [&str; 2], steps: usize) -> Result<usize, String> {
    let config = AnalysisConfig::default();
    let compile = |s: &str| pta_simple::compile(s).map_err(|e| e.to_string());
    let irs = [compile(states[0])?, compile(states[1])?];
    let cold = |ir: &IrProgram| -> Result<EngineRun, String> {
        analyze_recorded(ir, config.clone()).map_err(|e| e.to_string())
    };
    let cold_facts = [
        canonical_facts(&irs[0], &cold(&irs[0])?.result),
        canonical_facts(&irs[1], &cold(&irs[1])?.result),
    ];
    let mut memory = cold(&irs[0])?;
    let mut disk = cold(&irs[0])?;
    let mut warm_steps = 0;
    for step in 1..=steps {
        let (prev, ir) = (&irs[(step - 1) % 2], &irs[step % 2]);
        let memo = RunMemo::new(prev, &config, memory.node_captures.clone());
        let m = analyze_incremental(ir, &config, Some(Prior::Resident(&memory.result, &memo)))
            .map_err(|e| format!("step {step}: memory-warmed run: {e}"))?;
        let text = serialize(&Snapshot::build(prev, &config, &disk, &[]));
        let snap = parse(&text).map_err(|e| format!("step {step}: snapshot: {e}"))?;
        let d = analyze_incremental(ir, &config, Some(Prior::Snapshot(&snap)))
            .map_err(|e| format!("step {step}: disk-warmed run: {e}"))?;
        if m.mode != d.mode {
            return Err(format!(
                "step {step}: memory ran {:?}, disk ran {:?}",
                m.mode, d.mode
            ));
        }
        if let Some(diff) = run_divergence(ir, &config, &m.run, &d.run) {
            return Err(format!("step {step}: memory vs disk: {diff}"));
        }
        if canonical_facts(ir, &m.run.result) != cold_facts[step % 2] {
            return Err(format!("step {step}: warm facts differ from a cold run"));
        }
        if matches!(m.mode, WarmMode::Warm { .. }) {
            warm_steps += 1;
        }
        memory = m.run;
        disk = d.run;
    }
    Ok(warm_steps)
}
