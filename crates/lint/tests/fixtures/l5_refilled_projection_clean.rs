//! L5 fixture: buffers refilled by `project_into` before every read.

/// GOOD: each interval refills `buf` before deciding on it, so the
/// stale buffer left by the previous `apply` is only ever written.
pub fn refill_each_interval(ppep: &Ppep, platform: &mut Platform, n: usize) -> Result<()> {
    let mut buf = PpeProjection::default();
    let mut record = IntervalRecord::default();
    for _ in 0..n {
        platform.sample_into(&mut record)?;
        ppep.project_into(&record, NbVfState::High, &mut buf)?;
        let decision = decide(&buf)?;
        platform.apply(&decision)?;
    }
    Ok(())
}

/// GOOD: re-projects into the same buffer after actuating, so the
/// emitted figure prices the platform's current VF state.
pub fn refreshed_report(ppep: &Ppep, platform: &mut Platform, record: &IntervalRecord) -> Result<Watts> {
    let mut buf = PpeProjection::default();
    ppep.project_into(record, NbVfState::High, &mut buf)?;
    let decision = decide(&buf)?;
    platform.apply(&decision)?;
    ppep.project_into(record, NbVfState::High, &mut buf)?;
    Ok(buf.chip.power)
}
