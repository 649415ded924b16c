//! L5 fixture: a buffer refilled by `project_into` is stale after actuation.

/// BAD: `buf` is refilled on line 7 and `apply` runs on line 9, so the
/// figure read on line 10 prices the pre-apply platform state.
pub fn stale_refill(ppep: &Ppep, platform: &mut Platform, record: &IntervalRecord) -> Result<Watts> {
    let mut buf = PpeProjection::default();
    ppep.project_into(record, NbVfState::High, &mut buf)?;
    let decision = decide(&buf)?;
    platform.apply(&decision)?;
    Ok(buf.chip.power)
}
