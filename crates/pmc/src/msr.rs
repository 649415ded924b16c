//! A virtual MSR device modelling the AMD family-15h performance
//! counter registers.
//!
//! The paper drives its measurements with `msr-tools` (§II). Real MSR
//! access is unavailable in this reproduction environment, so this
//! module provides the same register interface in software: six
//! `PERF_CTL`/`PERF_CTR` pairs per core at their architectural
//! addresses, with the event-select encoding of the BKDG (event bits
//! `[7:0]` in CTL bits `[7:0]`, event bits `[11:8]` in CTL bits `[35:32]`,
//! enable in bit 22).

use crate::counter::HwCounter;
use ppep_types::{Error, Result};
use std::cell::Cell;

/// Number of performance counter slots per core on family 15h.
pub const SLOT_COUNT: usize = 6;

/// Base address of `PERF_CTL0`; CTLn is at `base + 2n`.
pub const PERF_CTL_BASE: u32 = 0xC001_0200;

/// Base address of `PERF_CTR0`; CTRn is at `base + 2n + 1`.
pub const PERF_CTR_BASE: u32 = 0xC001_0201;

/// Enable bit within a `PERF_CTL` register.
pub const CTL_ENABLE_BIT: u64 = 1 << 22;

/// Encodes a 12-bit event select into a `PERF_CTL` value with the
/// enable bit set.
pub const fn encode_ctl(event_code: u16, enabled: bool) -> u64 {
    encode_ctl_masked(event_code, 0, enabled)
}

/// Encodes an event select together with its unit mask (CTL bits
/// `[15:8]`). §IV-C1 notes that retire-width buckets
/// (`Cycles_Retiring_1 … Issue_Width`) are selected through unit-mask
/// values at the cost of extra counter multiplexing; this is the
/// register-level support for that refinement.
pub const fn encode_ctl_masked(event_code: u16, unit_mask: u8, enabled: bool) -> u64 {
    let code = event_code as u64;
    let low = code & 0xff;
    let high = (code >> 8) & 0xf;
    let mut v = low | ((unit_mask as u64) << 8) | (high << 32);
    if enabled {
        v |= CTL_ENABLE_BIT;
    }
    v
}

/// Decodes the event select from a `PERF_CTL` value.
pub fn decode_ctl(value: u64) -> (u16, bool) {
    let (code, _, enabled) = decode_ctl_masked(value);
    (code, enabled)
}

/// Decodes event select, unit mask, and enable from a `PERF_CTL`
/// value.
pub fn decode_ctl_masked(value: u64) -> (u16, u8, bool) {
    let low = value & 0xff;
    let mask = ((value >> 8) & 0xff) as u8;
    let high = (value >> 32) & 0xf;
    let code = (low | (high << 8)) as u16;
    (code, mask, value & CTL_ENABLE_BIT != 0)
}

/// The per-core virtual MSR device.
#[derive(Debug, Clone, Default)]
pub struct MsrDevice {
    ctl: [u64; SLOT_COUNT],
    ctr: [HwCounter; SLOT_COUNT],
    /// Armed read failures (fault injection): while non-zero, counter
    /// reads fail with [`Error::MsrReadFailed`] and decrement this.
    /// A `Cell` so `rdmsr`/`read_slot` keep their `&self` signatures.
    fail_reads: Cell<u32>,
}

impl MsrDevice {
    /// A device with all counters disabled and zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads an MSR by address, like `rdmsr`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for addresses outside the PMC block.
    pub fn rdmsr(&self, address: u32) -> Result<u64> {
        match Self::classify(address)? {
            Register::Ctl(slot) => Ok(self.ctl[slot]),
            Register::Ctr(slot) => {
                self.check_read_fault(address)?;
                Ok(self.ctr[slot].read())
            }
        }
    }

    /// Arms the device to fail its next `n` counter reads with
    /// [`Error::MsrReadFailed`] — the fault-injection hook for the
    /// "virtual MSR read failed" scenario. Control-register reads and
    /// writes are unaffected, matching the observed failure mode of
    /// `msr-tools` under contention (reads time out; programming does
    /// not).
    pub fn inject_read_failures(&mut self, n: u32) {
        self.fail_reads.set(self.fail_reads.get().saturating_add(n));
    }

    /// Number of armed counter-read failures remaining.
    #[inline]
    pub fn pending_read_failures(&self) -> u32 {
        self.fail_reads.get()
    }

    fn check_read_fault(&self, address: u32) -> Result<()> {
        let armed = self.fail_reads.get();
        if armed > 0 {
            self.fail_reads.set(armed - 1);
            return Err(Error::MsrReadFailed { msr: address });
        }
        Ok(())
    }

    /// Writes an MSR by address, like `wrmsr`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for addresses outside the PMC block.
    pub fn wrmsr(&mut self, address: u32, value: u64) -> Result<()> {
        match Self::classify(address)? {
            Register::Ctl(slot) => self.ctl[slot] = value,
            Register::Ctr(slot) => self.ctr[slot].write(value),
        }
        Ok(())
    }

    /// Convenience: programs slot `slot` to count `event_code`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for out-of-range slots.
    pub fn program_slot(&mut self, slot: usize, event_code: u16, enabled: bool) -> Result<()> {
        if slot >= SLOT_COUNT {
            return Err(Error::Device(format!("no PMC slot {slot}")));
        }
        self.ctl[slot] = encode_ctl(event_code, enabled);
        Ok(())
    }

    /// The `(event_code, enabled)` configuration of a slot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for out-of-range slots.
    pub fn slot_config(&self, slot: usize) -> Result<(u16, bool)> {
        if slot >= SLOT_COUNT {
            return Err(Error::Device(format!("no PMC slot {slot}")));
        }
        Ok(decode_ctl(self.ctl[slot]))
    }

    /// Advances the counter of a slot by `events` (simulator-side; a
    /// real chip does this in hardware). Disabled slots do not count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for out-of-range slots.
    pub fn count_events(&mut self, slot: usize, events: u64) -> Result<()> {
        if slot >= SLOT_COUNT {
            return Err(Error::Device(format!("no PMC slot {slot}")));
        }
        let (_, enabled) = decode_ctl(self.ctl[slot]);
        if enabled {
            self.ctr[slot].advance(events);
        }
        Ok(())
    }

    /// Reads the counter value of a slot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for out-of-range slots.
    pub fn read_slot(&self, slot: usize) -> Result<u64> {
        if slot >= SLOT_COUNT {
            return Err(Error::Device(format!("no PMC slot {slot}")));
        }
        self.check_read_fault(PERF_CTR_BASE + 2 * slot as u32)?;
        Ok(self.ctr[slot].read())
    }

    /// The raw counter value of a slot, bypassing fault injection.
    ///
    /// This is the simulator's backstage view — used to re-sync
    /// sampling baselines after reprogramming — not a modelled
    /// `msr-tools` read, so injected read failures do not apply.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for out-of-range slots.
    pub fn peek_slot(&self, slot: usize) -> Result<u64> {
        if slot >= SLOT_COUNT {
            return Err(Error::Device(format!("no PMC slot {slot}")));
        }
        Ok(self.ctr[slot].read())
    }

    /// Loads all six `PERF_CTL` registers at once, as six `wrmsr`s to
    /// CTL0..CTL5 would. Counter values are untouched.
    #[inline]
    pub(crate) fn program_all(&mut self, ctl: &[u64; SLOT_COUNT]) {
        self.ctl = *ctl;
    }

    /// Writes `raw` (masked to 48 bits) into every counter, as six
    /// `wrmsr`s to CTR0..CTR5 would.
    pub(crate) fn write_all(&mut self, raw: u64) {
        for c in self.ctr.iter_mut() {
            c.write(raw);
        }
    }

    /// Every slot's raw counter value, bypassing fault injection like
    /// [`MsrDevice::peek_slot`].
    #[inline]
    pub(crate) fn peek_all(&self) -> [u64; SLOT_COUNT] {
        self.ctr.map(HwCounter::read)
    }

    /// [`MsrDevice::count_events`] for every slot, then every
    /// counter's value: each enabled slot advances by its entry of
    /// `events`. For a caller that knows no read failure is armed this
    /// is six `count_events` and `read_slot` pairs, since no read can
    /// fail and slots count independently.
    #[inline]
    pub(crate) fn count_all(&mut self, events: &[u64; SLOT_COUNT]) -> [u64; SLOT_COUNT] {
        for ((counter, ctl), &n) in self.ctr.iter_mut().zip(&self.ctl).zip(events) {
            if ctl & CTL_ENABLE_BIT != 0 {
                counter.advance(n);
            }
        }
        self.peek_all()
    }

    /// [`MsrDevice::count_events`] then a failed [`MsrDevice::read_slot`]
    /// on slot 0, while a read failure is armed: an enabled slot 0
    /// advances by `events`, one armed failure is used up, and the
    /// read's error, with `PERF_CTR0`'s address, is returned.
    #[cold]
    pub(crate) fn count_and_fail_first_read(&mut self, events: u64) -> Error {
        let ([counter, ..], [ctl, ..]) = (&mut self.ctr, self.ctl);
        if ctl & CTL_ENABLE_BIT != 0 {
            counter.advance(events);
        }
        self.fail_reads.set(self.fail_reads.get().saturating_sub(1));
        Error::MsrReadFailed { msr: PERF_CTR_BASE }
    }

    fn classify(address: u32) -> Result<Register> {
        if address < PERF_CTL_BASE || address >= PERF_CTL_BASE + 2 * SLOT_COUNT as u32 {
            return Err(Error::Device(format!(
                "MSR {address:#x} is not a PMC register"
            )));
        }
        let offset = (address - PERF_CTL_BASE) as usize;
        let slot = offset / 2;
        if offset.is_multiple_of(2) {
            Ok(Register::Ctl(slot))
        } else {
            Ok(Register::Ctr(slot))
        }
    }
}

enum Register {
    Ctl(usize),
    Ctr(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventId;

    #[test]
    fn ctl_encoding_round_trips_all_table_i_codes() {
        for e in crate::events::ALL_EVENTS {
            let v = encode_ctl(e.code(), true);
            let (code, enabled) = decode_ctl(v);
            assert_eq!(code, e.code());
            assert!(enabled);
        }
        let (code, enabled) = decode_ctl(encode_ctl(0xd1, false));
        assert_eq!(code, 0xd1);
        assert!(!enabled);
    }

    #[test]
    fn unit_masks_occupy_bits_8_to_15() {
        let v = encode_ctl_masked(0x076, 0xAB, true);
        let (code, mask, enabled) = decode_ctl_masked(v);
        assert_eq!(code, 0x076);
        assert_eq!(mask, 0xAB);
        assert!(enabled);
        // The maskless encoder writes a zero mask.
        let (_, mask, _) = decode_ctl_masked(encode_ctl(0x076, true));
        assert_eq!(mask, 0);
        // Masks do not corrupt the high event bits.
        let (code, mask, _) = decode_ctl_masked(encode_ctl_masked(0x1d1, 0xFF, false));
        assert_eq!(code, 0x1d1);
        assert_eq!(mask, 0xFF);
    }

    #[test]
    fn high_event_bits_use_bits_32_35() {
        // Event 0x1d1 would need bit 8 -> CTL bit 32.
        let v = encode_ctl(0x1d1, true);
        assert_eq!(v & 0xff, 0xd1);
        assert_eq!((v >> 32) & 0xf, 0x1);
    }

    #[test]
    fn rdmsr_wrmsr_address_mapping() {
        let mut dev = MsrDevice::new();
        dev.wrmsr(PERF_CTL_BASE, encode_ctl(0x76, true)).unwrap();
        assert_eq!(dev.slot_config(0).unwrap(), (0x76, true));
        dev.wrmsr(PERF_CTR_BASE + 2 * 5, 1234).unwrap();
        assert_eq!(dev.rdmsr(PERF_CTR_BASE + 2 * 5).unwrap(), 1234);
        assert!(dev.rdmsr(0xC001_0000).is_err());
        assert!(dev.wrmsr(PERF_CTL_BASE + 12, 0).is_err());
    }

    #[test]
    fn disabled_slots_do_not_count() {
        let mut dev = MsrDevice::new();
        dev.program_slot(2, EventId::RetiredInstructions.code(), false)
            .unwrap();
        dev.count_events(2, 1000).unwrap();
        assert_eq!(dev.read_slot(2).unwrap(), 0);
        dev.program_slot(2, EventId::RetiredInstructions.code(), true)
            .unwrap();
        dev.count_events(2, 1000).unwrap();
        assert_eq!(dev.read_slot(2).unwrap(), 1000);
    }

    #[test]
    fn injected_read_failures_are_transient_and_bounded() {
        let mut dev = MsrDevice::new();
        dev.program_slot(0, EventId::RetiredInstructions.code(), true)
            .unwrap();
        dev.count_events(0, 42).unwrap();
        dev.inject_read_failures(2);
        assert_eq!(dev.pending_read_failures(), 2);
        // The next two counter reads fail with the transient MSR error…
        let e = dev.read_slot(0).unwrap_err();
        assert!(matches!(e, Error::MsrReadFailed { msr: PERF_CTR_BASE }));
        assert!(e.is_transient());
        assert!(dev.rdmsr(PERF_CTR_BASE).is_err());
        // …then the device recovers, and the counter never lost events.
        assert_eq!(dev.pending_read_failures(), 0);
        assert_eq!(dev.read_slot(0).unwrap(), 42);
        // Control reads, writes, and backstage peeks are unaffected.
        dev.inject_read_failures(1);
        assert!(dev.rdmsr(PERF_CTL_BASE).is_ok());
        assert!(dev.wrmsr(PERF_CTR_BASE, 7).is_ok());
        assert_eq!(dev.peek_slot(0).unwrap(), 7);
        assert_eq!(dev.pending_read_failures(), 1);
    }

    #[test]
    fn slot_bounds_checked() {
        let mut dev = MsrDevice::new();
        assert!(dev.program_slot(6, 0x76, true).is_err());
        assert!(dev.count_events(6, 1).is_err());
        assert!(dev.read_slot(6).is_err());
        assert!(dev.slot_config(6).is_err());
    }
}
