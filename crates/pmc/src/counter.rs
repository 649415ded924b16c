//! 48-bit wrapping hardware counters.
//!
//! AMD family-15h performance counters are 48 bits wide; software that
//! samples them must handle wraparound. The virtual PMU uses this type
//! so the sampling path exercises the same delta logic a real
//! `msr-tools` consumer needs.

/// Width of an AMD performance counter in bits.
pub const COUNTER_BITS: u32 = 48;

/// Bit mask for the counter value.
pub const COUNTER_MASK: u64 = (1 << COUNTER_BITS) - 1;

/// A free-running 48-bit hardware counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HwCounter {
    raw: u64,
}

impl HwCounter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Self { raw: 0 }
    }

    /// A counter starting at an arbitrary raw value (masked to 48 bits).
    pub const fn with_value(raw: u64) -> Self {
        Self {
            raw: raw & COUNTER_MASK,
        }
    }

    /// Current raw value (always < 2⁴⁸).
    #[inline]
    pub const fn read(self) -> u64 {
        self.raw
    }

    /// Advances the counter by `delta` events, wrapping at 48 bits.
    #[inline]
    pub fn advance(&mut self, delta: u64) {
        self.raw = (self.raw.wrapping_add(delta)) & COUNTER_MASK;
    }

    /// Writes a raw value (as `wrmsr` would), masking to 48 bits.
    pub fn write(&mut self, raw: u64) {
        self.raw = raw & COUNTER_MASK;
    }

    /// Number of events between an earlier reading `prev` and the
    /// current value, assuming at most one wrap.
    pub fn delta_since(self, prev: u64) -> u64 {
        let prev = prev & COUNTER_MASK;
        if self.raw >= prev {
            self.raw - prev
        } else {
            (COUNTER_MASK - prev) + self.raw + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_reads() {
        let mut c = HwCounter::new();
        c.advance(100);
        assert_eq!(c.read(), 100);
        c.advance(0);
        assert_eq!(c.read(), 100);
    }

    #[test]
    fn wraps_at_48_bits() {
        let mut c = HwCounter::with_value(COUNTER_MASK);
        c.advance(1);
        assert_eq!(c.read(), 0);
        c.advance(5);
        assert_eq!(c.read(), 5);
    }

    #[test]
    fn delta_handles_wraparound() {
        let mut c = HwCounter::with_value(COUNTER_MASK - 9);
        let before = c.read();
        c.advance(25); // wraps
        assert_eq!(c.delta_since(before), 25);
    }

    #[test]
    fn delta_without_wrap() {
        let mut c = HwCounter::new();
        c.advance(1000);
        let before = c.read();
        c.advance(234);
        assert_eq!(c.delta_since(before), 234);
    }

    #[test]
    fn write_masks_to_width() {
        let mut c = HwCounter::new();
        c.write(u64::MAX);
        assert_eq!(c.read(), COUNTER_MASK);
        assert_eq!(HwCounter::with_value(u64::MAX).read(), COUNTER_MASK);
    }
}
