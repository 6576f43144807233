//! Saturating counters.
//!
//! Two flavours are used throughout the reproduction:
//!
//! * [`SatWeight`] — a signed saturating integer used for perceptron weights
//!   (POPET's 5-bit weights clamp to \[−16, +15\], §6.1 of the paper) and for
//!   perceptron branch-predictor weights.
//! * [`SatCounter`] — an unsigned saturating counter used by bimodal /
//!   gshare / gskew hit-miss predictor components, SHiP's signature counters,
//!   and prefetcher confidence estimators.

/// A signed saturating integer confined to an inclusive `[min, max]` range.
///
/// # Example
///
/// ```
/// use hermes_types::SatWeight;
///
/// let mut w = SatWeight::new_bits(5); // 5-bit: [-16, 15]
/// for _ in 0..40 { w.increment(); }
/// assert_eq!(w.get(), 15);
/// for _ in 0..64 { w.decrement(); }
/// assert_eq!(w.get(), -16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatWeight {
    value: i16,
    min: i16,
    max: i16,
}

impl SatWeight {
    /// A weight constrained to the range of a `bits`-wide two's-complement
    /// integer: `[-2^(bits-1), 2^(bits-1) - 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 15.
    pub fn new_bits(bits: u32) -> Self {
        assert!(
            (1..=15).contains(&bits),
            "weight width out of range: {bits}"
        );
        let max = (1i16 << (bits - 1)) - 1;
        let min = -(1i16 << (bits - 1));
        Self { value: 0, min, max }
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> i16 {
        self.value
    }

    /// Inclusive lower bound.
    #[inline]
    pub fn min(self) -> i16 {
        self.min
    }

    /// Inclusive upper bound.
    #[inline]
    pub fn max(self) -> i16 {
        self.max
    }

    /// Adds one, saturating at the upper bound.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Subtracts one, saturating at the lower bound.
    #[inline]
    pub fn decrement(&mut self) {
        if self.value > self.min {
            self.value -= 1;
        }
    }

    /// Moves the weight one step toward the given outcome: increment on
    /// `true`, decrement on `false` — the POPET §6.1.2 update rule.
    #[inline]
    pub fn train(&mut self, toward_positive: bool) {
        if toward_positive {
            self.increment();
        } else {
            self.decrement();
        }
    }

    /// Sets the value, clamping to bounds.
    #[inline]
    pub fn set(&mut self, v: i16) {
        self.value = v.clamp(self.min, self.max);
    }
}

impl Default for SatWeight {
    /// A 5-bit weight (POPET's width).
    fn default() -> Self {
        Self::new_bits(5)
    }
}

/// An unsigned saturating counter in `[0, 2^bits - 1]`.
///
/// # Example
///
/// ```
/// use hermes_types::SatCounter;
///
/// let mut c = SatCounter::new(2); // 2-bit: 0..=3
/// c.increment();
/// c.increment();
/// assert!(c.is_set()); // >= midpoint
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u16,
    max: u16,
}

impl SatCounter {
    /// A counter of the given bit width, initialised to the weakly-not-taken
    /// midpoint minus one (i.e. `max/2`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 15.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=15).contains(&bits),
            "counter width out of range: {bits}"
        );
        let max = (1u16 << bits) - 1;
        Self {
            value: max / 2,
            max,
        }
    }

    /// A counter initialised to zero.
    pub fn new_zero(bits: u32) -> Self {
        let mut c = Self::new(bits);
        c.value = 0;
        c
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u16 {
        self.value
    }

    /// Maximum representable value.
    #[inline]
    pub fn max(self) -> u16 {
        self.max
    }

    /// Adds one, saturating.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Subtracts one, saturating at zero.
    #[inline]
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Trains toward an outcome (increment on `true`).
    #[inline]
    pub fn train(&mut self, toward: bool) {
        if toward {
            self.increment();
        } else {
            self.decrement();
        }
    }

    /// Whether the counter is in its upper half (the "predict taken/miss"
    /// region of a bimodal counter).
    #[inline]
    pub fn is_set(self) -> bool {
        self.value > self.max / 2
    }

    /// Resets to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl Default for SatCounter {
    /// A 2-bit counter, the classic bimodal width.
    fn default() -> Self {
        Self::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_bits_bounds() {
        let w = SatWeight::new_bits(5);
        assert_eq!(w.min(), -16);
        assert_eq!(w.max(), 15);
        assert_eq!(w.get(), 0);
    }

    #[test]
    fn weight_saturates_both_rails() {
        let mut w = SatWeight::new_bits(3); // [-4, 3]
        for _ in 0..10 {
            w.increment();
        }
        assert_eq!(w.get(), 3);
        for _ in 0..20 {
            w.decrement();
        }
        assert_eq!(w.get(), -4);
    }

    #[test]
    fn weight_train_direction() {
        let mut w = SatWeight::new_bits(5);
        w.train(true);
        assert_eq!(w.get(), 1);
        w.train(false);
        w.train(false);
        assert_eq!(w.get(), -1);
    }

    #[test]
    fn weight_set_clamps() {
        let mut w = SatWeight::new_bits(5);
        w.set(100);
        assert_eq!(w.get(), 15);
        w.set(-100);
        assert_eq!(w.get(), -16);
    }

    #[test]
    #[should_panic]
    fn weight_zero_bits_panics() {
        let _ = SatWeight::new_bits(0);
    }

    #[test]
    fn counter_midpoint_init() {
        let c = SatCounter::new(2);
        assert_eq!(c.get(), 1);
        assert!(!c.is_set());
    }

    #[test]
    fn counter_saturates() {
        let mut c = SatCounter::new(2);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.get(), 3);
        for _ in 0..10 {
            c.decrement();
        }
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_set_threshold() {
        let mut c = SatCounter::new_zero(3); // max 7, midpoint 3
        assert!(!c.is_set());
        for _ in 0..4 {
            c.increment();
        }
        assert!(c.is_set());
    }
}
