//! Simulated time: picosecond instants and durations.
//!
//! [`SimTime`] is an instant on the simulated clock; [`SimDuration`] is a
//! span between instants. Both wrap a `u64` count of picoseconds, which
//! represents every interval used by the memory-network model exactly
//! (e.g. a 0.64 ns flit time is 640 ps) and supports simulations of up to
//! ~213 days of simulated time without overflow.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Number of picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Number of picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Number of picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant on the simulated clock, in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use memnet_simcore::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_ns(3);
/// assert_eq!(t.as_ps(), 3_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_ns(3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use memnet_simcore::SimDuration;
///
/// let flit = SimDuration::from_ps(640);
/// assert_eq!(flit * 5, SimDuration::from_ns(3) + SimDuration::from_ps(200));
/// assert_eq!(flit.as_ns(), 0.64);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (time zero).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a raw picosecond count.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Returns this instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Returns this instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Duration since an earlier instant, saturating to zero if `earlier`
    /// is actually later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from a raw picosecond count.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from an integer nanosecond count.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// The longest span [`SimDuration::try_from_us`] accepts, in
    /// microseconds: half the picosecond clock (~106 days), so a run
    /// that long still has the other half for the engine's `end + epoch`
    /// and every other offset scheduled past the end of a run.
    pub const MAX_US: u64 = u64::MAX / 2 / PS_PER_US;

    /// Creates a duration from an integer microsecond count.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows the picosecond clock. Counts from
    /// outside the program go through [`SimDuration::try_from_us`].
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        match us.checked_mul(PS_PER_US) {
            Some(ps) => SimDuration(ps),
            None => panic!("microsecond count overflows the picosecond clock"),
        }
    }

    /// Creates a duration from an integer microsecond count, or `None`
    /// when `us` exceeds [`SimDuration::MAX_US`].
    ///
    /// ```
    /// use memnet_simcore::SimDuration;
    ///
    /// assert_eq!(SimDuration::try_from_us(3), Some(SimDuration::from_us(3)));
    /// assert!(SimDuration::try_from_us(SimDuration::MAX_US).is_some());
    /// assert_eq!(SimDuration::try_from_us(SimDuration::MAX_US + 1), None);
    /// // Unchecked, this count wrapped to a 448 ns window.
    /// assert_eq!(SimDuration::try_from_us(18_446_744_073_710), None);
    /// ```
    #[inline]
    pub const fn try_from_us(us: u64) -> Option<Self> {
        if us > Self::MAX_US {
            None
        } else {
            Some(SimDuration(us * PS_PER_US))
        }
    }

    /// Creates a duration from an integer millisecond count.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "duration must be a non-negative finite number of ns, got {ns}"
        );
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns this duration expressed in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Returns this duration expressed in (fractional) microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Returns this duration expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction that saturates at zero instead of panicking.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the shorter of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns the longer of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Multiplies by a floating-point scale factor, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be non-negative and finite, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The ratio of this duration to another, as a float.
    ///
    /// Returns 0.0 when `denom` is zero (a zero-length observation window
    /// contributes nothing to any utilization average).
    #[inline]
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_and_duration_arithmetic_round_trips() {
        let t0 = SimTime::from_ps(1_000);
        let d = SimDuration::from_ns(3);
        let t1 = t0 + d;
        assert_eq!(t1.as_ps(), 4_000);
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn conversions_are_exact_for_model_constants() {
        // The model's fundamental interval: one flit over a full-width link.
        let flit = SimDuration::from_ns_f64(0.64);
        assert_eq!(flit.as_ps(), 640);
        // Router cycle equals flit time; four-cycle router latency.
        assert_eq!((flit * 4).as_ps(), 2_560);
        // Epoch length.
        assert_eq!(SimDuration::from_us(100).as_ps(), 100 * PS_PER_US);
    }

    #[test]
    #[should_panic(expected = "overflows the picosecond clock")]
    fn from_us_panics_instead_of_wrapping() {
        let _ = SimDuration::from_us(std::hint::black_box(18_446_744_073_710));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_ps(10);
        let late = SimTime::from_ps(50);
        assert_eq!(late.saturating_since(early).as_ps(), 40);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let d = SimDuration::from_ns(10);
        assert_eq!(d.ratio(SimDuration::ZERO), 0.0);
        assert!((d.ratio(SimDuration::from_ns(40)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_rounds_to_nearest_ps() {
        let d = SimDuration::from_ps(3);
        assert_eq!(d.mul_f64(0.5).as_ps(), 2); // 1.5 rounds to 2
        assert_eq!(d.mul_f64(1.0 / 3.0).as_ps(), 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_ns_f64_rejects_negative() {
        let _ = SimDuration::from_ns_f64(-1.0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", SimTime::from_ps(640)), "0.640ns");
        assert_eq!(format!("{}", SimDuration::from_ns(14)), "14.000ns");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }
}
