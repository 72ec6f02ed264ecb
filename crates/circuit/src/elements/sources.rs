//! Time-domain waveforms for independent sources.

use serde::{Deserialize, Serialize};

/// The value of an independent source as a function of time.
///
/// The DC value (used by operating-point analysis) is the waveform evaluated
/// at `t = 0`, except for [`SourceWaveform::Sine`] where it is the offset.
///
/// # Example
///
/// ```
/// use stc_circuit::SourceWaveform;
///
/// let step = SourceWaveform::step(0.0, 1.0, 1e-6);
/// assert_eq!(step.value_at(0.0), 0.0);
/// assert_eq!(step.value_at(2e-6), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// Step from `initial` to `final_value` at `delay`, with linear `rise_time`.
    Step {
        /// Value before the step.
        initial: f64,
        /// Value after the step.
        final_value: f64,
        /// Time at which the transition starts, in seconds.
        delay: f64,
        /// Duration of the linear ramp, in seconds (0 gives an ideal step).
        rise_time: f64,
    },
    /// Periodic pulse train (SPICE `PULSE`).
    Pulse {
        /// Value during the "low" phase.
        low: f64,
        /// Value during the "high" phase.
        high: f64,
        /// Delay before the first rising edge, in seconds.
        delay: f64,
        /// Rise time, in seconds.
        rise: f64,
        /// Fall time, in seconds.
        fall: f64,
        /// Width of the high phase, in seconds.
        width: f64,
        /// Period, in seconds.
        period: f64,
    },
    /// Sinusoid `offset + amplitude * sin(2π f (t - delay))` for `t >= delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        frequency: f64,
        /// Start delay in seconds.
        delay: f64,
    },
    /// Piece-wise-linear waveform given as `(time, value)` breakpoints
    /// (held constant outside the given range).
    Pwl {
        /// Breakpoints sorted by time.
        points: Vec<(f64, f64)>,
    },
}

impl SourceWaveform {
    /// Constant (DC) waveform.
    pub fn dc(value: f64) -> Self {
        SourceWaveform::Dc(value)
    }

    /// Ideal-ish step with a finite rise time.
    pub fn step(initial: f64, final_value: f64, delay: f64) -> Self {
        SourceWaveform::Step { initial, final_value, delay, rise_time: 0.0 }
    }

    /// Step with an explicit linear ramp duration.
    pub fn ramp_step(initial: f64, final_value: f64, delay: f64, rise_time: f64) -> Self {
        SourceWaveform::Step { initial, final_value, delay, rise_time }
    }

    /// Sinusoid around `offset`.
    pub fn sine(offset: f64, amplitude: f64, frequency: f64) -> Self {
        SourceWaveform::Sine { offset, amplitude, frequency, delay: 0.0 }
    }

    /// DC value used by operating-point analyses.
    pub fn dc_value(&self) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Step { initial, .. } => *initial,
            SourceWaveform::Pulse { low, .. } => *low,
            SourceWaveform::Sine { offset, .. } => *offset,
            SourceWaveform::Pwl { points } => points.first().map(|p| p.1).unwrap_or(0.0),
        }
    }

    /// The time after which the waveform never changes value again: 0 for
    /// [`SourceWaveform::Dc`], the end of the ramp for a step, the last
    /// breakpoint for a PWL, and `+∞` for the pulse train and the sinusoid,
    /// which never stop changing.
    pub(crate) fn last_change(&self) -> f64 {
        match self {
            SourceWaveform::Dc(_) => 0.0,
            SourceWaveform::Step { delay, rise_time, .. } => delay + rise_time.max(0.0),
            SourceWaveform::Pulse { .. } | SourceWaveform::Sine { .. } => f64::INFINITY,
            SourceWaveform::Pwl { points } => {
                points.iter().map(|point| point.0).fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }

    /// Value of the waveform at time `t` (seconds).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Step { initial, final_value, delay, rise_time } => {
                if t <= *delay {
                    *initial
                } else if *rise_time <= 0.0 || t >= delay + rise_time {
                    *final_value
                } else {
                    let frac = (t - delay) / rise_time;
                    initial + (final_value - initial) * frac
                }
            }
            SourceWaveform::Pulse { low, high, delay, rise, fall, width, period } => {
                if t < *delay || *period <= 0.0 {
                    return *low;
                }
                let tp = (t - delay) % period;
                if tp < *rise {
                    if *rise <= 0.0 {
                        *high
                    } else {
                        low + (high - low) * tp / rise
                    }
                } else if tp < rise + width {
                    *high
                } else if tp < rise + width + fall {
                    if *fall <= 0.0 {
                        *low
                    } else {
                        high - (high - low) * (tp - rise - width) / fall
                    }
                } else {
                    *low
                }
            }
            SourceWaveform::Sine { offset, amplitude, frequency, delay } => {
                if t < *delay {
                    *offset
                } else {
                    offset + amplitude * (std::f64::consts::TAU * frequency * (t - delay)).sin()
                }
            }
            SourceWaveform::Pwl { points } => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for pair in points.windows(2) {
                    let (t0, v0) = pair[0];
                    let (t1, v1) = pair[1];
                    if t <= t1 {
                        if t1 - t0 <= 0.0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().map(|p| p.1).unwrap_or(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = SourceWaveform::dc(2.5);
        assert_eq!(w.dc_value(), 2.5);
        assert_eq!(w.value_at(123.0), 2.5);
    }

    #[test]
    fn step_transitions_after_delay() {
        let w = SourceWaveform::ramp_step(0.0, 1.0, 1e-6, 1e-6);
        assert_eq!(w.value_at(0.5e-6), 0.0);
        assert!((w.value_at(1.5e-6) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(3e-6), 1.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn pulse_repeats_with_period() {
        let w = SourceWaveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 0.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.3,
            period: 1.0,
        };
        assert!((w.value_at(0.05) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(0.2), 1.0);
        assert_eq!(w.value_at(0.7), 0.0);
        assert_eq!(w.value_at(1.2), 1.0);
    }

    #[test]
    fn sine_starts_at_offset() {
        let w = SourceWaveform::sine(1.0, 0.5, 1000.0);
        assert_eq!(w.dc_value(), 1.0);
        assert!((w.value_at(0.0) - 1.0).abs() < 1e-12);
        assert!((w.value_at(0.25e-3) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn last_change_is_where_each_waveform_turns_constant() {
        assert_eq!(SourceWaveform::dc(1.0).last_change(), 0.0);
        assert_eq!(SourceWaveform::step(0.0, 1.0, 2e-6).last_change(), 2e-6);
        assert_eq!(SourceWaveform::ramp_step(0.0, 1.0, 1.0, 0.5).last_change(), 1.5);
        assert_eq!(SourceWaveform::sine(0.0, 1.0, 1e3).last_change(), f64::INFINITY);
        let pwl = SourceWaveform::Pwl { points: vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)] };
        assert_eq!(pwl.last_change(), 3.0);
        for t in [3.0, 4.0, 1e9] {
            assert_eq!(pwl.value_at(t), pwl.value_at(pwl.last_change()));
        }
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = SourceWaveform::Pwl { points: vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)] };
        assert_eq!(w.value_at(-1.0), 0.0);
        assert!((w.value_at(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.value_at(5.0), 2.0);
        let empty = SourceWaveform::Pwl { points: vec![] };
        assert_eq!(empty.value_at(1.0), 0.0);
    }
}
