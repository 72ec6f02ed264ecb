//! Time-domain waveforms and the measurements the specification tests need.

use crate::{CircuitError, Result};

/// A sampled time-domain signal.
///
/// # Example
///
/// ```
/// use stc_circuit::Waveform;
///
/// let w = Waveform::new(
///     (0..=100).map(|i| i as f64 * 1e-6).collect(),
///     (0..=100).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect(),
/// );
/// assert_eq!(w.final_value(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from parallel time/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or are empty.
    pub fn new(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times and values must have equal length");
        assert!(!times.is_empty(), "waveform must contain at least one sample");
        Waveform { times, values }
    }

    /// Sample times in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the waveform is empty (never true for constructed waveforms).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// First sampled value.
    pub fn initial_value(&self) -> f64 {
        self.values[0]
    }

    /// Last sampled value (used as the settled steady-state value).
    pub fn final_value(&self) -> f64 {
        *self.values.last().expect("waveform is never empty")
    }

    /// Largest sampled value.
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest sampled value.
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Linear interpolation of the value at time `t` (clamped to the range).
    pub fn value_at(&self, t: f64) -> f64 {
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= *self.times.last().expect("non-empty") {
            return self.final_value();
        }
        for i in 1..self.times.len() {
            if t <= self.times[i] {
                let t0 = self.times[i - 1];
                let t1 = self.times[i];
                let v0 = self.values[i - 1];
                let v1 = self.values[i];
                if t1 - t0 <= 0.0 {
                    return v1;
                }
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
            }
        }
        self.final_value()
    }

    /// First time at which the waveform crosses `threshold` going in the
    /// direction of the final value, using linear interpolation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MeasurementFailed`] if the waveform never
    /// crosses the threshold.
    pub fn first_crossing(&self, threshold: f64) -> Result<f64> {
        let rising = self.final_value() >= self.initial_value();
        for i in 1..self.len() {
            let (v0, v1) = (self.values[i - 1], self.values[i]);
            let crossed = if rising {
                v0 < threshold && v1 >= threshold
            } else {
                v0 > threshold && v1 <= threshold
            };
            if crossed {
                let t0 = self.times[i - 1];
                let t1 = self.times[i];
                if (v1 - v0).abs() < f64::EPSILON {
                    return Ok(t1);
                }
                return Ok(t0 + (threshold - v0) / (v1 - v0) * (t1 - t0));
            }
        }
        Err(CircuitError::MeasurementFailed {
            measurement: "first_crossing",
            reason: format!("waveform never crosses {threshold}"),
        })
    }

    /// 10 %–90 % rise time of a step response.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MeasurementFailed`] if the waveform does not
    /// traverse both thresholds.
    pub fn rise_time(&self) -> Result<f64> {
        let initial = self.initial_value();
        let final_value = self.final_value();
        let swing = final_value - initial;
        if swing.abs() < 1e-15 {
            return Err(CircuitError::MeasurementFailed {
                measurement: "rise_time",
                reason: "waveform has no net transition".to_string(),
            });
        }
        let t10 = self.first_crossing(initial + 0.1 * swing)?;
        let t90 = self.first_crossing(initial + 0.9 * swing)?;
        Ok((t90 - t10).abs())
    }

    /// Overshoot of a step response as a fraction of the final swing
    /// (0 when the response never exceeds its settled value).
    pub fn overshoot(&self) -> f64 {
        let initial = self.initial_value();
        let final_value = self.final_value();
        let swing = final_value - initial;
        if swing.abs() < 1e-15 {
            return 0.0;
        }
        if swing > 0.0 {
            ((self.max_value() - final_value) / swing).max(0.0)
        } else {
            ((final_value - self.min_value()) / -swing).max(0.0)
        }
    }

    /// Time after which the waveform stays within `tolerance` (fraction of the
    /// final swing) of its final value, measured from the first sample.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MeasurementFailed`] if the waveform has no net
    /// transition to settle toward.
    pub fn settling_time(&self, tolerance: f64) -> Result<f64> {
        let initial = self.initial_value();
        let final_value = self.final_value();
        let swing = (final_value - initial).abs();
        if swing < 1e-15 {
            return Err(CircuitError::MeasurementFailed {
                measurement: "settling_time",
                reason: "waveform has no net transition".to_string(),
            });
        }
        let band = tolerance * swing;
        let mut settled_at = self.times[0];
        let mut settled = true;
        for i in 0..self.len() {
            if (self.values[i] - final_value).abs() > band {
                settled = false;
            } else if !settled {
                settled = true;
                settled_at = self.times[i];
            }
        }
        Ok(settled_at - self.times[0])
    }

    /// Maximum absolute slope of the waveform (V/s), the slew-rate estimator.
    pub fn max_slope(&self) -> f64 {
        let mut slope = 0.0f64;
        for i in 1..self.len() {
            let dt = self.times[i] - self.times[i - 1];
            if dt > 0.0 {
                slope = slope.max(((self.values[i] - self.values[i - 1]) / dt).abs());
            }
        }
        slope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Analytic step response of a second-order system with damping `zeta`;
    /// its peak overshoot is exp(-pi*zeta/sqrt(1-zeta^2)).
    fn second_order_step(zeta: f64, wn: f64, n: usize, t_stop: f64) -> Waveform {
        let root = (1.0 - zeta * zeta).sqrt();
        let wd = wn * root;
        let times: Vec<f64> = (0..n).map(|i| t_stop * i as f64 / (n - 1) as f64).collect();
        let values = times
            .iter()
            .map(|&t| {
                1.0 - (-zeta * wn * t).exp() * ((wd * t).cos() + (zeta / root) * (wd * t).sin())
            })
            .collect();
        Waveform::new(times, values)
    }

    #[test]
    fn rise_time_of_first_order_step() {
        // v(t) = 1 - exp(-t/tau): rise time = tau * ln(9) ≈ 2.197 tau.
        let tau = 1e-3;
        let times: Vec<f64> = (0..2000).map(|i| i as f64 * 5e-6).collect();
        let values: Vec<f64> = times.iter().map(|&t| 1.0 - (-t / tau).exp()).collect();
        let w = Waveform::new(times, values);
        let tr = w.rise_time().unwrap();
        assert!((tr / (tau * 9f64.ln()) - 1.0).abs() < 0.02, "rise time {tr}");
        assert!(w.overshoot() < 1e-6);
    }

    #[test]
    fn overshoot_of_underdamped_second_order_step() {
        let zeta = 0.2;
        let w = second_order_step(zeta, 2.0 * std::f64::consts::PI * 1000.0, 4000, 10e-3);
        let expected = (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp();
        let measured = w.overshoot();
        assert!((measured - expected).abs() < 0.05, "overshoot {measured} vs {expected}");
    }

    #[test]
    fn settling_time_increases_with_tighter_tolerance() {
        let w = second_order_step(0.3, 2.0 * std::f64::consts::PI * 1000.0, 4000, 10e-3);
        let loose = w.settling_time(0.05).unwrap();
        let tight = w.settling_time(0.01).unwrap();
        assert!(tight >= loose);
        assert!(loose > 0.0);
    }

    #[test]
    fn max_slope_of_a_ramp() {
        let times: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let values: Vec<f64> = times.iter().map(|&t| 2.0 * t).collect();
        let w = Waveform::new(times, values);
        assert!((w.max_slope() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn value_at_interpolates_and_clamps() {
        let w = Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 20.0]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 5.0);
        assert_eq!(w.value_at(5.0), 20.0);
        assert_eq!(w.initial_value(), 0.0);
        assert_eq!(w.final_value(), 20.0);
        assert_eq!(w.max_value(), 20.0);
        assert_eq!(w.min_value(), 0.0);
    }

    #[test]
    fn missing_crossing_is_an_error() {
        let w = Waveform::new(vec![0.0, 1.0], vec![0.0, 0.5]);
        assert!(w.first_crossing(2.0).is_err());
        let flat = Waveform::new(vec![0.0, 1.0], vec![1.0, 1.0]);
        assert!(flat.rise_time().is_err());
        assert!(flat.settling_time(0.01).is_err());
        assert_eq!(flat.overshoot(), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = Waveform::new(vec![0.0, 1.0], vec![0.0]);
    }
}
