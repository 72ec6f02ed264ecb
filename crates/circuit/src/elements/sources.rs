//! Time-domain waveforms for independent sources.

/// The value of an independent source as a function of time: a constant, or
/// an ideal step, the two shapes the op-amp testbenches drive.
///
/// The DC value (used by operating-point analysis) is the constant, or the
/// step's value before its delay.
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
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// Ideal step from `initial` to `final_value` just after `delay`.
    Step {
        /// Value up to and at `delay`.
        initial: f64,
        /// Value after `delay`.
        final_value: f64,
        /// Time of the step, in seconds.
        delay: f64,
    },
}

impl SourceWaveform {
    /// Constant (DC) waveform.
    pub fn dc(value: f64) -> Self {
        SourceWaveform::Dc(value)
    }

    /// Ideal step from `initial` to `final_value` at `delay`.
    pub fn step(initial: f64, final_value: f64, delay: f64) -> Self {
        SourceWaveform::Step { initial, final_value, delay }
    }

    /// DC value used by operating-point analyses.
    pub fn dc_value(&self) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Step { initial, .. } => *initial,
        }
    }

    /// The time after which the waveform never changes value again: 0 for
    /// [`SourceWaveform::Dc`] and the delay for a step.
    pub(crate) fn last_change(&self) -> f64 {
        match self {
            SourceWaveform::Dc(_) => 0.0,
            SourceWaveform::Step { delay, .. } => *delay,
        }
    }

    /// Value of the waveform at time `t` (seconds).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Step { initial, final_value, delay } => {
                if t <= *delay {
                    *initial
                } else {
                    *final_value
                }
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
        let w = SourceWaveform::step(0.0, 1.0, 1e-6);
        assert_eq!(w.value_at(0.5e-6), 0.0);
        assert_eq!(w.value_at(1e-6), 0.0);
        assert_eq!(w.value_at(1.5e-6), 1.0);
        assert_eq!(w.value_at(3e-6), 1.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn last_change_is_where_each_waveform_turns_constant() {
        assert_eq!(SourceWaveform::dc(1.0).last_change(), 0.0);
        let step = SourceWaveform::step(0.0, 1.0, 2e-6);
        assert_eq!(step.last_change(), 2e-6);
        for t in [2e-6 + 1e-12, 1.0, 1e9] {
            assert_eq!(step.value_at(t), 1.0);
        }
    }
}
