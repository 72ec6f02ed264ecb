//! Two-stage Miller-compensated CMOS operational amplifier.
//!
//! The topology is the classic Allen–Holberg two-stage op-amp: an NMOS
//! differential pair with PMOS current-mirror load, an NMOS tail current
//! source biased by a diode-connected mirror, and a PMOS common-source second
//! stage with an NMOS current-sink load, Miller compensation capacitor `Cc`
//! and an external load capacitor `CL`.
//!
//! Eleven specification measurements (matching Table 1 of the paper) are
//! provided; each builds the appropriate testbench around the amplifier core
//! and runs DC, AC or transient analysis with the simulator in this crate.

use std::f64::consts::FRAC_1_SQRT_2;

use crate::ac::{ac_analysis, ac_sweep_until, log_frequency_sweep, AcSweep};
use crate::dc::{dc_operating_point, DcSolution};
use crate::elements::{MosfetModel, MosfetPolarity, SourceWaveform};
use crate::measure;
use crate::netlist::{Circuit, NodeId};
use crate::transient::{transient_analysis_from, TransientParams};
use crate::Result;

/// Very large inductance used to close the DC feedback loop while leaving the
/// loop open for AC analysis (standard "big-L" open-loop testbench trick).
const FEEDBACK_INDUCTANCE: f64 = 1e9;
/// Very large capacitance used to couple the AC stimulus into the loop while
/// blocking DC.
const COUPLING_CAPACITANCE: f64 = 1e9;
/// Time of the input step in the step-response and slew-rate testbenches
/// (seconds).
const STEP_DELAY: f64 = 0.2e-6;

/// Geometry and bias parameters of the op-amp.
///
/// All transistor geometries are in metres; the defaults are a textbook
/// 0.5 µm-class sizing.  Monte-Carlo process variation perturbs these fields
/// (see [`crate::variation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmpParams {
    /// Differential-pair width (M1, M2).
    pub w_diff: f64,
    /// Differential-pair length (M1, M2).
    pub l_diff: f64,
    /// Mirror-load width (M3, M4).
    pub w_load: f64,
    /// Mirror-load length (M3, M4).
    pub l_load: f64,
    /// Tail/bias-mirror width (M5, M8).
    pub w_tail: f64,
    /// Tail/bias-mirror length (M5, M8).
    pub l_tail: f64,
    /// Second-stage driver width (M6).
    pub w_driver: f64,
    /// Second-stage driver length (M6).
    pub l_driver: f64,
    /// Second-stage sink width (M7).
    pub w_sink: f64,
    /// Second-stage sink length (M7).
    pub l_sink: f64,
    /// Miller compensation capacitance in farads.
    pub compensation_capacitance: f64,
    /// Load capacitance in farads.
    pub load_capacitance: f64,
    /// Bias reference current in amperes.
    pub bias_current: f64,
    /// Positive/negative supply magnitude in volts (`VDD = +supply`, `VSS = -supply`).
    pub supply: f64,
    /// NMOS model card.
    pub nmos: MosfetModel,
    /// PMOS model card.
    pub pmos: MosfetModel,
}

impl OpAmpParams {
    /// Textbook nominal sizing (0.5 µm models, ±2.5 V supplies, 30 µA bias,
    /// 3 pF Miller capacitor, 10 pF load).
    pub fn nominal() -> Self {
        OpAmpParams {
            w_diff: 3.0e-6,
            l_diff: 1.0e-6,
            w_load: 15.0e-6,
            l_load: 1.0e-6,
            w_tail: 4.5e-6,
            l_tail: 1.0e-6,
            w_driver: 94.0e-6,
            l_driver: 1.0e-6,
            w_sink: 14.0e-6,
            l_sink: 1.0e-6,
            compensation_capacitance: 3e-12,
            load_capacitance: 10e-12,
            bias_current: 30e-6,
            supply: 2.5,
            nmos: MosfetModel::nmos_default(),
            pmos: MosfetModel::pmos_default(),
        }
    }

    /// The geometry fields as a mutable list of `(name, value)` pairs,
    /// used by the process-variation machinery.
    pub fn geometry_fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("w_diff", self.w_diff),
            ("l_diff", self.l_diff),
            ("w_load", self.w_load),
            ("l_load", self.l_load),
            ("w_tail", self.w_tail),
            ("l_tail", self.l_tail),
            ("w_driver", self.w_driver),
            ("l_driver", self.l_driver),
            ("w_sink", self.w_sink),
            ("l_sink", self.l_sink),
            ("compensation_capacitance", self.compensation_capacitance),
            ("load_capacitance", self.load_capacitance),
        ]
    }

    /// Sets a geometry field by name (inverse of [`OpAmpParams::geometry_fields`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a geometry field.
    pub fn set_geometry_field(&mut self, name: &str, value: f64) {
        match name {
            "w_diff" => self.w_diff = value,
            "l_diff" => self.l_diff = value,
            "w_load" => self.w_load = value,
            "l_load" => self.l_load = value,
            "w_tail" => self.w_tail = value,
            "l_tail" => self.l_tail = value,
            "w_driver" => self.w_driver = value,
            "l_driver" => self.l_driver = value,
            "w_sink" => self.w_sink = value,
            "l_sink" => self.l_sink = value,
            "compensation_capacitance" => self.compensation_capacitance = value,
            "load_capacitance" => self.load_capacitance = value,
            other => panic!("unknown op-amp geometry field {other}"),
        }
    }
}

impl Default for OpAmpParams {
    fn default() -> Self {
        OpAmpParams::nominal()
    }
}

/// The eleven specification measurements of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmpMeasurements {
    /// Open-loop DC gain (V/V).
    pub gain: f64,
    /// Open-loop -3 dB bandwidth (Hz).
    pub bandwidth_3db: f64,
    /// Unity-gain frequency (Hz).
    pub unity_gain_frequency: f64,
    /// Slew rate (V/µs).
    pub slew_rate: f64,
    /// Small-signal 10–90 % rise time (µs).
    pub rise_time: f64,
    /// Small-signal step overshoot (fraction of the step).
    pub overshoot: f64,
    /// 1 % settling time (µs), from the input step to the time after which
    /// the output stays within 1 % of the step of its final value.
    pub settling_time: f64,
    /// Quiescent supply current (µA).
    pub quiescent_current: f64,
    /// Common-mode gain (V/V).
    pub common_mode_gain: f64,
    /// Power-supply gain from VDD to the output (V/V).
    pub power_supply_gain: f64,
    /// Output short-circuit current (µA).
    pub short_circuit_current: f64,
}

impl OpAmpMeasurements {
    /// The measurements as a vector in the canonical Table 1 order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.gain,
            self.bandwidth_3db,
            self.unity_gain_frequency,
            self.slew_rate,
            self.rise_time,
            self.overshoot,
            self.settling_time,
            self.quiescent_current,
            self.common_mode_gain,
            self.power_supply_gain,
            self.short_circuit_current,
        ]
    }

    /// Names of the eleven specifications in the same order as
    /// [`OpAmpMeasurements::to_vec`].
    pub fn names() -> &'static [&'static str] {
        &[
            "gain",
            "3-dB bandwidth",
            "unity gain frequency",
            "slew rate",
            "rise time",
            "overshoot",
            "settling time",
            "quiescent current",
            "common mode gain",
            "power supply gain",
            "short circuit current",
        ]
    }

    /// Units of the eleven specifications, matching Table 1 of the paper.
    pub fn units() -> &'static [&'static str] {
        &["V/V", "Hz", "MHz", "V/us", "us", "%", "us", "uA", "V/V", "V/V", "uA"]
    }
}

/// Internal node bundle shared by the testbench builders.
struct CoreNodes {
    inp: NodeId,
    inn: NodeId,
    out: NodeId,
}

/// A two-stage CMOS operational amplifier with its measurement testbenches.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAmp {
    params: OpAmpParams,
}

impl OpAmp {
    /// Creates an op-amp with the given parameters.
    pub fn new(params: OpAmpParams) -> Self {
        OpAmp { params }
    }

    /// The parameters this instance was built with.
    pub fn params(&self) -> &OpAmpParams {
        &self.params
    }

    /// Instantiates the amplifier core into `circuit`.
    ///
    /// Creates the supply sources (`VDD = +supply`, `VSS = -supply`) and all
    /// transistors; returns the node bundle used by the testbenches.
    /// `vdd_ac_magnitude` is VDD's small-signal AC magnitude (1 for the
    /// power-supply-gain measurement, 0 otherwise).
    fn build_core(&self, circuit: &mut Circuit, vdd_ac_magnitude: f64) -> Result<CoreNodes> {
        let p = &self.params;
        let gnd = Circuit::ground();
        let vdd = circuit.node("vdd");
        let vss = circuit.node("vss");
        let inp = circuit.node("inp");
        let inn = circuit.node("inn");
        let out = circuit.node("out");
        let n1 = circuit.node("n1");
        let n2 = circuit.node("n2");
        let ntail = circuit.node("ntail");
        let nbias = circuit.node("nbias");

        circuit.ac_voltage_source(
            "VDD",
            vdd,
            gnd,
            SourceWaveform::dc(p.supply),
            vdd_ac_magnitude,
        )?;
        circuit.voltage_source("VSS", vss, gnd, SourceWaveform::dc(-p.supply))?;

        // Bias chain: Iref from VDD into the diode-connected M8.
        circuit.current_source("IBIAS", vdd, nbias, SourceWaveform::dc(p.bias_current))?;
        circuit.mosfet(
            "M8",
            nbias,
            nbias,
            vss,
            MosfetPolarity::Nmos,
            p.nmos,
            p.w_tail,
            p.l_tail,
        )?;

        // First stage: NMOS differential pair with PMOS mirror load.
        circuit.mosfet("M1", n1, inn, ntail, MosfetPolarity::Nmos, p.nmos, p.w_diff, p.l_diff)?;
        circuit.mosfet("M2", n2, inp, ntail, MosfetPolarity::Nmos, p.nmos, p.w_diff, p.l_diff)?;
        circuit.mosfet("M3", n1, n1, vdd, MosfetPolarity::Pmos, p.pmos, p.w_load, p.l_load)?;
        circuit.mosfet("M4", n2, n1, vdd, MosfetPolarity::Pmos, p.pmos, p.w_load, p.l_load)?;
        circuit.mosfet(
            "M5",
            ntail,
            nbias,
            vss,
            MosfetPolarity::Nmos,
            p.nmos,
            p.w_tail,
            p.l_tail,
        )?;

        // Second stage: PMOS common source with NMOS current-sink load.
        circuit.mosfet("M6", out, n2, vdd, MosfetPolarity::Pmos, p.pmos, p.w_driver, p.l_driver)?;
        circuit.mosfet("M7", out, nbias, vss, MosfetPolarity::Nmos, p.nmos, p.w_sink, p.l_sink)?;

        // Compensation and load.
        circuit.capacitor("CC", n2, out, p.compensation_capacitance)?;
        circuit.capacitor("CL", out, gnd, p.load_capacitance)?;

        Ok(CoreNodes { inp, inn, out })
    }

    /// Open-loop AC testbench: DC unity feedback through a huge inductor, AC
    /// drive into the inverting input through a huge capacitor.
    ///
    /// `drive_both_inputs` additionally couples the stimulus to the
    /// non-inverting input, turning the differential measurement into a
    /// common-mode measurement.
    fn ac_testbench(&self, drive_both_inputs: bool) -> Result<(Circuit, NodeId)> {
        let mut circuit = Circuit::new();
        let nodes = self.build_core(&mut circuit, 0.0)?;
        let gnd = Circuit::ground();
        let vsrc = circuit.node("vac");
        circuit.ac_voltage_source("VAC", vsrc, gnd, SourceWaveform::dc(0.0), 1.0)?;
        circuit.inductor("LFB", nodes.out, nodes.inn, FEEDBACK_INDUCTANCE)?;
        circuit.capacitor("CAC", vsrc, nodes.inn, COUPLING_CAPACITANCE)?;
        if drive_both_inputs {
            circuit.capacitor("CACP", vsrc, nodes.inp, COUPLING_CAPACITANCE)?;
            // Keep a DC path on the non-inverting input.
            circuit.resistor("RCM", nodes.inp, gnd, 1e9)?;
        } else {
            circuit.voltage_source("VINP", nodes.inp, gnd, SourceWaveform::dc(0.0))?;
        }
        Ok((circuit, nodes.out))
    }

    /// Unity-gain buffer testbench (output tied to the inverting input) with
    /// the non-inverting input driven by `input`; `vdd_ac_magnitude` is passed
    /// to `build_core`.
    fn buffer_testbench(
        &self,
        input: SourceWaveform,
        vdd_ac_magnitude: f64,
    ) -> Result<(Circuit, CoreNodes)> {
        let mut circuit = Circuit::new();
        let nodes = self.build_core(&mut circuit, vdd_ac_magnitude)?;
        let gnd = Circuit::ground();
        circuit.voltage_source("VIN", nodes.inp, gnd, input)?;
        // Close the loop with an ideal short (0 V source) so the output branch
        // current is also observable if needed.
        circuit.voltage_source("VFB", nodes.out, nodes.inn, SourceWaveform::dc(0.0))?;
        Ok((circuit, nodes))
    }

    /// Measures every Table 1 specification of this op-amp instance.
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence errors and measurement-extraction
    /// failures (for example if a badly perturbed instance has no unity-gain
    /// crossing); the Monte-Carlo driver treats such instances as gross
    /// failures.
    pub fn measure(&self) -> Result<OpAmpMeasurements> {
        // --- Open-loop differential response -----------------------------
        let (ol_sweep, ol_out) = self.open_loop_sweep()?;
        let gain = measure::dc_gain(&ol_sweep, ol_out);
        let bandwidth_3db = measure::bandwidth_3db(&ol_sweep, ol_out)?;
        let unity_gain_frequency = measure::unity_gain_frequency(&ol_sweep, ol_out)?;

        // --- Common-mode response -----------------------------------------
        let (cm_circuit, cm_out) = self.ac_testbench(true)?;
        let cm_op = dc_operating_point(&cm_circuit)?;
        let cm_sweep = ac_analysis(&cm_circuit, &cm_op, &[10.0])?;
        let common_mode_gain = measure::dc_gain(&cm_sweep, cm_out);

        // --- Power-supply gain ---------------------------------------------
        let (ps_circuit, ps_nodes) = self.buffer_testbench(SourceWaveform::dc(0.0), 1.0)?;
        let ps_op = dc_operating_point(&ps_circuit)?;
        let ps_sweep = ac_analysis(&ps_circuit, &ps_op, &[10.0])?;
        let power_supply_gain = measure::dc_gain(&ps_sweep, ps_nodes.out);

        // --- Quiescent current ----------------------------------------------
        let quiescent_current = self.quiescent_current(&ps_circuit, &ps_op)?;

        // --- Small-signal step response (rise, overshoot, settling) ---------
        let small_step = SourceWaveform::step(0.0, 0.2, STEP_DELAY);
        let (step_circuit, step_nodes) = self.buffer_testbench(small_step, 0.0)?;
        // At DC this is the power-supply testbench: VIN holds 0 V in both,
        // and AC magnitudes do not enter the operating point.
        let step_result = transient_analysis_from(
            &step_circuit,
            &TransientParams::new(6e-6, 4e-9),
            Some(&ps_op),
        )?;
        let step_wave = step_result.waveform(step_nodes.out);
        let rise_time = step_wave.rise_time()? * 1e6;
        let overshoot = step_wave.overshoot() * 100.0;
        let settling_time = (step_wave.settling_time(0.01)? - STEP_DELAY) * 1e6;

        // --- Slew rate -------------------------------------------------------
        let large_step = SourceWaveform::step(-1.0, 1.0, STEP_DELAY);
        let (slew_circuit, slew_nodes) = self.buffer_testbench(large_step, 0.0)?;
        let slew_op = dc_operating_point(&slew_circuit)?;
        let slew_result = transient_analysis_from(
            &slew_circuit,
            &TransientParams::new(6e-6, 4e-9),
            Some(&slew_op),
        )?;
        let slew_rate = slew_result.waveform(slew_nodes.out).max_slope() / 1e6;

        // --- Short-circuit current -------------------------------------------
        let short_circuit_current = self.short_circuit_current()?;

        Ok(OpAmpMeasurements {
            gain,
            bandwidth_3db,
            unity_gain_frequency,
            slew_rate,
            rise_time,
            overshoot,
            settling_time,
            quiescent_current,
            common_mode_gain,
            power_supply_gain,
            short_circuit_current,
        })
    }

    /// The open-loop testbench's output node and its AC sweep from 1 Hz to
    /// 1 GHz, ended after the first point whose magnitude is below both unity
    /// and the −3 dB level.
    ///
    /// The magnitude at 1 Hz is at or above both levels, so the first
    /// downward crossing of each lies inside the points swept, and the gain,
    /// bandwidth and unity-gain frequency read from them are those of the
    /// full sweep.  A response that never meets both conditions sweeps every
    /// point.
    fn open_loop_sweep(&self) -> Result<(AcSweep, NodeId)> {
        let (circuit, out) = self.ac_testbench(false)?;
        let op = dc_operating_point(&circuit)?;
        let sweep =
            ac_sweep_until(&circuit, &op, &open_loop_frequencies(), below_both_levels(out))?;
        Ok((sweep, out))
    }

    /// Quiescent current drawn from the positive supply (µA).
    fn quiescent_current(&self, circuit: &Circuit, op: &DcSolution) -> Result<f64> {
        let vdd_index = circuit.find_element("VDD").expect("core always instantiates VDD");
        let current =
            op.branch_current(vdd_index).expect("voltage sources always carry a branch current");
        // The branch current flows from the + terminal through the source, so
        // a sourcing supply sees a negative branch current.
        Ok(current.abs() * 1e6)
    }

    /// Output short-circuit current with the input driven 1 V positive (µA).
    fn short_circuit_current(&self) -> Result<f64> {
        let mut circuit = Circuit::new();
        let nodes = self.build_core(&mut circuit, 0.0)?;
        let gnd = Circuit::ground();
        circuit.voltage_source("VIN", nodes.inp, gnd, SourceWaveform::dc(1.0))?;
        // Feedback wants the output to follow the input but the output is
        // clamped to ground through an ammeter, so the stage sources its
        // maximum current.
        circuit.voltage_source("VFB", nodes.out, nodes.inn, SourceWaveform::dc(0.0))?;
        let ammeter = circuit.voltage_source("VSHORT", nodes.out, gnd, SourceWaveform::dc(0.0))?;
        let op = dc_operating_point(&circuit)?;
        let current =
            op.branch_current(ammeter).expect("voltage sources always carry a branch current");
        Ok(current.abs() * 1e6)
    }
}

/// The open-loop sweep's stop rule: whether the last point's magnitude at
/// `out` is below both unity and the −3 dB level of the first point.
fn below_both_levels(out: NodeId) -> impl FnMut(&AcSweep) -> bool {
    move |sweep| {
        let magnitude = sweep.phasor(out, sweep.len() - 1).norm();
        // The levels `unity_gain_frequency` and `bandwidth_3db` test with `<`.
        magnitude < 1.0 && magnitude < sweep.phasor(out, 0).norm() * FRAC_1_SQRT_2
    }
}

/// The open-loop sweep's grid: 121 points, logarithmic from 1 Hz to 1 GHz.
fn open_loop_frequencies() -> Vec<f64> {
    log_frequency_sweep(1.0, 1e9, 121)
}

impl Default for OpAmp {
    fn default() -> Self {
        OpAmp::new(OpAmpParams::nominal())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::linalg::{take_factorizations, Factorizations};
    use crate::variation::VariationModel;

    #[test]
    fn nominal_opamp_measures_plausible_values() {
        let opamp = OpAmp::default();
        let m = opamp.measure().expect("nominal op-amp must simulate cleanly");
        assert!(m.gain > 500.0 && m.gain < 1e5, "gain {}", m.gain);
        assert!(m.bandwidth_3db > 100.0 && m.bandwidth_3db < 1e6, "bw {}", m.bandwidth_3db);
        assert!(
            m.unity_gain_frequency > 1e5 && m.unity_gain_frequency < 1e8,
            "fu {}",
            m.unity_gain_frequency
        );
        assert!(m.unity_gain_frequency > m.bandwidth_3db);
        assert!(m.slew_rate > 1.0 && m.slew_rate < 100.0, "slew {}", m.slew_rate);
        assert!(m.rise_time > 0.001 && m.rise_time < 5.0, "rise {}", m.rise_time);
        assert!(m.overshoot >= 0.0 && m.overshoot < 80.0, "overshoot {}", m.overshoot);
        assert!(m.settling_time > 0.0 && m.settling_time < 6.0, "settling {}", m.settling_time);
        assert!(
            m.quiescent_current > 10.0 && m.quiescent_current < 2000.0,
            "iq {}",
            m.quiescent_current
        );
        assert!(m.common_mode_gain < m.gain, "cm gain {}", m.common_mode_gain);
        assert!(m.power_supply_gain < m.gain, "ps gain {}", m.power_supply_gain);
        assert!(
            m.short_circuit_current > 10.0 && m.short_circuit_current < 1e5,
            "isc {}",
            m.short_circuit_current
        );
    }

    #[test]
    fn the_open_loop_sweep_stops_early_without_moving_its_measurements() {
        let model = VariationModel::paper_default();
        for seed in 0..60 {
            let params =
                model.perturb_opamp(&OpAmpParams::nominal(), &mut StdRng::seed_from_u64(seed));
            let opamp = OpAmp::new(params);
            let (sweep, out) = opamp.open_loop_sweep().unwrap();
            let (circuit, _) = opamp.ac_testbench(false).unwrap();
            let op = dc_operating_point(&circuit).unwrap();
            let full = ac_analysis(&circuit, &op, &open_loop_frequencies()).unwrap();
            assert_eq!(full.len(), 121);
            assert!(sweep.len() < 121, "seed {seed}: {} points", sweep.len());
            let bits = |sweep: &AcSweep| {
                [
                    measure::dc_gain(sweep, out).to_bits(),
                    measure::bandwidth_3db(sweep, out).unwrap().to_bits(),
                    measure::unity_gain_frequency(sweep, out).unwrap().to_bits(),
                ]
            };
            assert_eq!(bits(&sweep), bits(&full), "seed {seed}");
        }
    }

    /// The share of factorizations each analysis replays from a plan instead
    /// of running the dense LU: the bits alone would not show a plan that is
    /// never used, nor a plan book that never keeps one.  After one instance
    /// has filled the books of a fresh thread, the next instances' sweeps run
    /// no dense LU, and their DC solves and slew-rate transients one only
    /// where they meet a pivot order the thread has not seen: simulated
    /// again, they run none at all.
    #[test]
    fn every_analysis_replays_its_factorization_plan() {
        std::thread::spawn(|| {
            let model = VariationModel::paper_default();
            let perturbed = |seed| {
                let params =
                    model.perturb_opamp(&OpAmpParams::nominal(), &mut StdRng::seed_from_u64(seed));
                OpAmp::new(params)
            };
            perturbed(100).measure().unwrap();
            let analyses = ["DC solves", "open-loop sweep", "10 Hz points", "slew-rate transient"];
            let pass = || {
                let mut totals = [Factorizations::default(); 4];
                let mut add = |analysis: usize| {
                    let counts = take_factorizations();
                    totals[analysis].replayed += counts.replayed;
                    totals[analysis].dense += counts.dense;
                };
                for seed in 0..8 {
                    let opamp = perturbed(seed);
                    take_factorizations();
                    let (circuit, out) = opamp.ac_testbench(false).unwrap();
                    let op = dc_operating_point(&circuit).unwrap();
                    add(0);
                    let frequencies = open_loop_frequencies();
                    ac_sweep_until(&circuit, &op, &frequencies, below_both_levels(out)).unwrap();
                    add(1);
                    let ps_input = SourceWaveform::dc(0.0);
                    for circuit in [
                        opamp.ac_testbench(true).unwrap().0,
                        opamp.buffer_testbench(ps_input, 1.0).unwrap().0,
                    ] {
                        let op = dc_operating_point(&circuit).unwrap();
                        add(0);
                        ac_analysis(&circuit, &op, &[10.0]).unwrap();
                        add(2);
                    }
                    let large_step = SourceWaveform::step(-1.0, 1.0, STEP_DELAY);
                    let (circuit, _) = opamp.buffer_testbench(large_step, 0.0).unwrap();
                    take_factorizations();
                    let op = dc_operating_point(&circuit).unwrap();
                    add(0);
                    let params = TransientParams::new(6e-6, 4e-9);
                    transient_analysis_from(&circuit, &params, Some(&op)).unwrap();
                    add(3);
                    opamp.short_circuit_current().unwrap();
                    add(0);
                }
                totals
            };
            // Shares seen when the book went in: 519 of 520 systems of the DC
            // solves, every point of the sweeps, and 99.99 % of the
            // transients' factorizations.
            let first = pass();
            for ((analysis, least), counts) in
                analyses.iter().zip([0.99, 1.0, 1.0, 0.99]).zip(first)
            {
                let replayed = counts.replayed as f64 / (counts.replayed + counts.dense) as f64;
                assert!(replayed >= least, "{analysis}: {counts:?}");
            }
            for (analysis, counts) in analyses.iter().zip(pass()) {
                assert_eq!(counts.dense, 0, "{analysis} simulated again: {counts:?}");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn measurement_vector_matches_field_order() {
        let m = OpAmpMeasurements {
            gain: 1.0,
            bandwidth_3db: 2.0,
            unity_gain_frequency: 3.0,
            slew_rate: 4.0,
            rise_time: 5.0,
            overshoot: 6.0,
            settling_time: 7.0,
            quiescent_current: 8.0,
            common_mode_gain: 9.0,
            power_supply_gain: 10.0,
            short_circuit_current: 11.0,
        };
        assert_eq!(m.to_vec(), (1..=11).map(f64::from).collect::<Vec<_>>());
        assert_eq!(OpAmpMeasurements::names().len(), 11);
        assert_eq!(OpAmpMeasurements::units().len(), 11);
    }

    #[test]
    fn geometry_fields_round_trip() {
        let mut params = OpAmpParams::nominal();
        let fields = params.geometry_fields();
        assert_eq!(fields.len(), 12);
        for (name, value) in fields {
            params.set_geometry_field(name, value * 2.0);
        }
        assert_eq!(params.w_diff, 2.0 * OpAmpParams::nominal().w_diff);
        assert_eq!(params.load_capacitance, 2.0 * OpAmpParams::nominal().load_capacitance);
    }

    #[test]
    #[should_panic(expected = "unknown op-amp geometry field")]
    fn unknown_geometry_field_panics() {
        OpAmpParams::nominal().set_geometry_field("bogus", 1.0);
    }
}
