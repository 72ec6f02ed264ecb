//! Golden bits of the op-amp simulator: all eleven Table 1 measurements of
//! three fixed instances, compared by `to_bits()`.  Buffer reuse and other
//! pure refactors of the DC, AC and transient analyses must leave every bit
//! in place; a change to the arithmetic or its order shows up here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stc_circuit::devices::opamp::{OpAmp, OpAmpParams};
use stc_circuit::variation::VariationModel;

/// The op-amp perturbed by the paper's ±10 % variation drawn from `seed`.
fn perturbed(seed: u64) -> OpAmp {
    let params = VariationModel::paper_default()
        .perturb_opamp(&OpAmpParams::nominal(), &mut StdRng::seed_from_u64(seed));
    OpAmp::new(params)
}

fn measurement_bits(opamp: &OpAmp) -> Vec<u64> {
    let measurements = opamp.measure().expect("instance simulates");
    measurements.to_vec().iter().map(|value| value.to_bits()).collect()
}

fn cases() -> [(&'static str, OpAmp, [u64; 11], [u64; 2]); 3] {
    [
        ("nominal", OpAmp::default(), GOLDEN_NOMINAL, FIXED_STEP_REFERENCE[0]),
        ("seed 17", perturbed(17), GOLDEN_SEED_17, FIXED_STEP_REFERENCE[1]),
        ("seed 2005", perturbed(2005), GOLDEN_SEED_2005, FIXED_STEP_REFERENCE[2]),
    ]
}

#[test]
fn opamp_measurements_keep_their_golden_bits() {
    for (label, opamp, golden, _) in cases() {
        assert_eq!(measurement_bits(&opamp), golden, "{label}");
    }
}

/// Every thread keeps the factorization plans it has built and solves later
/// systems through them, so which plan solves a system depends on what the
/// thread simulated before.  The bits must not: seed 2005 measures the same
/// on a fresh thread and on one that first simulated the op-amps of seeds
/// 0..64.
#[test]
fn measurements_do_not_depend_on_what_the_thread_simulated_before() {
    let fresh = std::thread::spawn(|| measurement_bits(&perturbed(2005))).join().unwrap();
    let after_others = std::thread::spawn(|| {
        for seed in 0..64 {
            perturbed(seed).measure().expect("instance simulates");
        }
        measurement_bits(&perturbed(2005))
    })
    .join()
    .unwrap();
    assert_eq!(fresh, GOLDEN_SEED_2005);
    assert_eq!(after_others, fresh);
}

/// Ending each transient once the circuit has settled moves its final value
/// by at most the 1 nV Newton tolerance, so rise time and overshoot, which are
/// measured against the final value, stay within a hair of the full-window
/// fixed-step run.  Holding the operating point through the quiet lead-in
/// instead of solving it moves the slew rate only in its last bits.
#[test]
fn settled_transients_match_the_fixed_step_reference() {
    for ((label, opamp, _, [rise_bits, overshoot_bits]), slew_bits) in
        cases().into_iter().zip(SOLVED_LEAD_IN_SLEW_RATE)
    {
        let measured = opamp.measure().expect("instance simulates");
        let rise_time = f64::from_bits(rise_bits);
        let overshoot = f64::from_bits(overshoot_bits);
        let rise_error = (measured.rise_time - rise_time).abs() / rise_time;
        assert!(rise_error < 1e-9, "{label}: rise time relative error {rise_error:e}");
        let overshoot_error = (measured.overshoot - overshoot).abs();
        assert!(overshoot_error < 1e-7, "{label}: overshoot error {overshoot_error:e} points");
        let slew_rate = f64::from_bits(slew_bits);
        let slew_error = (measured.slew_rate - slew_rate).abs() / slew_rate;
        assert!(slew_error < 1e-12, "{label}: slew rate relative error {slew_error:e}");
    }
}

// Rise time and overshoot (indices 4 and 5 of `OpAmpMeasurements::to_vec`)
// of the three instances as the fixed-step analysis measured them over the
// full 6 µs window, before each transient ended once the circuit had settled.
const FIXED_STEP_REFERENCE: [[u64; 2]; 3] = [
    [0x3fa5dd5f0b470633, 0x3ff1eb9af9e8cc54], // nominal: 4.2704553724899695e-2, 1.12002084370467e0
    [0x3fa3805e8e3c3e8e, 0x400396c9b35fa15d], // seed 17: 3.80887554766761e-2, 2.448626901012331e0
    [0x3fa86199cbf5a813, 0x3fd7d3cfb55e2b2b], // seed 2005: 4.761963476887856e-2, 3.723029395265935e-1
];

// Slew rate (index 3) of the three instances as measured while every
// transient still solved each step before the input step.
const SOLVED_LEAD_IN_SLEW_RATE: [u64; 3] = [
    0x4024d82f9329a5e5, // nominal: 1.0422237967332828e1
    0x40271fc6b345c270, // seed 17: 1.1562062837853972e1
    0x40237f8be0dc8d39, // seed 2005: 9.74911406223565e0
];

// Captured from the simulator before its Newton buffers were reused, in the
// canonical Table 1 order of `OpAmpMeasurements::to_vec`.  Rise time and
// overshoot were re-pinned once the transient began to end at the settled
// point (their fixed-step values are `FIXED_STEP_REFERENCE`).  Slew rate, rise
// time and overshoot were re-pinned again once the quiet lead-in before the
// input step stopped being solved (the solved slew rate is
// `SOLVED_LEAD_IN_SLEW_RATE`), and settling time once it began to count from
// the input step instead of from t = 0 (0.2 µs less).
const GOLDEN_NOMINAL: [u64; 11] = [
    0x40c4835e0ea1e92f, // 1.0502734821547374e4
    0x408063344221254e, // 5.244005167569646e2
    0x415435dc0b27c9d3, // 5.29803217430349e6
    0x4024d82f9329a615, // 1.0422237967332913e1
    0x3fa5dd5f0b3d011d, // 4.270455372034319e-2
    0x3ff1eb9afb31beec, // 1.120020848491488e0
    0x3fba9fbe76c8b438, // 1.0399999999999998e-1
    0x4063e34b4a774660, // 1.5910294078155403e2
    0x3fdfec813e3b927e, // 4.9881011083042626e-1
    0x3f0aaa706664d3b2, // 5.0860934424446806e-5
    0x40d32b6b69e0a62f, // 1.962967833725194e4
];
const GOLDEN_SEED_17: [u64; 11] = [
    0x40c425223ea8c333, // 1.0314267537207901e4
    0x40826ce66c056c57, // 5.896125107215584e2
    0x4155e0f1422352ec, // 5.735365033406001e6
    0x40271fc6b345c30c, // 1.156206283785425e1
    0x3fa3805e8e3bfd8f, // 3.808875547656065e-2
    0x400396c9b364a42f, // 2.4486269011581707e0
    0x3fbcac083126e975, // 1.1199999999999995e-1
    0x40643c30956152d8, // 1.6188093060501592e2
    0x3fde7a0bc65b771d, // 4.7619909640148866e-1
    0x3f0bb1400fd9dbc4, // 5.2819030298793405e-5
    0x40d320e68b0d375c, // 1.9587602237037718e4
];
const GOLDEN_SEED_2005: [u64; 11] = [
    0x40c372a84a2d772e, // 9.957314763720697e3
    0x407fb29fcd5e5eb8, // 5.071640142141655e2
    0x4152b98572819cb9, // 4.908565789160901e6
    0x40237f8be0dc8d41, // 9.749114062235664e0
    0x3fa86199cbfa33b9, // 4.7619634770945614e-2
    0x3fd7d3cfb3bf1ae0, // 3.7230293801660075e-1
    0x3fb5810624dd2f1f, // 8.400000000000006e-2
    0x406452a682851f54, // 1.625828259086653e2
    0x3fdf5b8dddf9dbb8, // 4.899630229696714e-1
    0x3f0c591ad5df82bf, // 5.406964440602323e-5
    0x40d294c8ab01f02d, // 1.902713543747382e4
];

/// FNV-1a (64-bit) over the `to_bits()` of all eleven measurements of the
/// op-amps perturbed by the paper's ±10 % variation at seeds 0..64, in seed
/// order, with one marker in place of the measurements of an instance that
/// fails to simulate.  It holds a whole population's bits, where the golden
/// constants above hold three instances'.
#[test]
fn a_population_of_64_opamps_keeps_its_digest() {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut digest = FNV_OFFSET;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    };
    let mut failures = 0;
    for seed in 0..64 {
        match perturbed(seed).measure() {
            Ok(measurements) => {
                measurements.to_vec().iter().for_each(|value| feed(value.to_bits()))
            }
            Err(_) => {
                failures += 1;
                feed(FAILED_INSTANCE);
            }
        }
    }
    assert_eq!((digest, failures), POPULATION_DIGEST);
}

/// Fed in place of the eleven measurements of an instance that fails; it is
/// the bits of no finite measurement.
const FAILED_INSTANCE: u64 = u64::MAX;

// The digest and the failure count of seeds 0..64, captured from the dense
// LU before the factorization plan replaced it on the hot path.
const POPULATION_DIGEST: (u64, usize) = (0x13106c061cf5e065, 0);
