//! Covering launches are pinned to the bits of the thread-by-thread
//! kernel: the hash below was computed with the per-thread walk (every
//! one-bin simulated thread integrating its bin alone through the
//! scalar loop), before the one-bin geometry ran as isolated lanes, so
//! it checks the lanes against the old code and not against themselves.
//! The hash does not depend on the host: both `quadrature::vexp` arms
//! (AVX2 and portable), which the ion populations call, give the same bits.

use atomdb::{AtomDatabase, DatabaseConfig};
use gpu_sim::{DeviceRule, FusedBinKernel, LaunchConfig, Precision};
use quadrature::MathMode;
use rrc_spectral::{ion_integrands, level_window, EnergyGrid, GridPoint, RrcIntegrand};

/// FNV-1a over little-endian 64-bit words.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn covering_launch_outputs_and_evals_match_the_per_thread_walk() {
    let db = AtomDatabase::generate(DatabaseConfig {
        max_z: 30,
        ..DatabaseConfig::default()
    });
    let bins = EnergyGrid::linear(50.0, 2000.0, 48).bin_pairs();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut tasks = 0u32;
    for (index, temperature_k) in [2.0e6, 1.0e7, 6.0e7].into_iter().enumerate() {
        let point = GridPoint {
            temperature_k,
            density_cm3: 1.0,
            time_s: 0.0,
            index,
        };
        for ion in 0..db.ions().len() {
            let levels = db.levels_by_index(ion).len();
            let Some(integrands) = ion_integrands(&db, ion, 0..levels, &point) else {
                continue;
            };
            let windows: Vec<(f64, f64)> = integrands
                .iter()
                .map(|f| level_window(f.binding_ev, point.kt_ev()))
                .collect();
            let prepared: Vec<_> = integrands.iter().map(RrcIntegrand::prepare).collect();
            let mut emi = vec![f64::NAN; bins.len()];
            let evals = FusedBinKernel {
                integrands: &prepared,
                bins: &bins,
                precision: Precision::Double,
                windows: Some(&windows),
                rule: DeviceRule::Simpson { panels: 64 },
                math: MathMode::Exact,
            }
            .execute(LaunchConfig::cover(bins.len()), &mut emi);
            for v in &emi {
                fnv(&mut hash, v.to_bits());
            }
            fnv(&mut hash, evals);
            tasks += 1;
        }
    }
    assert_eq!(tasks, 3 * 465, "every ion is populated at these states");
    assert_eq!(
        hash, 0x3e2f_8aac_90f0_1f2e,
        "covering-launch bits or eval counts moved"
    );
}
