//! Statistical sanity checks on the synthetic generators — these
//! distributions drive every experiment, so their shape is worth pinning.

use batchbb_relation::synth;

#[test]
fn gridded_network_is_spatially_smoother_than_independent() {
    // The whole point of the `gridded` flag: per-cell occupancy variance
    // (relative to the mean) should be far smaller for the station grid.
    let occupancy_cv = |gridded: bool| -> f64 {
        let cfg = synth::TemperatureConfig {
            records: 100_000,
            lat_bits: 4,
            lon_bits: 5,
            time_bits: 4,
            temp_bits: 4,
            gridded,
            ..Default::default()
        };
        let dataset = cfg.generate();
        // spatial occupancy: counts per (lat, lon) cell
        let schema = dataset.schema().clone();
        let (nlat, nlon) = (16usize, 32usize);
        let mut counts = vec![0f64; nlat * nlon];
        for t in dataset.tuples() {
            let c = schema.bin_tuple(t).unwrap();
            counts[c[0] * nlon + c[1]] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        var.sqrt() / mean
    };
    let cv_grid = occupancy_cv(true);
    let cv_indep = occupancy_cv(false);
    assert!(
        cv_grid < cv_indep,
        "gridded occupancy must be smoother: cv {cv_grid} vs {cv_indep}"
    );
}

#[test]
fn temperature_has_a_latitudinal_gradient_in_both_modes() {
    for gridded in [true, false] {
        let cfg = synth::TemperatureConfig {
            records: 50_000,
            gridded,
            ..Default::default()
        };
        let d = cfg.generate();
        let band_mean = |lo: f64, hi: f64| {
            let xs: Vec<f64> = d
                .tuples()
                .filter(|t| t[0] >= lo && t[0] < hi)
                .map(|t| t[3])
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let tropics = band_mean(-15.0, 15.0);
        let poles = (band_mean(-90.0, -60.0) + band_mean(60.0, 90.0)) / 2.0;
        assert!(
            tropics > poles + 15.0,
            "gridded={gridded}: tropics {tropics:.1} vs poles {poles:.1}"
        );
    }
}

#[test]
fn clustered_is_skewed_uniform_is_not() {
    let top_cell_share = |d: &batchbb_relation::Dataset| -> f64 {
        let dfd = d.to_frequency_distribution();
        let max = dfd.tensor().data().iter().fold(0.0f64, |a, &v| a.max(v));
        max / dfd.total()
    };
    let clustered = synth::clustered(2, 5, 50_000, 2, 3);
    let uniform = synth::uniform(2, 5, 50_000, 3);
    assert!(
        top_cell_share(&clustered) > 4.0 * top_cell_share(&uniform),
        "clusters must concentrate mass"
    );
}

#[test]
fn salary_correlates_with_age() {
    let d = synth::salary(30_000, 5);
    let pts: Vec<(f64, f64)> = d.tuples().map(|t| (t[0], t[1])).collect();
    let n = pts.len() as f64;
    let (mx, my) = (
        pts.iter().map(|p| p.0).sum::<f64>() / n,
        pts.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let cov = pts.iter().map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / n;
    let (sx, sy) = (
        (pts.iter().map(|(x, _)| (x - mx).powi(2)).sum::<f64>() / n).sqrt(),
        (pts.iter().map(|(_, y)| (y - my).powi(2)).sum::<f64>() / n).sqrt(),
    );
    let r = cov / (sx * sy);
    assert!(
        r > 0.4,
        "age-salary correlation should be positive, r = {r}"
    );
}

#[test]
fn generators_scale_record_counts() {
    for records in [100usize, 5_000] {
        assert_eq!(synth::uniform(2, 4, records, 1).len(), records);
        assert_eq!(synth::clustered(3, 4, records, 4, 1).len(), records);
        assert_eq!(synth::salary(records, 1).len(), records);
        // the station grid rounds to whole station-report schedules
        let t = synth::TemperatureConfig {
            records,
            lat_bits: 3,
            lon_bits: 3,
            time_bits: 3,
            temp_bits: 3,
            ..Default::default()
        }
        .generate();
        assert!(
            t.len() >= records.min(64),
            "grid generates at least one sweep"
        );
    }
}

// ---------------------------------------------------------------------------
// Bit-identity of the row-buffer layout: each generator matches a
// tuple-at-a-time reference that draws the RNG in the same order and
// collects one `Vec` per record.

use batchbb_relation::{csv, Attribute, Dataset, FrequencyDistribution, Schema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 2] = [1, 7];

fn unit_schema(d: usize, bits: u32) -> Schema {
    Schema::new(
        (0..d)
            .map(|i| Attribute::new(format!("a{i}"), 0.0, 1.0, bits))
            .collect(),
    )
    .unwrap()
}

fn reference_uniform(d: usize, records: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..records)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect()
}

fn reference_clustered(d: usize, records: usize, clusters: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..d).map(|_| rng.gen_range(0.1..0.9)).collect())
        .collect();
    (0..records)
        .map(|_| {
            let c = &centers[rng.gen_range(0..clusters)];
            c.iter()
                .map(|&mu| {
                    let g: f64 = (0..4).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 2.0;
                    (mu + g * 0.05).clamp(0.0, 1.0 - 1e-9)
                })
                .collect()
        })
        .collect()
}

fn reference_salary(records: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..records)
        .map(|_| {
            let age: f64 = rng.gen_range(18.0..70.0);
            let career = ((age - 18.0) / 25.0f64).min(1.0);
            let jitter: f64 = rng.gen_range(-20.0..20.0);
            vec![age, (25.0 + 70.0 * career + jitter).clamp(10.0, 127.9)]
        })
        .collect()
}

fn reference_temperature(cfg: &synth::TemperatureConfig) -> Vec<Vec<f64>> {
    let one = |rng: &mut SmallRng, lat: f64, lon: f64, alt: Option<f64>, day: f64| {
        let base = 28.0 - 55.0 * (lat.to_radians().sin()).powi(2);
        let seasonal = 3.0 * (std::f64::consts::TAU * day / 60.0).sin();
        let diurnal = 5.0 * (std::f64::consts::TAU * day.fract()).sin();
        let lapse = alt.map_or(0.0, |a| -6.5 * a / 1000.0);
        let regional = 6.0 * (lon.to_radians() * 3.0).sin() * (lat.to_radians() * 2.0).cos();
        let noise: f64 = rng.gen_range(-3.0..3.0) + rng.gen_range(-3.0..3.0);
        let temp = (base + seasonal + diurnal + lapse + regional + noise).clamp(-80.0, 50.0);
        let mut tuple = vec![lat, lon];
        tuple.extend(alt);
        tuple.extend([day, temp]);
        tuple
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut tuples = Vec::new();
    if cfg.gridded {
        let (nlat, nlon) = (1usize << cfg.lat_bits, 1usize << cfg.lon_bits);
        let per_station = (cfg.records as f64 / (nlat * nlon) as f64).max(1.0);
        'outer: for la in 0..nlat {
            let lat = -90.0 + (la as f64 + 0.5) / nlat as f64 * 180.0;
            let density = lat.to_radians().cos().max(0.05);
            let reports = (per_station * density * 1.3).round().max(1.0) as usize;
            for lo in 0..nlon {
                let lon = -180.0 + (lo as f64 + 0.5) / nlon as f64 * 360.0;
                for r in 0..reports {
                    let day = (r as f64 + rng.gen_range(0.0..1.0)) / reports as f64 * 60.0;
                    let alt = cfg.alt_bits.map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        30_000.0 * u * u
                    });
                    tuples.push(one(&mut rng, lat, lon, alt, day));
                    if tuples.len() >= cfg.records {
                        break 'outer;
                    }
                }
            }
        }
    } else {
        for _ in 0..cfg.records {
            let lat = rng.gen_range(-1.0f64..1.0).asin().to_degrees();
            let lon: f64 = rng.gen_range(-180.0..180.0);
            let alt = cfg.alt_bits.map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                30_000.0 * u * u
            });
            let day = rng.gen_range(0.0..60.0);
            tuples.push(one(&mut rng, lat, lon, alt, day));
        }
    }
    tuples
}

/// The dataset's rows, bit for bit, against the reference's.
fn assert_rows_identical(got: &Dataset, want: &[Vec<f64>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: record count");
    for (i, (row, reference)) in got.tuples().zip(want).enumerate() {
        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(row), bits(reference), "{what}: record {i}");
    }
}

#[test]
fn generators_match_their_tuple_at_a_time_reference() {
    for seed in SEEDS {
        let u = synth::uniform(3, 4, 2_000, seed);
        assert_eq!(u.schema(), &unit_schema(3, 4));
        assert_rows_identical(&u, &reference_uniform(3, 2_000, seed), "uniform");
        let c = synth::clustered(2, 5, 2_000, 4, seed);
        assert_eq!(c.schema(), &unit_schema(2, 5));
        assert_rows_identical(&c, &reference_clustered(2, 2_000, 4, seed), "clustered");
        let s = synth::salary(2_000, seed);
        assert_rows_identical(&s, &reference_salary(2_000, seed), "salary");
        for (gridded, alt_bits) in [
            (true, None),
            (true, Some(3)),
            (false, None),
            (false, Some(3)),
        ] {
            let cfg = synth::TemperatureConfig {
                records: 3_000,
                seed,
                alt_bits,
                gridded,
                ..Default::default()
            };
            let what = format!("temperature gridded={gridded} alt={alt_bits:?}");
            assert_rows_identical(&cfg.generate(), &reference_temperature(&cfg), &what);
        }
    }
}

/// `Δ` or a measure cube built one `bin_tuple` + `add_at` at a time.
fn reference_cube(d: &Dataset, measure: Option<(usize, f64)>) -> FrequencyDistribution {
    let keep = |i: usize| measure.is_none_or(|(m, _)| i != m);
    let attrs = d.schema().attributes().iter().enumerate();
    let schema = Schema::new(
        attrs
            .filter(|&(i, _)| keep(i))
            .map(|(_, a)| a.clone())
            .collect(),
    )
    .unwrap();
    let mut dfd = FrequencyDistribution::new(schema.clone());
    for t in d.tuples() {
        let reduced: Vec<f64> = (0..t.len()).filter(|&i| keep(i)).map(|i| t[i]).collect();
        let coords = schema.bin_tuple(&reduced).unwrap();
        // `insert_binned` is `Tensor::add_at` on the distribution's tensor.
        dfd.insert_binned(&coords, measure.map_or(1.0, |(m, offset)| t[m] + offset));
    }
    dfd
}

fn assert_cells_identical(got: &FrequencyDistribution, want: &FrequencyDistribution, what: &str) {
    assert_eq!(got.schema(), want.schema(), "{what}: schema");
    let bits = |f: &FrequencyDistribution| {
        f.tensor()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert!(bits(got) == bits(want), "{what}: cells differ");
}

#[test]
fn binning_matches_a_per_tuple_reference() {
    for seed in SEEDS {
        let c = synth::clustered(3, 4, 5_000, 3, seed);
        assert_cells_identical(
            &c.to_frequency_distribution(),
            &reference_cube(&c, None),
            "Δ",
        );
        let cfg = synth::TemperatureConfig {
            records: 5_000,
            seed,
            alt_bits: Some(3),
            ..Default::default()
        };
        let t = cfg.generate();
        for measure in [0, 2, 4] {
            assert_cells_identical(
                &t.to_measure_cube(measure, 273.15),
                &reference_cube(&t, Some((measure, 273.15))),
                &format!("measure cube over attribute {measure}"),
            );
        }
    }
}

#[test]
fn csv_round_trip_is_unchanged() {
    let d = synth::TemperatureConfig {
        records: 1_000,
        seed: 7,
        gridded: false,
        ..Default::default()
    }
    .generate();
    let mut text = Vec::new();
    csv::write_csv(&d, &mut text).unwrap();
    let back = csv::read_csv(d.schema().clone(), text.as_slice()).unwrap();
    assert_eq!(back.schema(), d.schema());
    let want: Vec<Vec<f64>> = d.tuples().map(<[f64]>::to_vec).collect();
    assert_rows_identical(&back, &want, "csv round trip");
    let mut again = Vec::new();
    csv::write_csv(&back, &mut again).unwrap();
    assert_eq!(again, text, "a re-written file is byte-identical");
}
