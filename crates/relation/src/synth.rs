//! Seeded synthetic datasets.
//!
//! The paper's evaluation uses a proprietary JPL dataset of global
//! temperature observations (15.7 M records; latitude, longitude, altitude,
//! time, temperature).  [`TemperatureConfig`] substitutes a seeded
//! simulator with the same structure: a latitudinal gradient, an altitude
//! lapse rate, seasonal and diurnal harmonics, and spatially correlated
//! noise.  The headline experimental quantities (retrieval counts, error
//! decay shape) are driven by query-vector sparsity, not by the particular
//! data values, so any smooth realistic field preserves the behaviour —
//! see DESIGN.md §4.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Attribute, Dataset, Schema};

/// Configuration for the global-temperature simulator.
#[derive(Debug, Clone)]
pub struct TemperatureConfig {
    /// Number of observation records.
    pub records: usize,
    /// RNG seed (experiments are reproducible given the seed).
    pub seed: u64,
    /// Latitude domain bits (2^bits bins over [-90°, 90°]).
    pub lat_bits: u32,
    /// Longitude domain bits (2^bits bins over [-180°, 180°]).
    pub lon_bits: u32,
    /// Altitude domain bits; `None` omits the altitude dimension (the
    /// default harness configuration uses 4 dimensions).
    pub alt_bits: Option<u32>,
    /// Time domain bits (2^bits bins over a 60-day window, matching the
    /// paper's March–April 2001 span).
    pub time_bits: u32,
    /// Temperature domain bits (2^bits bins over [-80°C, 50°C]).
    pub temp_bits: u32,
    /// Observation-network structure.  `true` (the realistic setting)
    /// samples from a fixed station grid reporting on a regular cadence —
    /// like the assimilated JPL dataset, the spatial occupancy of `Δ` is
    /// then smooth and the progressive error decays fast (Figure 5's
    /// regime).  `false` draws every record independently, which injects
    /// Poisson roughness at the finest scales (a deliberately harder
    /// setting used by ablations).
    pub gridded: bool,
}

impl Default for TemperatureConfig {
    fn default() -> Self {
        TemperatureConfig {
            records: 200_000,
            seed: 2002,
            lat_bits: 5,
            lon_bits: 6,
            alt_bits: None,
            time_bits: 5,
            temp_bits: 6,
            gridded: true,
        }
    }
}

impl TemperatureConfig {
    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut attrs = vec![
            Attribute::new("latitude", -90.0, 90.0, self.lat_bits),
            Attribute::new("longitude", -180.0, 180.0, self.lon_bits),
        ];
        if let Some(bits) = self.alt_bits {
            attrs.push(Attribute::new("altitude", 0.0, 30_000.0, bits));
        }
        attrs.push(Attribute::new("time", 0.0, 60.0, self.time_bits));
        attrs.push(Attribute::new("temperature", -80.0, 50.0, self.temp_bits));
        let schema = Schema::new(attrs).expect("temperature schema is valid");

        let arity = schema.arity();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut values = Vec::with_capacity(self.records * arity);
        if self.gridded {
            // Fixed station network: one station per (lat, lon) bin
            // midpoint, reporting on a regular time cadence, with density
            // ∝ cos(lat) (area weighting).  Spatial occupancy of Δ is then
            // smooth — the regime of the paper's assimilated dataset.
            let nlat = 1usize << self.lat_bits;
            let nlon = 1usize << self.lon_bits;
            let reports_per_station = (self.records as f64 / (nlat * nlon) as f64).max(1.0);
            'outer: for la in 0..nlat {
                let lat = -90.0 + (la as f64 + 0.5) / nlat as f64 * 180.0;
                let density = lat.to_radians().cos().max(0.05);
                let reports = (reports_per_station * density * 1.3).round().max(1.0) as usize;
                for lo in 0..nlon {
                    let lon = -180.0 + (lo as f64 + 0.5) / nlon as f64 * 360.0;
                    for r in 0..reports {
                        let day = (r as f64 + rng.gen_range(0.0..1.0)) / reports as f64 * 60.0;
                        let alt = self.alt_bits.map(|_| {
                            let u: f64 = rng.gen_range(0.0..1.0);
                            30_000.0 * u * u
                        });
                        self.push_tuple(&mut values, &mut rng, lat, lon, alt, day);
                        if values.len() >= self.records * arity {
                            break 'outer;
                        }
                    }
                }
            }
        } else {
            for _ in 0..self.records {
                // Independent draws, lat ∝ cos(lat) via inverse transform.
                let lat = {
                    let u: f64 = rng.gen_range(-1.0..1.0);
                    u.asin().to_degrees()
                };
                let lon: f64 = rng.gen_range(-180.0..180.0);
                let alt = if self.alt_bits.is_some() {
                    // Observations thin out with altitude: square the uniform.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    Some(30_000.0 * u * u)
                } else {
                    None
                };
                let day = rng.gen_range(0.0..60.0);
                self.push_tuple(&mut values, &mut rng, lat, lon, alt, day);
            }
        }
        Dataset::from_values(schema, values)
    }

    /// The physical temperature model (°C) shared by both network modes;
    /// appends one record to the row buffer.
    fn push_tuple(
        &self,
        values: &mut Vec<f64>,
        rng: &mut SmallRng,
        lat: f64,
        lon: f64,
        alt: Option<f64>,
        day: f64,
    ) {
        let base = 28.0 - 55.0 * (lat.to_radians().sin()).powi(2); // latitudinal gradient
        let seasonal = 3.0 * (std::f64::consts::TAU * day / 60.0).sin(); // slow drift
        let diurnal = 5.0 * (std::f64::consts::TAU * day.fract()).sin(); // day/night
        let lapse = alt.map_or(0.0, |a| -6.5 * a / 1000.0); // −6.5 °C/km
        let regional = 6.0 * (lon.to_radians() * 3.0).sin() * (lat.to_radians() * 2.0).cos();
        let noise: f64 = rng.gen_range(-3.0..3.0) + rng.gen_range(-3.0..3.0); // ~triangular
        let temp = (base + seasonal + diurnal + lapse + regional + noise).clamp(-80.0, 50.0);
        values.extend_from_slice(&[lat, lon]);
        values.extend(alt);
        values.extend_from_slice(&[day, temp]);
    }
}

/// Uniform random dataset over a cubic domain — the adversarial case for
/// *data* approximation, where Batch-Biggest-B still works because it
/// approximates queries instead.
pub fn uniform(d: usize, bits: u32, records: usize, seed: u64) -> Dataset {
    let attrs = (0..d)
        .map(|i| Attribute::new(format!("a{i}"), 0.0, 1.0, bits))
        .collect();
    let schema = Schema::new(attrs).expect("uniform schema valid");
    let mut rng = SmallRng::seed_from_u64(seed);
    let values = (0..records * d).map(|_| rng.gen_range(0.0..1.0)).collect();
    Dataset::from_values(schema, values)
}

/// Gaussian-cluster dataset: `clusters` blobs with shared spread, a common
/// OLAP-style skewed distribution.
pub fn clustered(d: usize, bits: u32, records: usize, clusters: usize, seed: u64) -> Dataset {
    assert!(clusters > 0, "need at least one cluster");
    let attrs = (0..d)
        .map(|i| Attribute::new(format!("a{i}"), 0.0, 1.0, bits))
        .collect();
    let schema = Schema::new(attrs).expect("clustered schema valid");
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..d).map(|_| rng.gen_range(0.1..0.9)).collect())
        .collect();
    let spread = 0.05;
    let mut values = Vec::with_capacity(records * d);
    for _ in 0..records {
        let c = &centers[rng.gen_range(0..clusters)];
        values.extend(c.iter().map(|&mu| {
            // sum of uniforms ≈ gaussian
            let g: f64 = (0..4).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 2.0;
            (mu + g * spread).clamp(0.0, 1.0 - 1e-9)
        }));
    }
    Dataset::from_values(schema, values)
}

/// Employee (age, salary) dataset matching the paper's §3.1 running
/// example: "total salary paid to employees between age 25 and 40, who make
/// at least 55K per year" on a 128×128 domain.
pub fn salary(records: usize, seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::new("age", 0.0, 128.0, 7),
        Attribute::new("salary_k", 0.0, 128.0, 7),
    ])
    .expect("salary schema valid");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut values = Vec::with_capacity(records * 2);
    for _ in 0..records {
        let age: f64 = rng.gen_range(18.0..70.0);
        // Salary loosely increases with age, saturating mid-career.
        let career = ((age - 18.0) / 25.0f64).min(1.0);
        let base = 25.0 + 70.0 * career;
        let jitter: f64 = rng.gen_range(-20.0..20.0);
        let salary = (base + jitter).clamp(10.0, 127.9);
        values.extend_from_slice(&[age, salary]);
    }
    Dataset::from_values(schema, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_default_schema() {
        let cfg = TemperatureConfig {
            records: 1000,
            ..Default::default()
        };
        let d = cfg.generate();
        assert_eq!(d.len(), 1000);
        assert_eq!(d.schema().arity(), 4);
        assert_eq!(d.schema().domain().dims(), &[32, 64, 32, 64]);
    }

    #[test]
    fn temperature_with_altitude() {
        let cfg = TemperatureConfig {
            records: 500,
            alt_bits: Some(4),
            ..Default::default()
        };
        let d = cfg.generate();
        assert_eq!(d.schema().arity(), 5);
        assert_eq!(d.schema().attribute_index("altitude"), Some(2));
    }

    #[test]
    fn temperature_is_deterministic() {
        let cfg = TemperatureConfig {
            records: 100,
            ..Default::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert!(a.tuples().eq(b.tuples()));
    }

    #[test]
    fn temperature_values_physical() {
        let cfg = TemperatureConfig {
            records: 5000,
            ..Default::default()
        };
        let d = cfg.generate();
        for t in d.tuples() {
            let (lat, temp) = (t[0], t[3]);
            assert!((-90.0..=90.0).contains(&lat));
            assert!((-80.0..=50.0).contains(&temp));
        }
        // Tropics warmer than poles on average.
        let avg = |lo: f64, hi: f64| {
            let xs: Vec<f64> = d
                .tuples()
                .filter(|t| t[0] >= lo && t[0] < hi)
                .map(|t| t[3])
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(avg(-10.0, 10.0) > avg(50.0, 90.0) + 10.0);
    }

    #[test]
    fn uniform_fills_domain() {
        let d = uniform(2, 3, 2000, 7);
        let dfd = d.to_frequency_distribution();
        assert_eq!(dfd.total(), 2000.0);
        // every bin of an 8x8 grid should be hit with 2000 samples
        assert!(dfd.tensor().data().iter().filter(|v| v.abs() > 0.5).count() == 64);
    }

    #[test]
    fn clustered_is_skewed() {
        let d = clustered(2, 5, 5000, 3, 11);
        let dfd = d.to_frequency_distribution();
        let occupied = dfd.tensor().data().iter().filter(|v| v.abs() > 0.5).count();
        assert!(
            occupied < dfd.tensor().shape().len() / 3,
            "clusters should leave most bins empty, occupied {occupied}"
        );
    }

    #[test]
    fn salary_matches_paper_domain() {
        let d = salary(1000, 3);
        assert_eq!(d.schema().domain().dims(), &[128, 128]);
        for t in d.tuples() {
            assert!((18.0..=70.0).contains(&t[0]));
        }
    }
}
