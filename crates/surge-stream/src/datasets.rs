//! Dataset models matching Table I of the paper.
//!
//! | Dataset | Objects   | Arrival rate (per hour) | Extent                  |
//! |---------|-----------|-------------------------|-------------------------|
//! | UK      | 1,000,000 | 5,747                   | UK bounding box         |
//! | US      | 1,000,000 | 16,802                  | contiguous-US box       |
//! | Taxi    | 1,000,000 | 18,145                  | Roma (lat 41.6–42.2, lon 12.0–12.9) |
//!
//! The real datasets (geo-tagged tweets; CRAWDAD roma/taxi) are not
//! redistributable; these presets synthesize streams with the published
//! statistics and plausible urban skew, so the paper's §VII experiments
//! run on streams of the same rate and extent. Weights are uniform
//! `[1, 100]` as in §VII-A.

use surge_core::{Point, Rect, RegionSize, WindowConfig};

use crate::generator::{Hotspot, WorkloadConfig};

/// Expands each urban hot-spot with a dense inner core (σ/8, half the mass).
///
/// Real geo-tweet and taxi data concentrate sharply around city centers; a
/// single wide Gaussian underestimates the local densities at which the
/// paper's overlap-sensitive baselines (Base, B-CCS, aG2) degrade. The cores
/// recreate those densities without changing the extent or arrival rate.
fn with_cores(hotspots: Vec<Hotspot>) -> Vec<Hotspot> {
    let mut out = Vec::with_capacity(hotspots.len() * 2);
    for h in hotspots {
        out.push(Hotspot {
            mass: h.mass * 0.5,
            ..h
        });
        out.push(Hotspot {
            center: h.center,
            sigma_x: h.sigma_x / 8.0,
            sigma_y: h.sigma_y / 8.0,
            mass: h.mass * 0.5,
        });
    }
    out
}

/// The three evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Geo-tagged tweets posted in the UK.
    Uk,
    /// Geo-tagged tweets posted in the US.
    Us,
    /// Taxi pickup traces in Roma, Italy.
    Taxi,
}

/// Static description of a dataset model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Display name.
    pub name: &'static str,
    /// Spatial extent (lon = x, lat = y).
    pub extent: Rect,
    /// Mean arrival rate, objects per hour (Table I).
    pub rate_per_hour: f64,
    /// Default object count (Table I).
    pub n_objects: usize,
    /// The paper's default sliding-window length for this dataset.
    pub default_windows: WindowConfig,
    /// Urban hot-spots used for spatial skew.
    pub hotspots: Vec<Hotspot>,
    /// Fraction of ambient uniform traffic.
    pub uniform_fraction: f64,
}

impl Dataset {
    /// All three datasets, in the paper's presentation order.
    pub const ALL: [Dataset; 3] = [Dataset::Uk, Dataset::Us, Dataset::Taxi];

    /// The dataset's model specification.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            Dataset::Uk => DatasetSpec {
                name: "UK",
                extent: Rect::new(-8.2, 49.9, 1.8, 60.9),
                rate_per_hour: 5_747.0,
                n_objects: 1_000_000,
                default_windows: WindowConfig::equal_hours(1),
                hotspots: with_cores(vec![
                    Hotspot::new(Point::new(-0.13, 51.51), 0.25, 5.0), // London
                    Hotspot::new(Point::new(-2.24, 53.48), 0.15, 2.0), // Manchester
                    Hotspot::new(Point::new(-1.90, 52.49), 0.15, 1.5), // Birmingham
                    Hotspot::new(Point::new(-3.19, 55.95), 0.12, 1.0), // Edinburgh
                    Hotspot::new(Point::new(-4.25, 55.86), 0.12, 1.0), // Glasgow
                ]),
                uniform_fraction: 0.35,
            },
            Dataset::Us => DatasetSpec {
                name: "US",
                extent: Rect::new(-124.8, 24.4, -66.9, 49.4),
                rate_per_hour: 16_802.0,
                n_objects: 1_000_000,
                default_windows: WindowConfig::equal_hours(1),
                hotspots: with_cores(vec![
                    Hotspot::new(Point::new(-74.0, 40.7), 0.6, 5.0), // New York
                    Hotspot::new(Point::new(-118.2, 34.1), 0.6, 4.0), // Los Angeles
                    Hotspot::new(Point::new(-87.6, 41.9), 0.5, 2.5), // Chicago
                    Hotspot::new(Point::new(-95.4, 29.8), 0.5, 2.0), // Houston
                    Hotspot::new(Point::new(-80.2, 25.8), 0.4, 2.0), // Miami
                    Hotspot::new(Point::new(-122.4, 37.8), 0.4, 2.0), // San Francisco
                ]),
                uniform_fraction: 0.40,
            },
            Dataset::Taxi => DatasetSpec {
                name: "Taxi",
                extent: Rect::new(12.0, 41.6, 12.9, 42.2),
                rate_per_hour: 18_145.0,
                n_objects: 1_000_000,
                default_windows: WindowConfig::equal_minutes(5),
                hotspots: with_cores(vec![
                    Hotspot::new(Point::new(12.48, 41.89), 0.03, 6.0), // centro storico
                    Hotspot::new(Point::new(12.50, 41.90), 0.02, 2.0), // Termini
                    Hotspot::new(Point::new(12.25, 41.80), 0.02, 1.5), // Fiumicino
                    Hotspot::new(Point::new(12.59, 41.80), 0.02, 1.0), // Ciampino
                ]),
                uniform_fraction: 0.15,
            },
        }
    }

    /// The paper's default query-rectangle size `q`: 1/1000 of the range of
    /// each dimension (§VII-A).
    pub fn default_region(&self) -> RegionSize {
        let e = self.spec().extent;
        RegionSize::new(e.width() / 1_000.0, e.height() / 1_000.0)
    }

    /// A workload for this dataset with `n_objects` objects and the given
    /// seed. Use `n_objects = spec().n_objects` for paper scale.
    pub fn workload(&self, n_objects: usize, seed: u64) -> WorkloadConfig {
        let spec = self.spec();
        WorkloadConfig {
            extent: spec.extent,
            n_objects,
            mean_interarrival_ms: 3_600_000.0 / spec.rate_per_hour,
            weight_min: 1.0,
            weight_max: 100.0,
            hotspots: spec.hotspots,
            uniform_fraction: spec.uniform_fraction,
            bursts: Vec::new(),
            seed,
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::StreamGenerator;

    #[test]
    fn specs_match_table1_rates() {
        assert_eq!(Dataset::Uk.spec().rate_per_hour, 5_747.0);
        assert_eq!(Dataset::Us.spec().rate_per_hour, 16_802.0);
        assert_eq!(Dataset::Taxi.spec().rate_per_hour, 18_145.0);
        for d in Dataset::ALL {
            assert_eq!(d.spec().n_objects, 1_000_000);
        }
    }

    #[test]
    fn default_region_is_thousandth_of_range() {
        let q = Dataset::Taxi.default_region();
        assert!((q.width - 0.9 / 1000.0).abs() < 1e-12);
        assert!((q.height - 0.6 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn hotspots_inside_extent() {
        for d in Dataset::ALL {
            let s = d.spec();
            for h in &s.hotspots {
                assert!(s.extent.contains(h.center), "{}: {h:?}", s.name);
            }
        }
    }

    #[test]
    fn workload_generates_in_extent() {
        for d in Dataset::ALL {
            let objs = StreamGenerator::new(d.workload(2_000, 1)).generate();
            assert_eq!(objs.len(), 2_000);
            let e = d.spec().extent;
            assert!(objs.iter().all(|o| e.contains(o.pos)));
        }
    }

    #[test]
    fn workload_rate_matches_spec() {
        let d = Dataset::Us;
        let objs = StreamGenerator::new(d.workload(30_000, 2)).generate();
        let hours = objs.last().unwrap().created as f64 / 3_600_000.0;
        let rate = objs.len() as f64 / hours;
        let want = d.spec().rate_per_hour;
        assert!((rate - want).abs() / want < 0.05, "rate {rate} vs {want}");
    }

    #[test]
    fn display_names() {
        assert_eq!(Dataset::Uk.to_string(), "UK");
        assert_eq!(Dataset::Taxi.to_string(), "Taxi");
    }
}
