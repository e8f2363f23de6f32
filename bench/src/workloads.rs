//! The workload catalogue and its stream generators.
//!
//! Everything here is a function of `(workload, seed)` only. Nothing in this
//! file touches the system under test: no `surge` import, no SUT generator,
//! no SUT hash — so a later change to the program cannot change a workload.
//! Streams are produced as plain [`RawObject`]s; `sut.rs` converts them.

/// Arrivals per slide on every slide-batched pipeline.
pub const SLIDE_OBJECTS: usize = 32;

/// The burst-score balance `α` of every query.
pub const ALPHA: f64 = 0.5;

// Warm-up prefixes (objects replayed untimed before the first timed one).
// Each covers `W_c + W_p` of stream time with margin, and is a multiple of
// `SLIDE_OBJECTS` so the timed range starts on a slide boundary. Scale the
// timed length with `--seconds`; never shorten a warm-up below two windows —
// the harness refuses to time a stream that is not in steady state.

/// Uniform stream: 60 s of windows at one arrival per 3 ms (20 000 resident),
/// plus one slide so the first expiry has happened before timing starts.
pub const UNIFORM_WARMUP_OBJECTS: usize = 20_032;
/// Taxi stream: 10 min of windows at 18 145 objects/h (≈3 024 resident).
pub const TAXI_WARMUP_OBJECTS: usize = 4_000;
/// US stream: 2 h of windows at 16 802 objects/h (≈33 604 resident).
pub const US_WARMUP_OBJECTS: usize = 40_000;

/// One stream object, before it is handed to the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawObject {
    pub id: u64,
    pub weight: f64,
    pub x: f64,
    pub y: f64,
    /// Creation time in stream milliseconds; non-decreasing along a stream.
    pub t_ms: u64,
}

impl RawObject {
    /// The object's 40-byte little-endian image, for the determinism tests.
    #[cfg(test)]
    pub fn to_bytes(self) -> [u8; 40] {
        let mut out = [0u8; 40];
        out[0..8].copy_from_slice(&self.id.to_le_bytes());
        out[8..16].copy_from_slice(&self.weight.to_bits().to_le_bytes());
        out[16..24].copy_from_slice(&self.x.to_bits().to_le_bytes());
        out[24..32].copy_from_slice(&self.y.to_bits().to_le_bytes());
        out[32..40].copy_from_slice(&self.t_ms.to_le_bytes());
        out
    }
}

/// A Gaussian hot-spot: centre, σ (degrees, isotropic), relative mass.
#[derive(Debug, Clone, Copy)]
struct Hotspot {
    cx: f64,
    cy: f64,
    sigma: f64,
    mass: f64,
}

const fn hs(cx: f64, cy: f64, sigma: f64, mass: f64) -> Hotspot {
    Hotspot {
        cx,
        cy,
        sigma,
        mass,
    }
}

/// A Table-I style dataset model: Poisson arrivals, urban hot-spots over
/// ambient uniform traffic, weights uniform in `[1, 100]` (§VII-A).
#[derive(Debug)]
struct CityModel {
    extent: [f64; 4],
    rate_per_hour: f64,
    hotspots: &'static [Hotspot],
    uniform_fraction: f64,
}

/// Roma taxi pickups (Table I: 18 145 objects/h).
static TAXI: CityModel = CityModel {
    extent: [12.0, 41.6, 12.9, 42.2],
    rate_per_hour: 18_145.0,
    hotspots: &[
        hs(12.48, 41.89, 0.03, 6.0), // centro storico
        hs(12.50, 41.90, 0.02, 2.0), // Termini
        hs(12.25, 41.80, 0.02, 1.5), // Fiumicino
        hs(12.59, 41.80, 0.02, 1.0), // Ciampino
    ],
    uniform_fraction: 0.15,
};

/// US geo-tagged tweets (Table I: 16 802 objects/h).
static US: CityModel = CityModel {
    extent: [-124.8, 24.4, -66.9, 49.4],
    rate_per_hour: 16_802.0,
    hotspots: &[
        hs(-74.0, 40.7, 0.6, 5.0),  // New York
        hs(-118.2, 34.1, 0.6, 4.0), // Los Angeles
        hs(-87.6, 41.9, 0.5, 2.5),  // Chicago
        hs(-95.4, 29.8, 0.5, 2.0),  // Houston
        hs(-80.2, 25.8, 0.4, 2.0),  // Miami
        hs(-122.4, 37.8, 0.4, 2.0), // San Francisco
    ],
    uniform_fraction: 0.40,
};

/// Uniform stream parameters: the evenly loaded, sweep-bound case.
const UNIFORM_EXTENT: f64 = 7.5;
const UNIFORM_INTERARRIVAL_MS: u64 = 3;

/// Which stream a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamModel {
    Uniform,
    Taxi,
    Us,
}

/// Which pipeline a workload puts under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// CCS, 1 shard, `drive_incremental_with_sink`, 1 thread.
    Slide,
    /// CCS, 2 shards, `drive_elastic_with_sink`, balancer capped at 4 shards.
    Mesh,
    /// CCS hand loop: `push_into` → `on_event`* → `current()` per arrival.
    PerObject,
    /// MGAP-SURGE hand loop, per arrival.
    Approx,
    /// `SurgeServer` with six subscriptions, drained and acked every slide.
    Serve,
    /// `run_checkpointed_with_sink` into a fresh directory.
    Durable,
}

impl Pipeline {
    /// Arrivals per answer refresh: one for the per-object protocols, a slide
    /// otherwise.
    pub fn objects_per_refresh(self) -> usize {
        match self {
            Pipeline::PerObject | Pipeline::Approx => 1,
            _ => SLIDE_OBJECTS,
        }
    }
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (which layers it stresses).
    pub why: &'static str,
    pub model: StreamModel,
    pub pipeline: Pipeline,
    /// Query rectangle `(width, height)`.
    pub region: (f64, f64),
    /// `|W_c| = |W_p|` in stream milliseconds.
    pub window_ms: u64,
    pub warmup_objects: usize,
    /// `peak_rss_mb` is read when this many timed objects have been
    /// processed (about 40 % of what the reference host times in 8 s), not
    /// when the time is up: some footprints grow with the stream (taxi keeps
    /// touching new cells), and a faster pipeline must not read as a bigger
    /// one just because it got further.
    pub rss_mark_objects: usize,
}

const UNIFORM_REGION: (f64, f64) = (0.3, 0.3);
const UNIFORM_WINDOW_MS: u64 = 30_000;
/// 1/1000 of the extent per dimension (§VII-A).
const TAXI_REGION: (f64, f64) = (0.9 / 1000.0, 0.6 / 1000.0);
const TAXI_WINDOW_MS: u64 = 5 * 60_000;
const US_REGION: (f64, f64) = (57.9 / 1000.0, 25.0 / 1000.0);
const US_WINDOW_MS: u64 = 3_600_000;

const fn workload(
    name: &'static str,
    why: &'static str,
    model: StreamModel,
    pipeline: Pipeline,
    rss_mark_slides: usize,
) -> Workload {
    let (region, window_ms, warmup_objects) = match model {
        StreamModel::Uniform => (UNIFORM_REGION, UNIFORM_WINDOW_MS, UNIFORM_WARMUP_OBJECTS),
        StreamModel::Taxi => (TAXI_REGION, TAXI_WINDOW_MS, TAXI_WARMUP_OBJECTS),
        StreamModel::Us => (US_REGION, US_WINDOW_MS, US_WARMUP_OBJECTS),
    };
    Workload {
        name,
        why,
        model,
        pipeline,
        region,
        window_ms,
        warmup_objects,
        rss_mark_objects: rss_mark_slides * SLIDE_OBJECTS,
    }
}

/// The eight workloads, in the order `BENCHMARK.json` lists them.
pub static ALL: [Workload; 8] = [
    workload(
        "uniform-slide",
        "evenly loaded cells, 20k resident objects: sweep-bound (sweeps ~90% of wall-clock), sequential slide driver",
        StreamModel::Uniform,
        Pipeline::Slide,
        400,
    ),
    workload(
        "uniform-mesh",
        "same stream on the 2-shard elastic mesh: the mesh's fixed cost and real 2-core scaling where stealing and splitting should do nothing",
        StreamModel::Uniform,
        Pipeline::Mesh,
        700,
    ),
    workload(
        "uniform-perobject",
        "same detector layers used lazily: best-first current() after every arrival (paper VII-A protocol) instead of eager dirty-cell sweeps",
        StreamModel::Uniform,
        Pipeline::PerObject,
        2400,
    ),
    workload(
        "taxi-slide",
        "skewed hot-spots, many small searches: on_event and bound maintenance weigh most, sweep kernels least",
        StreamModel::Taxi,
        Pipeline::Slide,
        4000,
    ),
    workload(
        "taxi-mesh",
        "the elastic mesh on natural skew: where stealing and resharding must earn their keep against taxi-slide",
        StreamModel::Taxi,
        Pipeline::Mesh,
        5000,
    ),
    workload(
        "us-approx",
        "MGAP-SURGE per arrival, zero sweeps: bypasses every exact-layer optimisation (prediction: no change) and exposes per-object fixed costs",
        StreamModel::Us,
        Pipeline::Approx,
        20000,
    ),
    workload(
        "taxi-serve",
        "six subscriptions on one SurgeServer: the only workload with surge-serve, top-k and AnswerLog drain/ack on the clock",
        StreamModel::Taxi,
        Pipeline::Serve,
        800,
    ),
    workload(
        "taxi-durable",
        "checkpointed run: WAL appends on every arrival and snapshot stalls inside the latency tail",
        StreamModel::Taxi,
        Pipeline::Durable,
        2000,
    ),
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// xoshiro256++ seeded through splitmix64 — small, fast, and owned by the
/// benchmark so no dependency can change a stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `(0, 1]` — safe under `ln`.
    fn unit_open(&mut self) -> f64 {
        1.0 - self.unit()
    }

    fn standard_normal(&mut self) -> f64 {
        let u1 = self.unit_open();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The endless object stream of one `(workload, seed)`.
#[derive(Debug, Clone)]
pub struct Stream {
    model: StreamModel,
    rng: Rng,
    next_id: u64,
    clock_ms: f64,
    last_t: u64,
}

impl Stream {
    pub fn new(model: StreamModel, seed: u64) -> Self {
        // Decorrelate the models so equal seeds do not share positions.
        let salt = match model {
            StreamModel::Uniform => 0x756e_6966,
            StreamModel::Taxi => 0x7461_7869,
            StreamModel::Us => 0x7573_6131,
        };
        Stream {
            model,
            rng: Rng::new(seed ^ salt),
            next_id: 0,
            clock_ms: 0.0,
            last_t: 0,
        }
    }

    fn uniform_next(&mut self) -> RawObject {
        let i = self.next_id;
        RawObject {
            id: i,
            // A weight class plus a random fraction. Whole-number weights make
            // many regions tie on the exact score, and the program's drivers
            // break such ties differently (one ulp apart) — which would fail
            // the paired-digest check for reasons unrelated to performance.
            weight: 1.0 + (i % 4) as f64 + self.rng.unit(),
            x: self.rng.unit() * UNIFORM_EXTENT,
            y: self.rng.unit() * UNIFORM_EXTENT,
            t_ms: i * UNIFORM_INTERARRIVAL_MS,
        }
    }

    fn city_next(&mut self, city: &CityModel) -> RawObject {
        let mean_gap_ms = 3_600_000.0 / city.rate_per_hour;
        self.clock_ms += -self.rng.unit_open().ln() * mean_gap_ms;
        let t_ms = (self.clock_ms.round() as u64).max(self.last_t);
        self.last_t = t_ms;
        let [x0, y0, x1, y1] = city.extent;
        let (x, y) = if self.rng.unit() < city.uniform_fraction {
            (
                x0 + self.rng.unit() * (x1 - x0),
                y0 + self.rng.unit() * (y1 - y0),
            )
        } else {
            let total: f64 = city.hotspots.iter().map(|h| h.mass).sum();
            let mut pick = self.rng.unit() * total;
            let mut chosen = city.hotspots[city.hotspots.len() - 1];
            for h in city.hotspots {
                if pick < h.mass {
                    chosen = *h;
                    break;
                }
                pick -= h.mass;
            }
            // Half of each hot-spot's mass sits in a dense core (σ/8): real
            // pickup and tweet data concentrate sharply at city centres.
            let sigma = if self.rng.unit() < 0.5 {
                chosen.sigma / 8.0
            } else {
                chosen.sigma
            };
            let x = chosen.cx + self.rng.standard_normal() * sigma;
            let y = chosen.cy + self.rng.standard_normal() * sigma;
            (x.clamp(x0, x1), y.clamp(y0, y1))
        };
        RawObject {
            id: self.next_id,
            weight: 1.0 + self.rng.unit() * 99.0,
            x,
            y,
            t_ms,
        }
    }
}

impl Iterator for Stream {
    type Item = RawObject;

    fn next(&mut self) -> Option<RawObject> {
        let obj = match self.model {
            StreamModel::Uniform => self.uniform_next(),
            StreamModel::Taxi => self.city_next(&TAXI),
            StreamModel::Us => self.city_next(&US),
        };
        self.next_id += 1;
        Some(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(model: StreamModel, seed: u64, n: usize) -> Vec<u8> {
        Stream::new(model, seed)
            .take(n)
            .flat_map(|o| o.to_bytes())
            .collect()
    }

    const MODELS: [StreamModel; 3] = [StreamModel::Uniform, StreamModel::Taxi, StreamModel::Us];

    #[test]
    fn generators_are_byte_deterministic_per_seed() {
        for model in MODELS {
            assert_eq!(image(model, 7, 5_000), image(model, 7, 5_000), "{model:?}");
        }
    }

    #[test]
    fn generators_differ_across_seeds() {
        for model in MODELS {
            assert_ne!(image(model, 7, 500), image(model, 8, 500), "{model:?}");
        }
    }

    #[test]
    fn arrival_order_is_monotone_and_ids_dense() {
        for model in MODELS {
            let objs: Vec<RawObject> = Stream::new(model, 3).take(20_000).collect();
            assert!(objs.windows(2).all(|w| w[0].t_ms <= w[1].t_ms), "{model:?}");
            assert!(objs.iter().enumerate().all(|(i, o)| o.id == i as u64));
        }
    }

    #[test]
    fn city_streams_match_table1_rate_and_extent() {
        for (model, city) in [(StreamModel::Taxi, &TAXI), (StreamModel::Us, &US)] {
            let objs: Vec<RawObject> = Stream::new(model, 11).take(50_000).collect();
            let hours = objs.last().unwrap().t_ms as f64 / 3_600_000.0;
            let rate = objs.len() as f64 / hours;
            assert!(
                (rate - city.rate_per_hour).abs() / city.rate_per_hour < 0.03,
                "{model:?}: {rate}"
            );
            let [x0, y0, x1, y1] = city.extent;
            assert!(objs
                .iter()
                .all(|o| (x0..=x1).contains(&o.x) && (y0..=y1).contains(&o.y)));
            assert!(objs.iter().all(|o| (1.0..=100.0).contains(&o.weight)));
        }
    }

    #[test]
    fn warmups_cover_two_windows_on_a_slide_boundary() {
        for w in &ALL {
            assert_eq!(w.warmup_objects % SLIDE_OBJECTS, 0, "{}", w.name);
            assert!(w.rss_mark_objects > 0 && w.rss_mark_objects % SLIDE_OBJECTS == 0);
            for seed in [1, 42, 1234] {
                let last_warm = Stream::new(w.model, seed)
                    .nth(w.warmup_objects - 1)
                    .unwrap()
                    .t_ms;
                assert!(
                    last_warm >= 2 * w.window_ms,
                    "{} seed {seed}: {last_warm}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(ALL[i + 1..].iter().all(|b| a.name != b.name));
            assert!(find(a.name).is_some());
        }
        assert!(find("nope").is_none());
    }
}
