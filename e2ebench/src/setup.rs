//! Inputs every workload derives from its seed: the city, the serving
//! model, the walk pool, the per-trip plan, and the reference score table
//! that every served score is checked against.

use std::sync::Arc;
use std::time::Instant;

use causaltad::{CausalTad, ScorerState, TrainReport};
use tad_eval::cities::{xian_s, Scale};
use tad_trajsim::City;

/// Trip lengths are drawn from `MIN_LEN..=MAX_LEN` segments.
pub const MIN_LEN: u32 = 8;
pub const MAX_LEN: u32 = 40;
/// Distinct walks trips are drawn from.
pub const WALKS: usize = 256;

/// splitmix64 of `seed` mixed with a stream tag: independent,
/// reproducible sub-seeds (city, walks, trips) from the one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xian-s city at `Scale::Quick`, generated from the workload seed.
pub fn city(seed: u64) -> City {
    let mut cfg = xian_s(Scale::Quick);
    cfg.seed = mix(seed, 1);
    tad_trajsim::generate_city(&cfg)
}

/// Which walk a trip follows and how many segments it streams: a pure
/// function of (seed, trip id), so producers, the receiver and the
/// checker agree without sharing state.
#[derive(Clone, Copy, Debug)]
pub struct TripPlan {
    seed: u64,
}

impl TripPlan {
    pub fn new(seed: u64) -> TripPlan {
        TripPlan { seed: mix(seed, 3) }
    }

    pub fn walk(&self, id: u64) -> usize {
        (mix(self.seed, id) % WALKS as u64) as usize
    }

    pub fn len(&self, id: u64) -> u32 {
        MIN_LEN + (mix(self.seed, id) >> 32) as u32 % (MAX_LEN - MIN_LEN + 1)
    }
}

/// The walk pool plus the score every (walk, seq) must get.
pub struct Reference {
    pub walks: Vec<Vec<u32>>,
    /// `bits[w][seq]`: the debiased score after segment `seq` of walk `w`.
    bits: Vec<Vec<u64>>,
}

impl Reference {
    /// Scores every walk's first `MAX_LEN` segments with sequential
    /// [`CausalTad::push_state`]. A trip longer than its walk cycles it,
    /// exactly as the producers do.
    pub fn build(model: &CausalTad, walks: Vec<Vec<u32>>) -> Reference {
        let bits = walks
            .iter()
            .enumerate()
            .map(|(w, walk)| {
                let mut st: ScorerState = model
                    .start_state(walk[0], *walk.last().expect("non-empty walk"), slot_of(w))
                    .expect("walk endpoints are in the vocabulary");
                (0..MAX_LEN as usize)
                    .map(|k| model.push_state(&mut st, walk[k % walk.len()]).to_bits())
                    .collect()
            })
            .collect();
        Reference { walks, bits }
    }

    /// The segment a trip on walk `w` streams at `seq`.
    pub fn segment(&self, w: usize, seq: u32) -> u32 {
        let walk = &self.walks[w];
        walk[seq as usize % walk.len()]
    }

    pub fn source_dest(&self, w: usize) -> (u32, u32) {
        let walk = &self.walks[w];
        (walk[0], *walk.last().expect("non-empty walk"))
    }

    /// Whether `score` is bit-identical to the reference after `seq`.
    pub fn matches(&self, w: usize, seq: u32, score: f64) -> bool {
        self.bits[w].get(seq as usize) == Some(&score.to_bits())
    }
}

/// Departure slot of a trip on walk `w`.
pub fn slot_of(w: usize) -> u8 {
    (w % 4) as u8
}

/// Everything the serving workloads need before their first measured
/// event, with the wall time of each step.
pub struct Serving {
    pub city: City,
    pub model: Arc<CausalTad>,
    pub reference: Arc<Reference>,
    pub fit: TrainReport,
    pub city_s: f64,
    pub train_s: f64,
    pub reference_s: f64,
}

/// Generates the city, trains the serving model (the suite's quick
/// configuration, hidden 48, one epoch), and builds the reference table.
pub fn serving(seed: u64) -> Serving {
    let t = Instant::now();
    let city = city(seed);
    let city_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut model =
        CausalTad::new(&city.net, tad_bench::suite::causaltad_config(Scale::Quick, Some(1)));
    let fit = model.fit(&city.data.train);
    let model = Arc::new(model);
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let walks = tad_bench::fleet_walks(&model, WALKS, MAX_LEN as usize, mix(seed, 2));
    let reference = Arc::new(Reference::build(&model, walks));
    let reference_s = t.elapsed().as_secs_f64();
    Serving { city, model, reference, fit, city_s, train_s, reference_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_plan_is_a_function_of_seed_and_id() {
        let (a, b) = (TripPlan::new(5), TripPlan::new(5));
        for id in 0..1000 {
            assert_eq!((a.walk(id), a.len(id)), (b.walk(id), b.len(id)));
            assert!((MIN_LEN..=MAX_LEN).contains(&a.len(id)));
        }
        let c = TripPlan::new(6);
        assert!((0..100).any(|id| a.walk(id) != c.walk(id)));
    }
}
