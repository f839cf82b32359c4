//! The four workloads' inputs, generated from the seed.
//!
//! A [`Spec`] names one input before it is built; building turns it into a
//! corpus [`Sample`] and recording turns that into the [`Input`] a job
//! detonates. The program only ever sees the generated recordings.

use faros_corpus::families::{benign_rows, build_family_sample, malware_rows, Family};
use faros_corpus::{attacks, evasion, Category, Sample};
use faros_replay::{record, Recording, Scenario};
use std::collections::HashSet;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every registry sample as a recording job over the service socket.
    ServiceCorpus,
    /// Never-repeating family images analyzed in process.
    FreshImages,
    /// The largest Table V apps at ten times their rounds.
    LongReplay,
    /// The §VI-D taint bomb at large sizes.
    TaintStorm,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ServiceCorpus,
        Workload::FreshImages,
        Workload::LongReplay,
        Workload::TaintStorm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServiceCorpus => "service_corpus",
            Workload::FreshImages => "fresh_images",
            Workload::LongReplay => "long_replay",
            Workload::TaintStorm => "taint_storm",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs run after the reference reports and before the timed phase.
    pub fn warmup(self) -> usize {
        match self {
            Workload::ServiceCorpus => 40,
            Workload::FreshImages => 100,
            Workload::LongReplay | Workload::TaintStorm => 40,
        }
    }

    /// Closed-loop callers: the service gets one client connection per
    /// core of the reference machine (2); the direct workloads one caller.
    pub fn callers(self) -> usize {
        match self {
            Workload::ServiceCorpus => 2,
            _ => 1,
        }
    }
}

/// SplitMix64: the benchmark's own generator, so the inputs a seed makes do
/// not change when the repository's test generators do.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One input before it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spec {
    /// The sample at this index of `faros_corpus::sample_registry()`.
    Registry(usize),
    /// `build_family_sample(rows()[row], variant, rounds)`.
    Family {
        /// Index into [`family_rows`].
        row: usize,
        /// C2 variant (selects the port).
        variant: u32,
        /// Activity rounds per behaviour.
        rounds: u32,
    },
    /// `evasion::taint_bomb(rounds)`.
    Bomb {
        /// Ping-pong rounds.
        rounds: u32,
    },
}

/// The Table IV rows, malware first: the index space of [`Spec::Family`].
pub fn family_rows() -> Vec<Family> {
    malware_rows().into_iter().chain(benign_rows()).collect()
}

/// The four largest Table V apps and their Table V rounds.
const LONG_APPS: [(&str, u32); 4] =
    [("Skype", 60), ("Remote Utility", 58), ("Spygate v3.2", 26), ("TeamViewer", 22)];

/// The generated input pool of `long_replay` and `taint_storm` (`None` for
/// `service_corpus`, whose pool is the registry, and `fresh_images`, whose
/// inputs never repeat).
pub fn pool_specs(workload: Workload, seed: u64) -> Option<Vec<Spec>> {
    let mut rng = SplitMix::new(seed ^ 0x706f_6f6c);
    match workload {
        Workload::ServiceCorpus | Workload::FreshImages => None,
        Workload::LongReplay => {
            // Ten times the Table V rounds, four variants per app. The ±10%
            // round jitter is stratified (one draw per 5% band), so every
            // seed's pool has the same total work within a percent or so.
            let rows = family_rows();
            let mut specs = Vec::new();
            for (app, rounds) in LONG_APPS {
                let row = rows.iter().position(|f| f.name == app).expect("Table V app row");
                for band in 0..4u64 {
                    let permille = 900 + band * 50 + rng.below(50);
                    specs.push(Spec::Family {
                        row,
                        variant: 300 + rng.below(64) as u32,
                        rounds: (u64::from(rounds) * 10 * permille / 1000) as u32,
                    });
                }
            }
            Some(specs)
        }
        Workload::TaintStorm => {
            // Eight sizes in 400..800, one per 50-round band.
            Some(
                (0..8)
                    .map(|band| Spec::Bomb { rounds: 400 + band * 50 + rng.below(50) as u32 })
                    .collect(),
            )
        }
    }
}

/// Builds the sample a non-registry spec names.
pub fn build(spec: Spec, rows: &[Family]) -> Sample {
    match spec {
        Spec::Registry(i) => panic!("registry sample {i} comes from the registry, not a build"),
        Spec::Family { row, variant, rounds } => build_family_sample(&rows[row], variant, rounds),
        Spec::Bomb { rounds } => evasion::taint_bomb(rounds),
    }
}

/// What the report of a sample must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// One of the paper's injectors: must be flagged.
    Flagged,
    /// Benign or non-injecting registry sample, or a taint bomb: must not
    /// be flagged.
    NotFlagged,
    /// Family variant: no detector of the five may fire.
    Quiet,
    /// Other corpus classes (JIT, reuse, evasions): only byte identity
    /// with the reference is checked.
    Any,
}

/// The verdict an input must get; `injectors` names the registry samples
/// that must be flagged.
pub fn expectation(spec: Spec, sample: &Sample, injectors: &[String]) -> Expect {
    match spec {
        Spec::Family { .. } => Expect::Quiet,
        Spec::Bomb { .. } => Expect::NotFlagged,
        Spec::Registry(_) if injectors.iter().any(|n| n == sample.name()) => Expect::Flagged,
        Spec::Registry(_)
            if matches!(sample.category, Category::Benign | Category::NonInjectingMalware) =>
        {
            Expect::NotFlagged
        }
        Spec::Registry(_) => Expect::Any,
    }
}

/// Names of the paper's injectors (`attacks::all_injecting_samples`).
pub fn injector_names() -> Vec<String> {
    attacks::all_injecting_samples().iter().map(|s| s.name().to_string()).collect()
}

/// A built and recorded input.
#[derive(Debug)]
pub struct Input {
    /// What it was built from.
    pub spec: Spec,
    /// The corpus sample (scenario + ground truth).
    pub sample: Sample,
    /// The recording every job of this input replays.
    pub recording: Recording,
    /// The verdict its report must carry.
    pub expect: Expect,
}

impl Input {
    /// Records `sample` under the analysis budget.
    pub fn record(spec: Spec, sample: Sample, injectors: &[String], budget: u64) -> Input {
        let (recording, _) = record(&sample.scenario, budget)
            .unwrap_or_else(|e| panic!("recording {} failed: {e}", sample.name()));
        let expect = expectation(spec, &sample, injectors);
        Input { spec, sample, recording, expect }
    }
}

/// The order pooled inputs are detonated in: back-to-back seeded shuffles
/// of the pool, so every input runs equally often.
#[derive(Debug)]
pub struct Sequence {
    rng: SplitMix,
    order: Vec<usize>,
    pos: usize,
}

impl Sequence {
    /// The sequence over a pool of `len` inputs.
    pub fn new(len: usize, seed: u64) -> Sequence {
        let mut rng = SplitMix::new(seed ^ 0x6f72_6465);
        let mut order: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut order);
        Sequence { rng, order, pos: 0 }
    }

    /// The pool index of the next job.
    pub fn next_index(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// The `fresh_images` stream: family samples over every row, variants
/// 1000..1064 and rounds 1..=12 in seeded order, skipping any whose program
/// image was already produced, so no image repeats within a run.
///
/// The order is stratified: each block of 252 specs holds every
/// (row, rounds) pair once, each with a variant it has not had before. Any
/// prefix of the stream so has the same mix of job sizes whatever the
/// seed, and the latency percentiles do not move with it.
#[derive(Debug)]
pub struct FreshImages {
    rows: Vec<Family>,
    combos: Vec<Spec>,
    next: usize,
    seen: HashSet<u64>,
}

impl FreshImages {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> FreshImages {
        let rows = family_rows();
        let mut rng = SplitMix::new(seed ^ 0x6672_6573);
        let pairs: Vec<(usize, u32)> =
            (0..rows.len()).flat_map(|row| (1..=12).map(move |rounds| (row, rounds))).collect();
        let mut variants: Vec<Vec<u32>> = pairs
            .iter()
            .map(|_| {
                let mut v: Vec<u32> = (1000..1064).collect();
                rng.shuffle(&mut v);
                v
            })
            .collect();
        let mut combos = Vec::with_capacity(pairs.len() * 64);
        for _block in 0..64 {
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            rng.shuffle(&mut order);
            combos.extend(order.into_iter().map(|p| Spec::Family {
                row: pairs[p].0,
                variant: variants[p].pop().expect("64 variants per pair"),
                rounds: pairs[p].1,
            }));
        }
        FreshImages { rows, combos, next: 0, seen: HashSet::new() }
    }

    /// The next never-seen image, or `None` once every one was produced.
    pub fn next_sample(&mut self) -> Option<(Spec, Sample)> {
        while self.next < self.combos.len() {
            let spec = self.combos[self.next];
            self.next += 1;
            let sample = build(spec, &self.rows);
            if self.seen.insert(image_digest(&sample)) {
                return Some((spec, sample));
            }
        }
        None
    }
}

/// FNV-1a over every program image of a sample (`FdlImage::to_bytes`).
pub fn image_digest(sample: &Sample) -> u64 {
    sample
        .scenario
        .programs()
        .iter()
        .fold(crate::stats::FNV_INIT, |h, (_, image)| crate::stats::fnv1a(h, &image.to_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workload: Workload, seed: u64, jobs: usize) -> Vec<Spec> {
        let pool = match workload {
            Workload::ServiceCorpus => (0..149).map(Spec::Registry).collect(),
            Workload::FreshImages => {
                let mut fresh = FreshImages::new(seed);
                return (0..jobs).map(|_| fresh.next_sample().expect("enough images").0).collect();
            }
            _ => pool_specs(workload, seed).expect("pooled workload"),
        };
        let mut seq = Sequence::new(pool.len(), seed);
        (0..jobs).map(|_| pool[seq.next_index()]).collect()
    }

    #[test]
    fn one_seed_always_gives_the_same_job_list() {
        for w in Workload::ALL {
            let a = plan(w, 7, 300);
            assert_eq!(a, plan(w, 7, 300), "{}: same seed, same jobs", w.name());
            assert_ne!(a, plan(w, 8, 300), "{}: another seed, other jobs", w.name());
        }
    }

    #[test]
    fn pooled_sequences_run_every_input_equally_often() {
        let mut seq = Sequence::new(8, 3);
        let mut counts = [0usize; 8];
        for _ in 0..80 {
            counts[seq.next_index()] += 1;
        }
        assert_eq!(counts, [10; 8]);
    }

    #[test]
    fn fresh_images_never_repeat_an_image() {
        let mut fresh = FreshImages::new(11);
        let mut images = HashSet::new();
        while let Some((_, sample)) = fresh.next_sample() {
            let bytes: Vec<Vec<u8>> =
                sample.scenario.programs().iter().map(|(_, i)| i.to_bytes()).collect();
            assert!(images.insert(bytes), "image repeated");
        }
        // 11 distinct behaviour profiles × 64 ports × 12 round counts.
        assert_eq!(images.len(), 11 * 64 * 12);
    }

    #[test]
    fn fresh_images_mix_is_the_same_for_every_seed() {
        for seed in [1, 2, 3] {
            let mut fresh = FreshImages::new(seed);
            let mut per_rounds = [0usize; 12];
            for _ in 0..1200 {
                let Some((Spec::Family { rounds, .. }, _)) = fresh.next_sample() else {
                    panic!("family spec")
                };
                per_rounds[rounds as usize - 1] += 1;
            }
            assert!(
                per_rounds.iter().all(|&n| (90..=110).contains(&n)),
                "seed {seed}: {per_rounds:?}"
            );
        }
    }

    #[test]
    fn pools_stay_in_their_documented_ranges() {
        let rows = family_rows();
        for seed in 0..20 {
            let long = pool_specs(Workload::LongReplay, seed).expect("pooled");
            assert_eq!(long.len(), 16);
            for spec in long {
                let Spec::Family { row, variant, rounds } = spec else { panic!("family spec") };
                let base = LONG_APPS.iter().find(|(n, _)| *n == rows[row].name).expect("app").1;
                assert!((300..364).contains(&variant));
                assert!(rounds >= base * 9 && rounds <= base * 11, "{rounds} vs {base}");
            }
            let bombs = pool_specs(Workload::TaintStorm, seed).expect("pooled");
            assert_eq!(bombs.len(), 8);
            assert!(bombs
                .iter()
                .all(|s| matches!(s, Spec::Bomb { rounds } if (400..=800).contains(rounds))));
        }
    }
}
