//! Replay-path benchmarks for the observability layer: what does tracing
//! cost on top of a plain replay, and how fast does taint propagation run
//! across the attack corpus?
//!
//! Runs on the in-tree harness (`faros_support::bench`); set
//! `FAROS_BENCH_WRITE=<dir>` to emit `BENCH_replay.json`.

use faros::{Faros, Policy};
use faros_bench::experiments::BUDGET;
use faros_corpus::families::{benign_rows, build_family_sample};
use faros_corpus::{attacks, evasion};
use faros_obs::trace::RecorderHandle;
use faros_replay::{
    record, replay, BlockCoverage, CapabilityMonitor, CfiMonitor, PluginManager, TraceRecorder,
};
use faros_support::bench::{black_box, BenchGroup};
use faros_support::bench_main;
use std::time::Instant;

/// Interleaved base/FAROS pairs behind each gate statistic.
const GATE_PAIRS: usize = 10;

/// Replays per side of one pair (about 1 ms of plain `process_hollowing`
/// replay, 20 ms of plain taint-bomb replay, 50 ms of the idle-ending
/// TeamViewer replay under the job's plugin set).
const REPLAYS_PER_SIDE: u32 = 20;

fn bench_replay() {
    let mut group = BenchGroup::new("replay");
    group.sample_size(10);

    let sample = attacks::process_hollowing();
    group.bench_function("record", |b| {
        b.iter(|| record(&sample.scenario, BUDGET).expect("record").1.instructions)
    });

    let (recording, _) = record(&sample.scenario, BUDGET).expect("record");
    let replay_base = || {
        let mut empty = PluginManager::new();
        replay(&sample.scenario, &recording, BUDGET, &mut empty).expect("replay").instructions
    };
    let replay_faros = || {
        let mut faros = Faros::new(Policy::paper());
        replay(&sample.scenario, &recording, BUDGET, &mut faros).expect("replay").instructions
    };
    group.bench_function("replay_base", |b| b.iter(replay_base));
    group.bench_function("replay_faros", |b| b.iter(replay_faros));
    // The statistic `faros-cli bench-gate` checks. Each pair times both
    // sides back to back, so load on a shared host slows both alike, and
    // alternating the leading side cancels any first-runner advantage.
    group.annotate("pair_ratio_median_x1000", median_pair_ratio_x1000(replay_base, replay_faros));
    // The §VI-D taint bomb ping-pongs a tainted buffer between two
    // processes with `NtWriteVirtualMemory`, 600 times: this pair measures
    // the kernel copy path from the page walk through to the shadow, which
    // `bench-gate` checks with a ceiling of its own.
    let bomb = evasion::taint_bomb(600);
    let (bomb_recording, _) = record(&bomb.scenario, BUDGET).expect("record");
    let bomb_base = || {
        let mut empty = PluginManager::new();
        replay(&bomb.scenario, &bomb_recording, BUDGET, &mut empty).expect("replay").instructions
    };
    let bomb_faros = || {
        let mut faros = Faros::new(Policy::paper());
        replay(&bomb.scenario, &bomb_recording, BUDGET, &mut faros).expect("replay").instructions
    };
    group.bench_function("replay_bomb_base", |b| b.iter(bomb_base));
    group.bench_function("replay_bomb_faros", |b| b.iter(bomb_faros));
    group.annotate("pair_ratio_median_x1000", median_pair_ratio_x1000(bomb_base, bomb_faros));
    // A long replay that ends idle: TeamViewer at 220 rounds (a
    // `long_replay` job's size) blocks for good in a receive and idles to
    // the scheduler's deadlock horizon, replayed under the job's plugin
    // set. `bench-gate` checks its per-pair ratio to `replay_base`, which
    // grows about fourfold if idle time is spun through round by round.
    let teamviewer = benign_rows().into_iter().find(|f| f.name == "TeamViewer").expect("row");
    let idle = build_family_sample(&teamviewer, 300, 220);
    let (idle_recording, _) = record(&idle.scenario, BUDGET).expect("record");
    let replay_idle = || {
        let mut plugins = PluginManager::new();
        plugins.register(Box::new(Faros::new(Policy::paper())));
        plugins.register(Box::new(BlockCoverage::new()));
        plugins.register(Box::new(CfiMonitor::new()));
        plugins.register(Box::new(CapabilityMonitor::new()));
        replay(&idle.scenario, &idle_recording, BUDGET, &mut plugins).expect("replay").instructions
    };
    group.bench_function("replay_idle", |b| b.iter(replay_idle));
    group.annotate("pair_ratio_median_x1000", median_pair_ratio_x1000(replay_base, replay_idle));
    // Full observability stack: flight recorder + FAROS emitting into the
    // same ring, dispatch counting on — the realistic traced-replay cost.
    group.bench_function("replay_traced", |b| {
        b.iter(|| {
            let ring = RecorderHandle::default();
            let mut faros = Faros::new(Policy::paper());
            faros.attach_recorder(ring.clone());
            let mut plugins = PluginManager::new();
            plugins.register(Box::new(TraceRecorder::new(ring.clone())));
            plugins.register(Box::new(faros));
            replay(&sample.scenario, &recording, BUDGET, &mut plugins)
                .expect("replay")
                .instructions
        })
    });

    // Taint-propagation throughput over the whole attack corpus: replay
    // every injecting sample under FAROS and report per-iteration cost of
    // the full propagate-and-detect pipeline.
    for atk in attacks::all_injecting_samples() {
        let (rec, _) = record(&atk.scenario, BUDGET).expect("record");
        let label = atk.name().replace(' ', "_").to_lowercase();
        group.bench_function(format!("taint_throughput/{label}"), |b| {
            b.iter(|| {
                let mut faros = Faros::new(Policy::paper());
                let outcome =
                    replay(&atk.scenario, &rec, BUDGET, &mut faros).expect("replay");
                (outcome.instructions, faros.stats().copied_bytes)
            })
        });
    }

    // Shadow-memory microbenchmarks: the paged shadow's hot operations in
    // isolation, on both sides of the zero-taint fast path.
    bench_shadow(&mut group);

    group.finish();
}

/// Times [`GATE_PAIRS`] interleaved `(base, faros)` pairs, alternating which
/// side runs first, and returns the median of the per-pair
/// `faros / base` time ratios, times 1000.
fn median_pair_ratio_x1000(base: impl Fn() -> u64, faros: impl Fn() -> u64) -> u64 {
    let time = |side: &dyn Fn() -> u64| {
        let start = Instant::now();
        for _ in 0..REPLAYS_PER_SIDE {
            black_box(side());
        }
        start.elapsed().as_nanos().max(1)
    };
    let mut ratios: Vec<u64> = (0..GATE_PAIRS)
        .map(|i| {
            let (base_ns, faros_ns) = if i % 2 == 0 {
                let b = time(&base);
                (b, time(&faros))
            } else {
                let f = time(&faros);
                (time(&base), f)
            };
            (faros_ns * 1000 / base_ns) as u64
        })
        .collect();
    ratios.sort_unstable();
    ratios[GATE_PAIRS / 2]
}

fn bench_shadow(group: &mut BenchGroup) {
    use faros_taint::engine::{PropagationMode, TaintEngine};
    use faros_taint::shadow::ShadowAddr;
    use faros_taint::tag::{ProvTag, TagKind};

    const OPS: u32 = 4096;
    let tag = ProvTag::new(TagKind::Netflow, 7);

    // Fully clean engine: every copy/union/delete takes the zero-taint
    // early exit. This is the common case on a mostly-benign trace.
    group.bench_function("shadow/zero_taint_copies", |b| {
        b.iter(|| {
            let mut e = TaintEngine::new(PropagationMode::direct_only());
            for i in 0..OPS {
                e.copy(ShadowAddr::Mem(i * 8), ShadowAddr::Mem(i * 8 + 4), 4);
            }
            e.shadow().tainted_mem_bytes()
        })
    });

    // One tainted page keeps the fast path disarmed: the same copies now
    // walk the paged shadow (mostly hitting unallocated pages).
    group.bench_function("shadow/tainted_copies", |b| {
        b.iter(|| {
            let mut e = TaintEngine::new(PropagationMode::direct_only());
            e.label_range_fresh(0x0010_0000, 4096, tag);
            for i in 0..OPS {
                e.copy(ShadowAddr::Mem(i * 8), ShadowAddr::Mem(i * 8 + 4), 4);
            }
            e.shadow().tainted_mem_bytes()
        })
    });

    // Label a multi-page run, move it around with page-crossing batched
    // stores, then delete it: the allocate/propagate/free page lifecycle.
    group.bench_function("shadow/page_lifecycle", |b| {
        b.iter(|| {
            let mut e = TaintEngine::new(PropagationMode::direct_only());
            e.label_range_fresh(0x1000 - 8, 3 * 4096, tag);
            for i in 0..512u32 {
                let src = [0x1000 - 2 + i, 0x1000 - 1 + i, 0x8000 + i, 0x8001 + i];
                e.copy_mem_to_reg(0, &src);
                let dst = [0x5000 - 2 + i, 0x5000 - 1 + i, 0xc000 + i, 0xc001 + i];
                e.copy_reg_to_mem(&dst, 0);
            }
            e.delete_mem(&[0x1000, 0x2000, 0x3000]);
            (e.shadow().tainted_mem_bytes(), e.shadow().resident_pages())
        })
    });

    // Region extraction over a sparse, fragmented shadow: the reporting
    // path that used to sort a HashMap's keys every call.
    group.bench_function("shadow/tainted_regions", |b| {
        let mut e = TaintEngine::new(PropagationMode::direct_only());
        for i in 0..256u32 {
            e.label_range_fresh(i * 0x2000, 24, tag);
        }
        b.iter(|| e.tainted_regions().len())
    });
}

bench_main!(bench_replay);
