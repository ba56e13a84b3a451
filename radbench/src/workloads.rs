//! The four workloads. Each pass is one campaign at a seed derived from the
//! workload seed: engines are rebuilt per pass, so every decoder cache and
//! memo starts cold and sees a campaign's real syndrome mix, never a replay.
//!
//! An untraced pass calls the program the way a user does and times only
//! from outside. A traced pass replays the same campaign through the
//! layers' public entry points with a span around each call, and must
//! reproduce the untraced outcome exactly.

use crate::probe::{process_cpu_s, secs, thread_cpu_s};
use crate::{Pass, Traced};
use radqec_circuit::Backend;
use radqec_core::codes::XxzzCode;
use radqec_core::decoder::{
    BulkDecoder, DecoderStats, StreamDecoder, StreamDecoderConfig, TierConfig,
    DEFAULT_DECODE_DEADLINE,
};
use radqec_core::experiments::{
    calibrate_stream, central_root, poisson_strikes, run_fleet, score_strikes, streaming_engine,
    Fig8Config, FleetConfig, FleetLayout, StreamingLerConfig,
};
use radqec_core::injection::{mix_seed, InjectionEngine, SamplerKind};
use radqec_core::streaming::{MultiStrike, StreamEngine, StreamFault};
use radqec_noise::{run_noisy_shot, FaultSpec, ResetBasis};
use radqec_stabilizer::{ReferenceTrace, StabilizerBackend};
use radqec_telemetry::{names, FlightEvent, FlightRecorder, MetricsRegistry};
use radqec_transpiler::{transpile, transpile_with_layout, Layout, TranspileOptions, Transpiled};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["paper_d3", "paper_d5", "closed_loop", "fleet"];

/// Shots one decode chunk carries: one bit-packed word.
const CHUNK_SHOTS: f64 = 64.0;

/// One benchmark workload.
pub trait Workload {
    /// The parameters that define the workload, for the manifest digest.
    fn params(&self) -> String;
    /// Passes whose logical errors make up the reported LER.
    fn ler_passes(&self) -> usize;
    /// One untraced campaign at `seed`.
    fn pass(&self, seed: u64) -> Pass;
    /// Process CPU seconds of the campaign's set-up alone at `seed`.
    fn setup_only(&self, seed: u64) -> f64;
    /// The campaign at `seed` replayed with layer spans; `reference` is the
    /// untraced pass at the same seed.
    fn traced_pass(&self, seed: u64, reference: &Pass) -> Traced;
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        // Fig. 8 XXZZ-(3,3) panel: 7 architectures, exact tableau sampler.
        "paper_d3" => {
            Box::new(Paper::new(Fig8Config::xxzz_panel(XxzzCode::new(3, 3).into()), PAPER_D3_SHOTS))
        }
        // The deep XXZZ-(5,5) panel: frame sampler and bulk decoding.
        "paper_d5" => Box::new(Paper::new(Fig8Config::deep_panel(), PAPER_D5_SHOTS)),
        "closed_loop" => Box::new(ClosedLoop),
        "fleet" => Box::new(Fleet),
        _ => return None,
    })
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `work` on point indices `0..n` as a closed loop: each of the
/// default number of workers takes the next point when it is free. The
/// engine's own per-call threads are capped to one inside each worker, so
/// the loop never runs more threads than cores.
fn closed_loop<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let inline = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("infallible");
    std::thread::scope(|scope| {
        for _ in 0..workers() {
            scope.spawn(|| {
                inline.install(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = work(i);
                    done.lock().expect("no worker panics holding the lock")[i] = Some(result);
                })
            });
        }
    });
    let done = done.into_inner().expect("workers joined");
    done.into_iter().map(|r| r.expect("every point ran")).collect()
}

fn nonzero_ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Logical→physical placement of `transpiled`'s source qubits.
fn placement(transpiled: &Transpiled, logical_qubits: u32) -> Vec<u32> {
    (0..logical_qubits).map(|l| transpiled.initial_layout.physical(l)).collect()
}

/// Seconds of one noiseless CHP tableau replay of `transpiled`'s circuit.
fn tableau_replay_s(transpiled: &Transpiled, n_phys: u32) -> f64 {
    let t = Instant::now();
    std::hint::black_box(ReferenceTrace::compute(&transpiled.circuit, n_phys as usize, 1));
    secs(t)
}

/// Decoder tier counters folded into per-layer readings.
fn decoder_layers(layers: &mut BTreeMap<&'static str, f64>, s: &DecoderStats) {
    *layers.entry("decoder.matchings").or_default() += s.matchings as f64;
    *layers.entry("decoder.cache_entries").or_default() += s.cache_entries as f64;
    *layers.entry("decoder.degraded_shots").or_default() += s.degraded as f64;
}

// ---------------------------------------------------------------- paper --

/// Shots per (architecture, root, temporal sample) on the d = 3 panel.
const PAPER_D3_SHOTS: usize = 128;
/// Shots per (root, temporal sample) on the d = 5 deep panel.
const PAPER_D5_SHOTS: usize = 512;
/// Syndrome rounds of the paper's two-round experiment.
const PAPER_ROUNDS: u64 = 2;
/// Passes whose errors make up a panel's LER: one pass is already a whole
/// panel of over 10⁵ shots.
const PAPER_LER_PASSES: usize = 1;

/// A Fig. 8 panel: a full radiation strike at every used physical qubit of
/// every architecture, each over all temporal samples.
struct Paper {
    cfg: Fig8Config,
}

impl Paper {
    fn new(mut cfg: Fig8Config, shots: usize) -> Self {
        cfg.shots = shots;
        Paper { cfg }
    }

    fn engines(&self, seed: u64) -> Vec<InjectionEngine> {
        self.cfg
            .architectures
            .iter()
            .map(|topo| {
                InjectionEngine::builder(self.cfg.code)
                    .topology(topo.clone())
                    .shots(self.cfg.shots)
                    .seed(seed)
                    .sampler(self.cfg.sampler)
                    .build()
            })
            .collect()
    }

    fn fault(&self, root: u32) -> FaultSpec {
        FaultSpec::Radiation { model: self.cfg.model, root }
    }

    /// `(engine, root, temporal sample)` points in campaign order.
    fn points(&self, engines: &[InjectionEngine]) -> Vec<(usize, u32, usize)> {
        let mut points = Vec::new();
        for (e, engine) in engines.iter().enumerate() {
            for root in engine.used_physical_qubits() {
                for sample in 0..self.fault(root).num_samples() {
                    points.push((e, root, sample));
                }
            }
        }
        points
    }

    fn stats(engines: &[InjectionEngine]) -> DecoderStats {
        let mut total = DecoderStats::default();
        for s in engines.iter().filter_map(InjectionEngine::decoder_stats) {
            total.shots += s.shots;
            total.trivial += s.trivial;
            total.cache_hits += s.cache_hits;
            total.matchings += s.matchings;
            total.degraded += s.degraded;
            total.cache_entries += s.cache_entries;
        }
        total
    }

    /// Logical errors of one point, replayed through the sampler and the
    /// decoder with a span around each; returns `(errors, generate_s,
    /// decode_s)`.
    fn replay_point(
        &self,
        engine: &InjectionEngine,
        seed: u64,
        root: u32,
        sample: usize,
    ) -> (u64, f64, f64) {
        let fault = self.fault(root);
        let (mut errors, mut generate, mut decode) = (0u64, 0.0, 0.0);
        match self.cfg.sampler {
            SamplerKind::Tableau => {
                // The engine's exact tableau loop: one seeded CHP replay per
                // shot, decoded shot by shot.
                let active = fault.activate(engine.topology(), sample).with_basis(ResetBasis::Z);
                let circuit = &engine.transpiled().circuit;
                let mut backend = StabilizerBackend::new(engine.topology().num_qubits());
                for shot in 0..self.cfg.shots {
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, sample as u64, shot as u64));
                    backend.reset_all();
                    let t = Instant::now();
                    let record =
                        run_noisy_shot(circuit, &mut backend, &self.cfg.noise, &active, &mut rng);
                    generate += secs(t);
                    let t = Instant::now();
                    errors += u64::from(!engine.decoder().decode(&record));
                    decode += secs(t);
                }
            }
            SamplerKind::FrameBatch => {
                let t = Instant::now();
                let batches = engine.frame_batches_at_sample(&fault, &self.cfg.noise, sample);
                generate += secs(t);
                for batch in &batches {
                    let t = Instant::now();
                    errors += engine.decoder().decode_batch(batch).iter().filter(|&&ok| !ok).count()
                        as u64;
                    decode += secs(t);
                }
            }
        }
        (errors, generate, decode)
    }
}

impl Workload for Paper {
    fn params(&self) -> String {
        let archs: Vec<&str> = self.cfg.architectures.iter().map(|t| t.name()).collect();
        format!(
            "paper code={} archs={archs:?} shots={} sampler={:?} noise={:?} model={:?} \
             ler_passes={PAPER_LER_PASSES}",
            self.cfg.code.name(),
            self.cfg.shots,
            self.cfg.sampler,
            self.cfg.noise,
            self.cfg.model,
        )
    }

    fn ler_passes(&self) -> usize {
        PAPER_LER_PASSES
    }

    fn setup_only(&self, seed: u64) -> f64 {
        let cpu = process_cpu_s();
        std::hint::black_box(self.engines(seed));
        process_cpu_s() - cpu
    }

    fn pass(&self, seed: u64) -> Pass {
        let cpu = process_cpu_s();
        let engines = self.engines(seed);
        let mut pass = Pass { setup_s: process_cpu_s() - cpu, ..Pass::default() };
        let points = self.points(&engines);
        let shots = self.cfg.shots as u64;
        let chunk_rounds = shots as f64 / CHUNK_SHOTS * PAPER_ROUNDS as f64;
        let cpu = process_cpu_s();
        let t = Instant::now();
        let results = closed_loop(points.len(), |i| {
            let (e, root, sample) = points[i];
            let call = thread_cpu_s();
            let ler =
                engines[e].logical_error_at_sample(&self.fault(root), &self.cfg.noise, sample);
            ((ler * shots as f64).round() as u64, thread_cpu_s() - call)
        });
        pass.run_s = secs(t);
        pass.cpu_s = process_cpu_s() - cpu;
        for (errors, call_s) in results {
            pass.outcome.push(errors);
            pass.chunk_round_us.push(call_s * 1e6 / chunk_rounds);
        }
        pass.scored = points.len() as u64 * shots;
        pass.errors = pass.outcome.iter().sum();
        pass.shot_rounds = pass.scored * PAPER_ROUNDS;
        let stats = Self::stats(&engines);
        pass.attempted += stats.shots;
        pass.failed += stats.degraded;
        pass.check("every shot decoded", stats.shots == pass.scored);
        pass.check("ler strictly between 0 and 1", pass.errors > 0 && pass.errors < pass.scored);
        pass
    }

    fn traced_pass(&self, seed: u64, reference: &Pass) -> Traced {
        let mut tr = Traced::default();
        let layers = &mut tr.layers;
        let code = self.cfg.code.build();
        let opts = TranspileOptions::auto();
        for topo in &self.cfg.architectures {
            let t = Instant::now();
            let routed = transpile(&code.circuit, topo, &opts);
            *layers.entry("transpiler.transpile_s").or_default() += secs(t);
            *layers.entry("transpiler.swaps").or_default() += routed.swap_count as f64;
        }
        let t = Instant::now();
        let engines = self.engines(seed);
        layers.insert("core.setup_s", secs(t));
        let points = self.points(&engines);

        let t = Instant::now();
        let replays = closed_loop(points.len(), |i| {
            let (e, root, sample) = points[i];
            self.replay_point(&engines[e], seed, root, sample)
        });
        tr.wall_s = secs(t);
        let workers = workers();
        tr.capacity_s = tr.wall_s * workers as f64;
        let generate: f64 = replays.iter().map(|r| r.1).sum();
        let decode: f64 = replays.iter().map(|r| r.2).sum();
        tr.covered_s = generate + decode;
        tr.reproduced = replays.iter().map(|r| r.0).eq(reference.outcome.iter().copied());

        let shots = (points.len() * self.cfg.shots) as f64;
        let tableau_us = match self.cfg.sampler {
            SamplerKind::Tableau => generate / shots * 1e6,
            SamplerKind::FrameBatch => {
                tableau_replay_s(engines[0].transpiled(), engines[0].topology().num_qubits()) * 1e6
            }
        };
        let layers = &mut tr.layers;
        layers.insert("stabilizer.tableau_shot_us", tableau_us);
        layers.insert("noise.generate_s", generate);
        layers.insert("decoder.decode_s", decode);
        layers.insert("decoder.shot_decode_us", decode / shots * 1e6);
        let stats = Self::stats(&engines);
        decoder_layers(layers, &stats);
        layers.insert(
            "decoder.cache_hit_ratio",
            nonzero_ratio(stats.cache_hits, stats.shots - stats.trivial),
        );
        tr
    }
}

// ---------------------------------------------------------- closed loop --

/// Replicas streamed per code and pass.
const CLOSED_LOOP_SHOTS: usize = 1024;
/// Passes whose errors make up the closed loop's LER.
const CLOSED_LOOP_LER_PASSES: usize = 64;

/// The streaming-LER acceptance set: rep-(5,1) and xxzz-(3,3), 10 rounds,
/// a central strike, the adaptive `StreamDecoder` as the round sink.
struct ClosedLoop;

impl ClosedLoop {
    fn cfg(seed: u64) -> StreamingLerConfig {
        let mut cfg = StreamingLerConfig::acceptance();
        cfg.shots = CLOSED_LOOP_SHOTS;
        cfg.seed = seed;
        cfg
    }

    /// Engine, calibration and sink for `code` — the campaign's set-up.
    fn build(
        cfg: &StreamingLerConfig,
        code: radqec_core::codes::CodeSpec,
    ) -> (StreamEngine, StreamDecoderConfig, StreamFault) {
        let engine = streaming_engine(cfg, code);
        let (baseline, sigma) = calibrate_stream(&engine, &cfg.noise);
        let decoder = StreamDecoderConfig {
            window: cfg.window,
            adaptive: true,
            radius: cfg.radius,
            baseline,
            sigma,
            ..StreamDecoderConfig::default()
        };
        let fault = StreamFault::Strike { model: cfg.model, root: central_root(&engine) };
        (engine, decoder, fault)
    }
}

impl Workload for ClosedLoop {
    fn params(&self) -> String {
        let cfg = Self::cfg(0);
        let codes: Vec<String> = cfg.codes.iter().map(|c| c.name()).collect();
        format!(
            "closed_loop codes={codes:?} shots={} rounds={} window={:?} radius={} noise={:?} \
             model={:?} ler_passes={CLOSED_LOOP_LER_PASSES}",
            cfg.shots, cfg.rounds, cfg.window, cfg.radius, cfg.noise, cfg.model
        )
    }

    fn ler_passes(&self) -> usize {
        CLOSED_LOOP_LER_PASSES
    }

    fn setup_only(&self, seed: u64) -> f64 {
        let cfg = Self::cfg(seed);
        let cpu = process_cpu_s();
        for &code in &cfg.codes {
            let (engine, dcfg, _) = Self::build(&cfg, code);
            std::hint::black_box(StreamDecoder::new(&engine, dcfg, TierConfig::default()));
        }
        process_cpu_s() - cpu
    }

    fn pass(&self, seed: u64) -> Pass {
        let cfg = Self::cfg(seed);
        let mut pass = Pass::default();
        for &code in &cfg.codes {
            let cpu = process_cpu_s();
            let (engine, dcfg, fault) = Self::build(&cfg, code);
            let decoder = StreamDecoder::new(&engine, dcfg, TierConfig::default());
            pass.setup_s += process_cpu_s() - cpu;

            let latencies = Mutex::new(Vec::with_capacity(engine.num_chunks() * cfg.rounds));
            let cpu = process_cpu_s();
            let t = Instant::now();
            engine.for_each_round(&fault, &cfg.noise, |slice| {
                let call = thread_cpu_s();
                decoder.ingest(slice);
                let us = (thread_cpu_s() - call) * 1e6;
                latencies.lock().expect("no sink panics holding the lock").push(us);
            });
            pass.run_s += secs(t);
            pass.cpu_s += process_cpu_s() - cpu;
            pass.chunk_round_us.extend(latencies.into_inner().expect("rounds done"));

            let report = decoder.report();
            pass.errors += report.errors;
            pass.scored += report.shots;
            pass.shot_rounds += report.shots * cfg.rounds as u64;
            pass.outcome.push(report.errors);
            let snap = engine.metrics_snapshot();
            pass.attempted += engine.num_chunks() as u64 + snap.counter(names::DECODE_SHOTS);
            pass.failed += snap.counter(names::DECODE_DEGRADED);
            pass.check("every replica scored", report.shots == cfg.shots as u64);
            pass.check("the strike raised an alarm", report.chunk_alarms > 0);
        }
        pass
    }

    fn traced_pass(&self, seed: u64, reference: &Pass) -> Traced {
        let cfg = Self::cfg(seed);
        let mut tr = Traced { reproduced: true, ..Traced::default() };
        let mut tableau_s = 0.0;
        let mut shots = 0u64;
        let (mut nontrivial, mut hits) = (0u64, 0u64);
        for (k, &code) in cfg.codes.iter().enumerate() {
            let t = Instant::now();
            let (engine, dcfg, fault) = Self::build(&cfg, code);
            let decoder = StreamDecoder::new(&engine, dcfg, TierConfig::default());
            *tr.layers.entry("core.setup_s").or_default() += secs(t);

            let logical = engine.memory().circuit.num_qubits();
            let l2p = placement(engine.transpiled(), logical);
            let n = engine.topology().num_qubits();
            let t = Instant::now();
            let routed = transpile_with_layout(
                &engine.memory().circuit,
                engine.topology(),
                Layout::new(l2p, n),
                &TranspileOptions::auto(),
            );
            *tr.layers.entry("transpiler.transpile_s").or_default() += secs(t);
            *tr.layers.entry("transpiler.swaps").or_default() += routed.swap_count as f64;
            tableau_s += tableau_replay_s(engine.transpiled(), n);

            // Generation alone, through a no-op sink; the traced decode pass
            // below is credited with the same generation time.
            let busy = workers().min(engine.num_chunks()) as f64;
            let t = Instant::now();
            engine.for_each_round(&fault, &cfg.noise, |_| {});
            let generate_wall = secs(t);
            let generate = generate_wall * busy;

            let ingest = Mutex::new(0.0f64);
            let t = Instant::now();
            engine.for_each_round(&fault, &cfg.noise, |slice| {
                let t = Instant::now();
                decoder.ingest(slice);
                *ingest.lock().expect("no sink panics holding the lock") += secs(t);
            });
            let decode_wall = secs(t);
            let ingest = ingest.into_inner().expect("rounds done");

            tr.wall_s += decode_wall;
            tr.capacity_s += decode_wall * busy;
            tr.covered_s += ingest + generate;
            let report = decoder.report();
            tr.reproduced &= reference.outcome.get(k) == Some(&report.errors);
            shots += report.shots;

            let snap = engine.metrics_snapshot();
            let layers = &mut tr.layers;
            *layers.entry("noise.generate_s").or_default() += generate;
            *layers.entry("decoder.decode_s").or_default() += ingest;
            *layers.entry("decoder.matchings").or_default() +=
                snap.counter(names::DECODE_MATCHINGS) as f64;
            *layers.entry("decoder.degraded_shots").or_default() +=
                snap.counter(names::DECODE_DEGRADED) as f64;
            *layers.entry("detect.alarms").or_default() += report.chunk_alarms as f64;
            let (unmasked, masked) = decoder.decoder().context_counts();
            *layers.entry("decoder.spacetime_contexts").or_default() += (unmasked + masked) as f64;
            nontrivial += snap.counter(names::DECODE_SHOTS) - snap.counter(names::DECODE_TRIVIAL);
            hits += snap.counter(names::DECODE_CACHE_HITS);
        }
        let layers = &mut tr.layers;
        layers.insert("stabilizer.tableau_shot_us", tableau_s / cfg.codes.len() as f64 * 1e6);
        let decode = layers.get("decoder.decode_s").copied().unwrap_or(0.0);
        layers.insert("decoder.shot_decode_us", decode / shots.max(1) as f64 * 1e6);
        layers.insert("decoder.cache_hit_ratio", nonzero_ratio(hits, nontrivial));
        tr
    }
}

// ---------------------------------------------------------------- fleet --

/// Passes whose logical-error bursts make up the fleet's LER.
const FLEET_LER_PASSES: usize = 8;

/// Patches of the benchmark's fleet. `FleetConfig::acceptance` tiles three;
/// one keeps every other setting and fits three times the campaigns into a
/// run. A campaign's cost swings with where its Poisson strikes land, and
/// over three-patch campaigns the run-to-run spread of throughput reached
/// 22–26 %.
const FLEET_PATCHES: usize = 1;

/// Event rounds in one of the fleet's pair-decode windows: each
/// `BulkDecoder::decode_batch` call decodes one chunk over two rounds.
const FLEET_WINDOW_ROUNDS: usize = 2;

/// `FleetConfig::acceptance` on one patch: a rep-(5,1) patch, 64
/// replicas, Poisson strikes over 10 000 rounds.
struct Fleet;

/// The fleet's set-up, rebuilt through the public API step for step as
/// `run_fleet` performs it before its first round: layout, strikes, the
/// shared registry and flight recorder, and per patch a `BulkDecoder` on
/// the same tiers and deadline and a `StreamEngine` wired to both.
/// `run_fleet` offers no hook between its set-up and its rounds, so the
/// benchmark times this copy for `setup_s`; the campaign itself then sets
/// up again inside the timed `run_fleet` call.
struct FleetSetup {
    engines: Vec<StreamEngine>,
    fault: StreamFault,
}

impl Fleet {
    fn cfg(seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::acceptance();
        cfg.patches = FLEET_PATCHES;
        cfg.seed = seed;
        cfg
    }

    fn setup(cfg: &FleetConfig) -> FleetSetup {
        let layout = FleetLayout::tile(cfg.code, cfg.patches);
        let strikes = poisson_strikes(cfg, &layout.device);
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(FlightRecorder::with_capacity(
            radqec_telemetry::DEFAULT_RECORDER_CAPACITY.max(2 * strikes.len()),
        ));
        for s in &strikes {
            recorder.record(s.onset_round as u64, FlightEvent::StrikeOnset { root: s.root });
        }
        let code = cfg.code.build();
        let tiers = TierConfig {
            deadline: cfg.deadline.or(Some(DEFAULT_DECODE_DEADLINE)),
            cache_capacity: cfg.cache_capacity,
            mask_capacity: cfg.mask_capacity,
            ..TierConfig::default()
        };
        let engines = (0..cfg.patches)
            .map(|patch| {
                let engine = StreamEngine::builder(cfg.code, cfg.rounds)
                    .shots(cfg.shots)
                    .seed(mix_seed(cfg.seed, patch as u64, 0x1EE7))
                    .frame_chunk(cfg.frame_chunk)
                    .topology(layout.device.clone())
                    .initial_layout(layout.placements[patch].clone())
                    .metrics(Arc::clone(&registry))
                    .flight_recorder(Arc::clone(&recorder))
                    .build();
                std::hint::black_box(BulkDecoder::with_tiers(&code, tiers));
                engine
            })
            .collect();
        let fault = if strikes.is_empty() {
            StreamFault::None
        } else {
            StreamFault::MultiStrike(
                MultiStrike::try_new(strikes).expect("poisson onsets are non-decreasing"),
            )
        };
        FleetSetup { engines, fault }
    }

    fn outcome(res: &radqec_core::experiments::FleetResult) -> Vec<u64> {
        let recovered = res.strikes.iter().filter(|s| s.recovery_round.is_some()).count();
        vec![
            res.metrics.bursts,
            res.metrics.total_events,
            res.metrics.strikes as u64,
            res.metrics.detected as u64,
            recovered as u64,
        ]
    }
}

impl Workload for Fleet {
    fn params(&self) -> String {
        let c = Self::cfg(0);
        format!(
            "fleet code={} patches={} rounds={} shots={} chunk={} rate={} decay={} noise={:?} \
             model={:?} ler_passes={FLEET_LER_PASSES}",
            c.code.name(),
            c.patches,
            c.rounds,
            c.shots,
            c.frame_chunk,
            c.strikes_per_kiloround,
            c.strike_decay_rounds,
            c.noise,
            c.model
        )
    }

    fn ler_passes(&self) -> usize {
        FLEET_LER_PASSES
    }

    fn setup_only(&self, seed: u64) -> f64 {
        let cpu = process_cpu_s();
        std::hint::black_box(Self::setup(&Self::cfg(seed)));
        process_cpu_s() - cpu
    }

    fn pass(&self, seed: u64) -> Pass {
        let cfg = Self::cfg(seed);
        let mut pass = Pass { setup_s: self.setup_only(seed), ..Pass::default() };

        let cpu = process_cpu_s();
        let t = Instant::now();
        let res = run_fleet(&cfg);
        pass.run_s = secs(t);
        pass.cpu_s = process_cpu_s() - cpu;

        let replicas = (cfg.patches * cfg.shots) as u64;
        // A logical-error burst per decoded replica-window.
        pass.scored = replicas * (cfg.rounds / FLEET_WINDOW_ROUNDS) as u64;
        pass.errors = res.metrics.bursts;
        pass.shot_rounds = replicas * cfg.rounds as u64;
        pass.decode_hist = res
            .snapshot
            .histogram(names::STAGE_DECODE_NS)
            .map(|h| (h.clone(), FLEET_WINDOW_ROUNDS as f64));
        let chunks = (cfg.patches * cfg.shots.div_ceil(cfg.frame_chunk)) as u64;
        let decoded: u64 = res.per_patch.iter().map(|p| p.decode.shots).sum();
        pass.attempted += chunks + decoded;
        pass.failed += res.failed_chunks() as u64 + res.retried_chunks() + res.degraded_shots();
        pass.outcome = Self::outcome(&res);
        pass.check("campaign complete", res.complete);
        // Detection is a 4σ spike gate, so a strike whose excess stays
        // under it goes undetected by design (rare: two of about 160
        // sampled campaigns had one). What must hold is that the online
        // alarm stream scores every strike exactly as the offline
        // reference does over the merged chunk records.
        let strikes = poisson_strikes(&cfg, &FleetLayout::tile(cfg.code, cfg.patches).device);
        pass.check(
            "strike scoring matches the offline reference",
            res.strikes == score_strikes(&cfg, &strikes, &res.per_patch_events),
        );
        // A strike too close to the end of the timeline has no rounds left
        // to recover in; every other strike must recover.
        pass.check(
            "every strike recovered",
            res.strikes
                .iter()
                .filter(|s| s.onset_round + cfg.detect_window <= cfg.rounds)
                .all(|s| s.recovery_round.is_some()),
        );
        pass
    }

    fn traced_pass(&self, seed: u64, reference: &Pass) -> Traced {
        let cfg = Self::cfg(seed);
        let mut tr = Traced::default();
        let t = Instant::now();
        let setup = Self::setup(&cfg);
        tr.layers.insert("core.setup_s", secs(t));

        let opts = TranspileOptions::auto();
        for engine in &setup.engines {
            let l2p = placement(engine.transpiled(), engine.memory().circuit.num_qubits());
            let n = engine.topology().num_qubits();
            let t = Instant::now();
            let routed = transpile_with_layout(
                &engine.memory().circuit,
                engine.topology(),
                Layout::new(l2p, n),
                &opts,
            );
            *tr.layers.entry("transpiler.transpile_s").or_default() += secs(t);
            *tr.layers.entry("transpiler.swaps").or_default() += routed.swap_count as f64;
        }
        let first = &setup.engines[0];
        let tableau_s = tableau_replay_s(first.transpiled(), first.topology().num_qubits());

        // Generation alone: every patch through the supervised driver with
        // a no-op sink.
        let busy = workers().min(first.num_chunks()) as f64;
        let t = Instant::now();
        for engine in &setup.engines {
            engine
                .for_each_round_supervised(&setup.fault, &cfg.noise, |_| false, |_| {})
                .expect("poisson strikes are in range by construction");
        }
        let generate_wall = secs(t);
        let generate = generate_wall * busy;

        let t = Instant::now();
        let res = run_fleet(&cfg);
        let fleet_wall = secs(t);
        let decode =
            res.snapshot.histogram(names::STAGE_DECODE_NS).map_or(0, |h| h.sum()) as f64 / 1e9;

        tr.wall_s = fleet_wall;
        tr.capacity_s = fleet_wall * busy;
        tr.covered_s = decode + generate;
        let outcome = Self::outcome(&res);
        tr.reproduced = outcome == reference.outcome;

        let windows = (cfg.patches * cfg.shots * (cfg.rounds / FLEET_WINDOW_ROUNDS)) as f64;
        let (mut nontrivial, mut hits) = (0u64, 0u64);
        for p in &res.per_patch {
            decoder_layers(&mut tr.layers, &p.decode);
            nontrivial += p.decode.shots - p.decode.trivial;
            hits += p.decode.cache_hits;
        }
        let layers = &mut tr.layers;
        layers.insert("stabilizer.tableau_shot_us", tableau_s * 1e6);
        layers.insert("noise.generate_s", generate);
        layers.insert("decoder.decode_s", decode);
        layers.insert("decoder.shot_decode_us", decode / windows * 1e6);
        layers.insert("decoder.cache_hit_ratio", nonzero_ratio(hits, nontrivial));
        layers.insert("detect.alarms", res.snapshot.counter(names::DETECT_ALARMS) as f64);
        layers.insert("streaming.retried_chunks", res.retried_chunks() as f64);
        layers.insert("fleet.strikes", outcome[2] as f64);
        layers.insert("fleet.detected", outcome[3] as f64);
        layers.insert("fleet.recovered", outcome[4] as f64);
        tr
    }
}
