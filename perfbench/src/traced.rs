//! The traced mode: per-layer metrics from spans the benchmark records
//! around each call into a layer. Never used for end-to-end numbers.
//!
//! On museum-x64 and walk-4096 the frame loop of `approxcache::run` is
//! driven here call by call (`render`, `neighbors`, `process_frame`), and
//! the per-device outcomes are compared with those of
//! `run(.., Detail::Full)`. The recorded frames are then replayed through
//! `project`, `SharedCache::lookup`/`insert`, `NnIndex::nearest_into` and
//! `DnnClassifier::predict`, to split `process_frame`'s self time.

use std::time::{Duration, Instant};

use ann::IndexScratch;
use approxcache::{run, Detail, SystemVariant};
use dnnsim::DnnClassifier;
use edge::{BatchRequest, BatchResponse, EdgeCounters};
use features::{FeatureVector, RandomProjection};
use p2pnet::{P2pMessage, ProximityModel, WireEntry};
use reuse::{EntrySource, LookupResult, SharedCache};
use scene::ClassId;
use simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::edge_load::{self, Key, CLIENTS};
use crate::sim::{self, Engine, SimWorkload};
use crate::stats::timed;
use crate::{Metric, Outcome};

/// Every per-layer metric, in output order, with its unit.
const LAYERS: [(&str, &str); 34] = [
    ("scene.render_us", "us"),
    ("scene.world_ms", "ms"),
    ("imu.traces_ms", "ms"),
    ("imu.synth_ms", "ms"),
    ("approxcache.process_frame_us", "us"),
    ("approxcache.devices_ms", "ms"),
    ("approxcache.one_thread_us_per_frame", "us"),
    ("approxcache.frames_imu", "count"),
    ("approxcache.frames_local", "count"),
    ("approxcache.frames_peer", "count"),
    ("approxcache.frames_dnn", "count"),
    ("features.project_us", "us"),
    ("reuse.lookup_us", "us"),
    ("reuse.insert_us", "us"),
    ("reuse.lookups", "count"),
    ("reuse.hits", "count"),
    ("reuse.hit_ratio", "ratio"),
    ("reuse.evictions", "count"),
    ("ann.nearest_us", "us"),
    ("p2pnet.neighbors_us", "us"),
    ("p2pnet.messages_sent", "count"),
    ("p2pnet.bytes_sent", "bytes"),
    ("dnnsim.predict_us", "us"),
    ("edge.encode_us", "us"),
    ("edge.decode_us", "us"),
    ("edge.apply_us", "us"),
    ("edge.socket_us", "us"),
    ("edge.lookups", "count"),
    ("edge.hits", "count"),
    ("edge.inserts", "count"),
    ("edge.gossip", "count"),
    ("edge.overloads", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.outcomes_equal", "bool"),
];

/// Queries timed against the 4 096-entry index.
const ANN_QUERIES: usize = 2000;
/// Entries of the index `ann.nearest_us` is measured at.
const ANN_ENTRIES: usize = 4096;
/// Lookups timed against the full cache.
const REPLAY_LOOKUPS: usize = 2000;
/// Untraced runs whose mean the span coverage is taken against.
const COVERAGE_RUNS: usize = 2;
/// Batches the traced edge client sends.
const EDGE_BATCHES: usize = 3000;

/// Accumulated time and calls of one span name.
#[derive(Default, Clone, Copy)]
struct Span {
    secs: f64,
    calls: u64,
}

impl Span {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.secs += secs;
        self.calls += 1;
        out
    }

    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e6 / self.calls as f64
        }
    }
}

/// The per-layer values measured so far; unmeasured layers read 0.
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn new() -> Layers {
        Layers(Vec::new())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYERS.iter().any(|(n, _)| *n == name), "{name}");
        self.0.push((name, value));
    }

    fn into_metrics(self) -> Vec<Metric> {
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                Metric::new(name, value, unit)
            })
            .collect()
    }
}

/// Per-call times of the store, index and classifier, from replaying
/// recorded frames outside the pipeline.
fn replay(
    w: &SimWorkload,
    universe: &scene::ClassUniverse,
    frames: &[(FeatureVector, ClassId)],
    layers: &mut Layers,
) {
    let projection = RandomProjection::new(
        w.scenario.scene.descriptor_dim,
        w.config.key_dim,
        w.config.projection_seed,
    );
    let classifier = DnnClassifier::new(&w.config.model, universe);
    let mut rng = SimRng::seed(0).split("replay");
    let (mut project, mut predict) = (Span::default(), Span::default());
    let mut keys = Vec::with_capacity(frames.len());
    for (descriptor, truth) in frames {
        keys.push((project.time(|| projection.project(descriptor)), *truth));
        predict.time(|| classifier.predict(descriptor, &mut rng));
    }
    layers.set("features.project_us", project.mean_us());
    layers.set("dnnsim.predict_us", predict.mean_us());
    replay_keys(&w.config.cache, &keys, layers);
}

/// Times lookups and inserts on a cache of the given configuration
/// filled to capacity, and nearest-neighbour queries at 4 096 entries,
/// over `keys`.
fn replay_keys(
    config: &reuse::CacheConfig,
    keys: &[(FeatureVector, ClassId)],
    layers: &mut Layers,
) {
    let cache = SharedCache::new(config.clone());
    let at = |i: usize| SimTime::ZERO + SimDuration::from_millis(100) * i as u64;
    let mut filled = 0;
    for (key, label) in keys {
        if cache.len() >= config.capacity {
            break;
        }
        cache.insert(
            key.clone(),
            *label,
            0.9,
            EntrySource::LocalInference,
            at(filled),
        );
        filled += 1;
    }
    let (mut lookup, mut insert) = (Span::default(), Span::default());
    for (n, (key, label)) in keys
        .iter()
        .cycle()
        .skip(filled)
        .take(REPLAY_LOOKUPS)
        .enumerate()
    {
        let now = at(filled + n);
        if let LookupResult::Miss(_) = lookup.time(|| cache.lookup(key, now)) {
            insert
                .time(|| cache.insert(key.clone(), *label, 0.9, EntrySource::LocalInference, now));
        }
    }
    layers.set("reuse.lookup_us", lookup.mean_us());
    layers.set("reuse.insert_us", insert.mean_us());

    let Some((first, _)) = keys.first() else {
        return;
    };
    let mut index = ann::build(first.dim(), &config.index);
    for (id, (key, _)) in keys.iter().cycle().take(ANN_ENTRIES).enumerate() {
        index.insert(id as u64, key.clone());
    }
    let (mut scratch, mut out) = (IndexScratch::new(), Vec::new());
    let mut nearest = Span::default();
    for (key, _) in keys.iter().cycle().skip(ANN_ENTRIES / 2).take(ANN_QUERIES) {
        nearest.time(|| index.nearest_into(key, config.aknn.k, &mut scratch, &mut out));
    }
    layers.set("ann.nearest_us", nearest.mean_us());
}

fn cache_layers(cache: &reuse::CacheStats, layers: &mut Layers) {
    layers.set("reuse.lookups", cache.lookups as f64);
    layers.set("reuse.hits", cache.hits as f64);
    layers.set("reuse.hit_ratio", cache.hit_rate());
    layers.set("reuse.evictions", cache.evictions as f64);
}

fn path_layers(path_counts: &[u64; 4], layers: &mut Layers) {
    let names = [
        "approxcache.frames_imu",
        "approxcache.frames_local",
        "approxcache.frames_peer",
        "approxcache.frames_dnn",
    ];
    for (name, count) in names.into_iter().zip(path_counts) {
        layers.set(name, *count as f64);
    }
}

/// The IMU samples strictly after `from` and at or before `to`, as the
/// simulator slices them.
fn window_of(
    stream: &[imu::ImuSample],
    from: SimTime,
    to: SimTime,
    rate_hz: f64,
) -> &[imu::ImuSample] {
    let start = ((from.as_secs_f64() * rate_hz).floor() as usize + 1).min(stream.len());
    let end = ((to.as_secs_f64() * rate_hz).floor() as usize + 1).min(stream.len());
    stream.get(start.min(end)..end).unwrap_or(&[])
}

/// The traced pass of a simulator workload.
pub fn sim(name: &str, seed: u64) -> Outcome {
    let mut failures = Vec::new();
    let mut layers = Layers::new();
    // The first world of a round: the traced pass splits one run.
    let seed = sim::world_seeds(name, seed)[0];
    let w = sim::workload(name, seed);
    let setup = sim::engine_setup(&w, seed);
    layers.set("scene.world_ms", setup.world_s * 1e3);
    layers.set("imu.traces_ms", setup.traces_s * 1e3);
    layers.set("imu.synth_ms", setup.synth_s * 1e3);
    layers.set("approxcache.devices_ms", setup.devices_s * 1e3);
    let engine_setup_s = setup.world_s + setup.traces_s + setup.synth_s + setup.devices_s;
    let attempted = match w.engine {
        Engine::Run => traced_run(&w, seed, setup, engine_setup_s, &mut layers, &mut failures),
        Engine::Fleet { .. } => {
            traced_fleet(&w, seed, setup, engine_setup_s, &mut layers, &mut failures)
        }
    };
    Outcome {
        attempted,
        failed: u64::from(!failures.is_empty()),
        check_failures: failures,
        metrics: layers.into_metrics(),
    }
}

/// Drives the frame loop of `approxcache::run` with a span around each
/// layer call. The scenarios it serves inject no faults, churn or edge
/// tier and use oracle proximity, so the loop needs none of those steps.
fn traced_run(
    w: &SimWorkload,
    seed: u64,
    setup: sim::EngineSetup,
    engine_setup_s: f64,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> u64 {
    let scenario = &w.scenario;
    let sim::EngineSetup {
        universe,
        world,
        renderer,
        traces,
        imu_streams,
        mut devices,
        ..
    } = setup;
    let root = SimRng::seed(seed);
    let proximity = w
        .config
        .peer
        .as_ref()
        .map(|p| ProximityModel::new(p.link.range_m.min(1e6)));
    let fanout = w.config.peer.as_ref().map_or(0, |p| p.advertise_fanout);
    let frame_interval = SimDuration::from_secs_f64(1.0 / scenario.fps);
    let total_frames = sim::frames_per_device(scenario);
    let mut ad_queue: EventQueue<(usize, WireEntry)> = EventQueue::new();
    let mut frame_rng = root.split("frames");
    let (mut render, mut neighbors, mut process) =
        (Span::default(), Span::default(), Span::default());
    let mut recorded = Vec::with_capacity(total_frames * scenario.devices);

    let mut prev = SimTime::ZERO;
    for frame_index in 1..=total_frames {
        let now = SimTime::ZERO + frame_interval * frame_index as u64;
        while ad_queue.peek_time().is_some_and(|at| at <= now) {
            let Some((at, (target, entry))) = ad_queue.pop() else {
                break;
            };
            if let Some(device) = devices.get_mut(target) {
                device.receive_advertisement(&entry, at);
            }
        }
        let positions: Vec<(f64, f64)> = traces
            .iter()
            .map(|t| {
                let pose = t.pose_at(now);
                (pose.x, pose.y)
            })
            .collect();
        for d in 0..devices.len() {
            let pose = traces[d].pose_at(now);
            let frame = render.time(|| renderer.render(&world, &pose, now, &mut frame_rng));
            let window = window_of(&imu_streams[d], prev, now, scenario.imu_rate_hz);
            let neighbor_indices = match &proximity {
                Some(model) => neighbors.time(|| model.neighbors(&positions, d)),
                None => Vec::new(),
            };
            let neighbor_caches: Vec<_> = neighbor_indices
                .iter()
                .map(|&n| devices[n].cache().clone())
                .collect();
            let cache_refs: Vec<_> = neighbor_caches.iter().collect();
            let device = &mut devices[d];
            process.time(|| device.process_frame(&frame, window, &cache_refs, now));
            device.take_peer_outcomes();
            if let Some(entry) = device.take_advertisement() {
                let message = P2pMessage::Advertise {
                    entries: vec![entry.clone()],
                };
                for &target in neighbor_indices.iter().take(fanout) {
                    if let Some(delay) = device.charge_advertisement(&message) {
                        ad_queue.schedule(now + delay, (target, entry.clone()));
                    }
                }
            }
            recorded.push((frame.descriptor, frame.truth));
        }
        prev = now;
    }

    // The same run through the public entry point: outcomes must agree.
    let reference = run(scenario, &w.config, SystemVariant::Full, seed, Detail::Full)
        .unwrap_or_else(|e| unreachable!("benchmark scenarios are hand-written: {e}"));
    let equal = reference.per_device.len() == devices.len()
        && devices
            .iter()
            .zip(&reference.per_device)
            .all(|(d, r)| d.outcomes() == r.as_slice());
    if !equal {
        failures.push(format!(
            "{}: traced outcomes differ from run(.., Detail::Full)",
            scenario.name
        ));
    }
    layers.set("trace.outcomes_equal", f64::from(u8::from(equal)));

    // Span coverage of the untraced per-frame time.
    let frames = (total_frames * devices.len()) as f64;
    let untraced_s = (0..COVERAGE_RUNS)
        .map(|_| timed(|| sim::play(w, scenario, &w.config, SystemVariant::Full, seed, 1)).1)
        .sum::<f64>()
        / COVERAGE_RUNS as f64;
    let untraced_us_per_frame = (untraced_s - engine_setup_s) * 1e6 / frames;
    let spans_us_per_frame = (render.secs + neighbors.secs + process.secs) * 1e6 / frames;
    layers.set(
        "trace.span_coverage",
        spans_us_per_frame / untraced_us_per_frame,
    );

    layers.set("scene.render_us", render.mean_us());
    layers.set("p2pnet.neighbors_us", neighbors.mean_us());
    layers.set("approxcache.process_frame_us", process.mean_us());
    path_layers(&reference.report.path_counts, layers);
    cache_layers(&reference.report.cache, layers);
    layers.set(
        "p2pnet.messages_sent",
        reference.report.network.messages_sent as f64,
    );
    layers.set(
        "p2pnet.bytes_sent",
        reference.report.network.bytes_sent as f64,
    );
    replay(w, &universe, &recorded, layers);
    3
}

/// The fleet engine runs its frame loop on its own threads, so the traced
/// pass times set-up call by call, the same run on one thread, and a
/// sample of renders and neighbour queries.
fn traced_fleet(
    w: &SimWorkload,
    seed: u64,
    setup: sim::EngineSetup,
    engine_setup_s: f64,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> u64 {
    let scenario = &w.scenario;
    let (one, one_s) = timed(|| sim::play(w, scenario, &w.config, SystemVariant::Full, seed, 1));
    let frames = one.frames as f64;
    layers.set(
        "approxcache.one_thread_us_per_frame",
        (one_s - engine_setup_s) * 1e6 / frames,
    );
    let two = sim::play(
        w,
        scenario,
        &w.config,
        SystemVariant::Full,
        seed,
        sim::FLEET_THREADS,
    );
    let equal = one.to_json() == two.to_json();
    if !equal {
        failures.push(format!(
            "{}: the fleet report differs between 1 and 2 threads",
            scenario.name
        ));
    }
    layers.set("trace.outcomes_equal", f64::from(u8::from(equal)));
    path_layers(&two.path_counts, layers);
    cache_layers(&two.cache, layers);
    layers.set("p2pnet.messages_sent", two.network.messages_sent as f64);
    layers.set("p2pnet.bytes_sent", two.network.bytes_sent as f64);

    // A sample: the first frames of every device.
    let proximity = w
        .config
        .peer
        .as_ref()
        .map(|p| ProximityModel::new(p.link.range_m.min(1e6)));
    let mut frame_rng = SimRng::seed(seed).split("frames");
    let (mut render, mut neighbors) = (Span::default(), Span::default());
    let mut recorded = Vec::new();
    let interval = SimDuration::from_secs_f64(1.0 / scenario.fps);
    for f in 1..=3u64 {
        let now = SimTime::ZERO + interval * f;
        let positions: Vec<(f64, f64)> = setup
            .traces
            .iter()
            .map(|t| {
                let pose = t.pose_at(now);
                (pose.x, pose.y)
            })
            .collect();
        for (d, trace) in setup.traces.iter().enumerate() {
            let pose = trace.pose_at(now);
            let frame = render.time(|| {
                setup
                    .renderer
                    .render(&setup.world, &pose, now, &mut frame_rng)
            });
            if let Some(model) = &proximity {
                neighbors.time(|| model.neighbors(&positions, d));
            }
            recorded.push((frame.descriptor, frame.truth));
        }
    }
    layers.set("scene.render_us", render.mean_us());
    layers.set("p2pnet.neighbors_us", neighbors.mean_us());
    replay(w, &setup.universe, &recorded, layers);
    2
}

/// The traced pass of edge-loopback: the codec, the cache's batch apply
/// and the round trip, each timed on its own, from one client.
pub fn edge(seed: u64) -> Outcome {
    let mut failures = Vec::new();
    let mut layers = Layers::new();
    let inputs = edge_load::inputs(seed);
    layers.set(
        "scene.render_us",
        inputs.render_s * 1e6 / inputs.renders as f64,
    );
    layers.set(
        "features.project_us",
        inputs.project_s * 1e6 / inputs.renders as f64,
    );
    let service = edge_load::start(inputs.threshold);
    let sent = edge_load::prefill(&service, &inputs.prefill, &mut failures);
    // An in-process twin of the server's cache, fed the same batches.
    let twin = edge_load::new_cache(inputs.threshold);
    for chunk in inputs.prefill[..sent].chunks(64) {
        let request = BatchRequest {
            device: u64::MAX,
            frames: chunk.iter().map(edge_load::insert).collect(),
        };
        if twin.apply_batch(&request, SimTime::ZERO).is_err() {
            failures.push("the in-process cache refused a pre-fill batch".into());
        }
    }

    let (mut encode, mut decode, mut apply, mut trip) = (
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
    );
    let before = service.cache.counters();
    let send = |request: &BatchRequest| -> Result<BatchResponse, edge::ClientError> {
        let wire = encode.time(|| request.encode());
        let decoded = decode.time(|| BatchRequest::decode(&wire));
        if let Ok(decoded) = &decoded {
            if let Ok(response) = apply.time(|| twin.apply_batch(decoded, SimTime::ZERO)) {
                let bytes = encode.time(|| response.encode());
                let _ = decode.time(|| BatchResponse::decode(&bytes));
            }
        }
        trip.time(|| service.client.batch(request))
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    let tally = edge_load::client_loop(
        send,
        &inputs.streams[0],
        &inputs.streams[1 % CLIENTS],
        seed,
        0,
        deadline,
        EDGE_BATCHES,
    );
    let server = edge_load::delta(&service.cache.counters(), &before);
    failures.extend(tally.failures.iter().cloned());
    // The edge analogue of outcome equality: the server's books against
    // the client's own tallies.
    let equal = server == tally.counters;
    if !equal {
        failures.push(format!(
            "server counters {server:?} differ from the client's {:?}",
            tally.counters
        ));
    }
    layers.set("trace.outcomes_equal", f64::from(u8::from(equal)));
    service.server.stop();

    // Encode and decode each ran twice per batch: request and response.
    let per_batch = |s: &Span| s.secs * 1e6 / trip.calls.max(1) as f64;
    layers.set("edge.encode_us", per_batch(&encode));
    layers.set("edge.decode_us", per_batch(&decode));
    layers.set("edge.apply_us", apply.mean_us());
    layers.set(
        "edge.socket_us",
        trip.mean_us() - per_batch(&encode) - per_batch(&decode) - apply.mean_us(),
    );
    edge_counter_layers(&server, &mut layers);

    let keys: Vec<(FeatureVector, ClassId)> = inputs
        .prefill
        .iter()
        .chain(&inputs.streams[0])
        .map(|Key { key, label }| (key.clone(), ClassId(*label)))
        .collect();
    let mut config = reuse::CacheConfig::new(approxcache::EdgeConfig::default().capacity);
    config.aknn.distance_threshold = inputs.threshold;
    replay_keys(&config, &keys, &mut layers);

    Outcome {
        attempted: tally.counters.batches,
        failed: u64::from(!failures.is_empty()),
        check_failures: failures,
        metrics: layers.into_metrics(),
    }
}

fn edge_counter_layers(c: &EdgeCounters, layers: &mut Layers) {
    layers.set("edge.lookups", c.lookups as f64);
    layers.set("edge.hits", c.hits as f64);
    layers.set("edge.inserts", c.inserts as f64);
    layers.set("edge.gossip", c.gossip_entries as f64);
    layers.set("edge.overloads", c.overloads as f64);
    layers.set("reuse.lookups", c.lookups as f64);
    layers.set("reuse.hits", c.hits as f64);
    layers.set(
        "reuse.hit_ratio",
        if c.lookups == 0 {
            0.0
        } else {
            c.hits as f64 / c.lookups as f64
        },
    );
}
