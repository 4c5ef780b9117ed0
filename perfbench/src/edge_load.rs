//! edge-loopback: an in-process edge server on a loopback port, driven by
//! closed-loop clients that replay device-shaped batches.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use approxcache::{
    config::device_traces, run, Detail, EdgeConfig, PipelineConfig, Scenario, SystemVariant,
};
use edge::{
    BatchRequest, BatchResponse, ClientError, EdgeCache, EdgeCacheConfig, EdgeClient, EdgeCounters,
    EdgeServer, Frame, Reply, ServerConfig,
};
use features::{FeatureVector, RandomProjection};
use imu::MotionProfile;
use scene::{ClassUniverse, FrameRenderer, World};
use simcore::{SimDuration, SimRng, SimTime};

use crate::sim::{correct_frames, report_checks};
use crate::stats::{median, timed};
use crate::{Metric, Outcome};

/// Closed-loop clients, one connection each at a time: the two cores of
/// the reference machine.
pub const CLIENTS: usize = 2;
/// Entries the cache holds before the load starts: its full capacity.
pub const PREFILL: usize = 4096;
/// Sites behind the one edge cache, each a world of its own. Keys from
/// several worlds make a run's cost an average over layouts, not the
/// cost of one layout that the seed happened to draw.
const SITES: u64 = 4;
/// Walkers per site: half feed the pre-fill, half the load.
const WALKERS: usize = 4;
/// Seconds each walker walks, at the scenario's 10 frames per second.
const WALK_SECS: u64 = 60;
/// Frames of the verification prefix against an empty cache.
const VERIFY_FRAMES: usize = 200;
/// Largest batch a client sends.
const MAX_BATCH: usize = 4;
/// One gossip ad per this many frames.
const GOSSIP_EVERY: usize = 8;
/// Confidence of inserts and ads: above both admission floors.
const CONFIDENCE: f64 = 0.9;
const SETUP_REPS: usize = 3;

/// One projected key with its ground-truth label.
#[derive(Clone)]
pub struct Key {
    pub key: FeatureVector,
    pub label: u32,
}

/// The inputs of the edge workload, all derived from the seed.
pub struct EdgeInputs {
    pub threshold: f64,
    /// Keys of the pre-fill walks, frame-interleaved.
    pub prefill: Vec<Key>,
    /// Keys of the other walks, frame-interleaved, one stream per client.
    pub streams: Vec<Vec<Key>>,
    /// Seconds spent rendering and projecting, and the frames rendered.
    pub render_s: f64,
    pub project_s: f64,
    pub renders: usize,
}

/// The scenario every site's world and walks come from.
fn key_scenario() -> Scenario {
    Scenario::multi_device(MotionProfile::Walking { speed_mps: 1.4 }, WALKERS)
        .with_duration(SimDuration::from_secs(WALK_SECS))
        .with_name("edge-keys")
}

/// Every walk of `keys`, frame by frame: walk 0's first frame, walk 1's
/// first frame, ...
fn interleave(walks: &[&Vec<Key>]) -> Vec<Key> {
    let frames = walks.iter().map(|w| w.len()).max().unwrap_or(0);
    (0..frames)
        .flat_map(|f| walks.iter().filter_map(move |w| w.get(f).cloned()))
        .collect()
}

/// Renders every walker's frames at every site and projects each to a
/// cache key, as a device would before asking the edge.
pub fn inputs(seed: u64) -> EdgeInputs {
    let scenario = key_scenario();
    let pipeline = PipelineConfig::calibrated(&scenario, seed);
    let renderer = FrameRenderer::new(&scenario.scene);
    let projection = RandomProjection::new(
        scenario.scene.descriptor_dim,
        pipeline.key_dim,
        pipeline.projection_seed,
    );
    let frames = crate::sim::frames_per_device(&scenario);
    let interval = SimDuration::from_secs_f64(1.0 / scenario.fps);
    let (mut render_s, mut project_s) = (0.0, 0.0);
    let mut walks: Vec<Vec<Key>> = Vec::new();
    for site in 0..SITES {
        let root = SimRng::seed(seed).split_index("site", site);
        let mut world_rng = root.split("world");
        let universe = ClassUniverse::generate(&scenario.scene, &mut world_rng);
        let world = World::generate(&universe, &scenario.scene, &mut world_rng);
        let traces = device_traces(
            scenario.profile,
            scenario.devices,
            scenario.duration,
            scenario.imu_rate_hz,
            scenario.spawn_spacing,
            &root,
        );
        let mut frame_rng = root.split("frames");
        for trace in &traces {
            let mut keys = Vec::with_capacity(frames);
            for f in 1..=frames {
                let now = SimTime::ZERO + interval * f as u64;
                let pose = trace.pose_at(now);
                let (frame, r) = timed(|| renderer.render(&world, &pose, now, &mut frame_rng));
                let (key, p) = timed(|| projection.project(&frame.descriptor));
                render_s += r;
                project_s += p;
                keys.push(Key {
                    key,
                    label: frame.truth.0,
                });
            }
            walks.push(keys);
        }
    }
    let renders = walks.iter().map(Vec::len).sum();
    // Even walkers of each site pre-fill; odd ones load, alternating
    // between the clients.
    let prefill = interleave(&walks.iter().step_by(2).collect::<Vec<_>>());
    let load: Vec<&Vec<Key>> = walks.iter().skip(1).step_by(2).collect();
    let streams = (0..CLIENTS)
        .map(|c| {
            interleave(
                &load
                    .iter()
                    .skip(c)
                    .step_by(CLIENTS)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    EdgeInputs {
        threshold: pipeline.cache.aknn.distance_threshold,
        prefill,
        streams,
        render_s,
        project_s,
        renders,
    }
}

pub fn new_cache(threshold: f64) -> EdgeCache {
    let defaults = EdgeConfig::default();
    EdgeCache::new(EdgeCacheConfig {
        capacity: defaults.capacity,
        distance_threshold: threshold,
        queue_limit: defaults.queue_limit,
    })
    .unwrap_or_else(|e| unreachable!("the default edge config is valid: {e}"))
}

/// A started server with its cache handle and a client.
pub struct Service {
    pub server: EdgeServer,
    pub cache: EdgeCache,
    pub client: EdgeClient,
}

pub fn start(threshold: f64) -> Service {
    let cache = new_cache(threshold);
    let server = EdgeServer::start("127.0.0.1:0", cache.clone(), ServerConfig::default())
        .unwrap_or_else(|e| panic!("cannot bind a loopback port: {e}"));
    let client = EdgeClient::new(server.addr().to_string()).with_timeout(Duration::from_secs(10));
    Service {
        server,
        cache,
        client,
    }
}

/// The insert a device sends after inferring `key`'s label.
pub fn insert(key: &Key) -> Frame {
    Frame::Insert {
        key: key.key.clone(),
        label: key.label,
        confidence: CONFIDENCE,
    }
}

/// Inserts pre-fill keys over the wire, 64 to a batch, until the cache
/// holds `PREFILL` entries. Returns the keys sent.
pub fn prefill(service: &Service, keys: &[Key], failures: &mut Vec<String>) -> usize {
    let mut sent = 0;
    while service.cache.len() < PREFILL && sent < keys.len() {
        let end = (sent + 64).min(keys.len());
        let request = BatchRequest {
            device: u64::MAX,
            frames: keys[sent..end].iter().map(insert).collect(),
        };
        if let Err(e) = service.client.batch(&request) {
            failures.push(format!("pre-fill batch failed: {e}"));
            return sent;
        }
        sent = end;
    }
    if service.cache.len() != PREFILL {
        failures.push(format!(
            "pre-fill reached {} entries, expected {PREFILL}",
            service.cache.len()
        ));
    }
    sent
}

fn distance(a: &FeatureVector, b: &FeatureVector) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (f64::from(*x) - f64::from(*y)).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// The verification prefix: each key is looked up in a cache that holds
/// exactly the keys inserted before it, then inserted. A brute-force scan
/// over those keys gives the true nearest distance: a hit must report it,
/// and a key whose nearest lies beyond the threshold must miss.
pub fn verify_prefix(keys: &[Key], threshold: f64, failures: &mut Vec<String>) -> u64 {
    let service = start(threshold);
    let mut stored: Vec<&Key> = Vec::new();
    let mut ops = 0;
    for key in keys.iter().step_by(3).take(VERIFY_FRAMES) {
        let nearest = stored
            .iter()
            .map(|s| distance(&s.key, &key.key))
            .fold(f64::INFINITY, f64::min);
        let request = BatchRequest {
            device: 0,
            frames: vec![
                Frame::Lookup {
                    key: key.key.clone(),
                },
                insert(key),
            ],
        };
        ops += 1;
        let replies = match service.client.batch(&request) {
            Ok(response) => response.replies,
            Err(e) => {
                failures.push(format!("verification batch failed: {e}"));
                break;
            }
        };
        match replies.first() {
            Some(Reply::Hit(hit)) if (hit.distance - nearest).abs() > 1e-4 * (1.0 + nearest) => {
                failures.push(format!(
                    "verification: hit reports distance {} but the nearest stored key is at {nearest}",
                    hit.distance
                ))
            }
            Some(Reply::Hit(_)) if nearest > threshold => failures.push(format!(
                "verification: hit although the nearest stored key is at {nearest} > {threshold}"
            )),
            Some(Reply::Hit(_) | Reply::Miss) => {}
            other => failures.push(format!("verification: lookup answered {other:?}")),
        }
        if replies.get(1) != Some(&Reply::Accepted) || replies.len() != 2 {
            failures.push(format!("verification: insert answered {replies:?}"));
        }
        // Near-duplicates of a same-label entry refresh it instead of
        // adding a second one, so only keys that grew the cache join the
        // brute-force set.
        if service.cache.len() > stored.len() {
            stored.push(key);
        }
        if service.cache.len() != stored.len() {
            failures.push("verification: cache size diverged from the keys stored".into());
            break;
        }
    }
    service.server.stop();
    ops
}

/// What one client did.
#[derive(Default)]
pub struct Tally {
    pub counters: EdgeCounters,
    pub frames: u64,
    /// Round trip of each batch, client-side.
    pub latencies_us: Vec<f64>,
    /// Round trip of each batch divided by its frames.
    pub per_frame_us: Vec<f64>,
    pub failures: Vec<String>,
}

/// One closed-loop client: sends a batch through `send`, waits for the
/// reply, checks it, and builds the next batch from it, until `deadline`
/// or `max_batches`.
pub fn client_loop(
    mut send: impl FnMut(&BatchRequest) -> Result<BatchResponse, ClientError>,
    keys: &[Key],
    others: &[Key],
    seed: u64,
    id: usize,
    deadline: Instant,
    max_batches: usize,
) -> Tally {
    let mut rng = SimRng::seed(seed).split_index("edge-client", id as u64);
    let mut tally = Tally::default();
    let mut next = 0usize;
    let mut pending: Vec<Frame> = Vec::new();
    let mut since_gossip = 0usize;
    while Instant::now() < deadline && tally.latencies_us.len() < max_batches {
        let size = 1 + ((rng.uniform(0.0, MAX_BATCH as f64) as usize).min(MAX_BATCH - 1));
        let mut frames = Vec::with_capacity(size);
        let mut looked_up = Vec::new();
        while frames.len() < size {
            if let Some(frame) = pending.pop() {
                frames.push(frame);
            } else if since_gossip >= GOSSIP_EVERY {
                since_gossip = 0;
                let ad = &others[next % others.len()];
                frames.push(Frame::GossipAd {
                    key: ad.key.clone(),
                    label: ad.label,
                    confidence: CONFIDENCE,
                });
            } else {
                let key = &keys[next % keys.len()];
                next += 1;
                since_gossip += 1;
                looked_up.push(key);
                frames.push(Frame::Lookup {
                    key: key.key.clone(),
                });
            }
        }
        let request = BatchRequest {
            device: id as u64,
            frames,
        };
        let (reply, secs) = timed(|| send(&request));
        let replies = match reply {
            Ok(response) => response.replies,
            Err(e) => {
                tally
                    .failures
                    .push(format!("client {id}: batch failed: {e}"));
                return tally;
            }
        };
        tally.latencies_us.push(secs * 1e6);
        tally
            .per_frame_us
            .push(secs * 1e6 / request.frames.len() as f64);
        tally.counters.record_batch();
        tally.frames += request.frames.len() as u64;
        if replies.len() != request.frames.len() {
            tally.failures.push(format!(
                "client {id}: {} replies to {} frames",
                replies.len(),
                request.frames.len()
            ));
            return tally;
        }
        let mut lookups = looked_up.into_iter();
        for (frame, reply) in request.frames.iter().zip(&replies) {
            match (frame, reply) {
                (Frame::Lookup { .. }, Reply::Hit(_)) => {
                    tally.counters.record_lookup(true);
                    lookups.next();
                }
                (Frame::Lookup { .. }, Reply::Miss) => {
                    tally.counters.record_lookup(false);
                    // A miss means the device infers; its result goes
                    // to the edge in the next batch.
                    if let Some(key) = lookups.next() {
                        pending.push(insert(key));
                    }
                }
                (Frame::Insert { .. }, Reply::Accepted) => tally.counters.record_insert(),
                (Frame::GossipAd { .. }, Reply::Accepted) => tally.counters.record_gossip(),
                (frame, reply) => {
                    tally
                        .failures
                        .push(format!("client {id}: {frame:?} answered {reply:?}"));
                    return tally;
                }
            }
        }
    }
    tally
}

/// Runs the clients against `service` until `seconds` have passed.
pub fn load(service: &Service, inputs: &EdgeInputs, seed: u64, seconds: f64) -> (Vec<Tally>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let tallies = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for id in 0..CLIENTS {
            let client = service.client.clone();
            let keys = &inputs.streams[id];
            let others = &inputs.streams[(id + 1) % CLIENTS];
            let tallies = &tallies;
            scope.spawn(move || {
                let send = |request: &BatchRequest| client.batch(request);
                let tally = client_loop(send, keys, others, seed, id, deadline, usize::MAX);
                tallies
                    .lock()
                    .expect("no client panics while holding the lock")
                    .push(tally);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (tallies.into_inner().expect("clients are joined"), elapsed)
}

/// Server counters accrued between `before` and `after`.
pub fn delta(after: &EdgeCounters, before: &EdgeCounters) -> EdgeCounters {
    EdgeCounters {
        batches: after.batches - before.batches,
        lookups: after.lookups - before.lookups,
        hits: after.hits - before.hits,
        inserts: after.inserts - before.inserts,
        gossip_entries: after.gossip_entries - before.gossip_entries,
        overloads: after.overloads - before.overloads,
        ..EdgeCounters::default()
    }
}

/// Fetches `GET /snapshot` and restores it into a fresh cache, which must
/// end with as many entries as the server holds.
pub fn snapshot_check(service: &Service, threshold: f64, failures: &mut Vec<String>) {
    match service.client.snapshot() {
        Ok(blob) => {
            let fresh = new_cache(threshold);
            match fresh.restore_blob(&blob, SimTime::ZERO) {
                Ok(_) if fresh.len() == service.cache.len() => {}
                Ok(n) => failures.push(format!(
                    "snapshot restored {n} entries into {}, the server holds {}",
                    fresh.len(),
                    service.cache.len()
                )),
                Err(e) => failures.push(format!("snapshot does not restore: {e}")),
            }
        }
        Err(e) => failures.push(format!("GET /snapshot failed: {e}")),
    }
}

/// The in-simulator twin of the service: a peerless slow-pan fleet whose
/// edge tier is the same `EdgeCache`. Its report gives the workload's
/// simulated latency and correct frames.
pub fn sim_twin(seed: u64, failures: &mut Vec<String>) -> approxcache::RunReport {
    let scenario = Scenario::multi_device(MotionProfile::SlowPan { deg_per_sec: 15.0 }, 64)
        .with_duration(SimDuration::from_secs(10))
        .with_name("edge-twin");
    let config = PipelineConfig::calibrated(&scenario, seed).with_edge(Some(EdgeConfig::default()));
    let report = run(
        &scenario,
        &config,
        SystemVariant::NoPeer,
        seed,
        Detail::Summary,
    )
    .unwrap_or_else(|e| unreachable!("the twin scenario is hand-written: {e}"))
    .report;
    report_checks(&scenario, &report, failures);
    if !report.edge.reconciles() || report.edge.lookups == 0 {
        failures.push(format!(
            "edge twin: counters do not reconcile: {}",
            report.edge
        ));
    }
    report
}

/// The untraced measurement of edge-loopback.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut failures = Vec::new();
    let mut attempted = 0;

    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let ((service, inputs), secs) = timed(|| {
            let inputs = inputs(seed);
            let service = start(inputs.threshold);
            attempted += prefill(&service, &inputs.prefill, &mut failures).div_ceil(64) as u64;
            (service, inputs)
        });
        setup_samples.push(secs);
        if rep + 1 < SETUP_REPS {
            service.server.stop();
        } else {
            ready = Some((service, inputs));
        }
    }
    let Some((service, inputs)) = ready else {
        unreachable!("SETUP_REPS is positive")
    };

    attempted += verify_prefix(&inputs.prefill, inputs.threshold, &mut failures);
    let twin = sim_twin(seed, &mut failures);
    attempted += 1;
    let failed_before_load = u64::from(!failures.is_empty());

    let before = service.cache.counters();
    let (tallies, elapsed) = load(&service, &inputs, seed, seconds);
    let server = delta(&service.cache.counters(), &before);
    let mut client = EdgeCounters::default();
    let mut frames = 0;
    let (mut latencies, mut per_frame) = (Vec::new(), Vec::new());
    let mut failed = failed_before_load;
    for tally in &tallies {
        client.merge(&tally.counters);
        frames += tally.frames;
        latencies.extend_from_slice(&tally.latencies_us);
        per_frame.extend_from_slice(&tally.per_frame_us);
        failed += tally.failures.len() as u64;
        failures.extend(tally.failures.iter().cloned());
    }
    attempted += client.batches + failed - failed_before_load;
    if server != client {
        failed += 1;
        failures.push(format!(
            "server counters {server:?} differ from the clients' tallies {client:?}"
        ));
    }
    snapshot_check(&service, inputs.threshold, &mut failures);
    service.server.stop();
    eprintln!(
        "edge-loopback: {} batches, {frames} frames in {elapsed:.2} s ({:.0} req/s); batch p50 {:.1} us, p99 {:.1} us",
        client.batches,
        client.batches as f64 / elapsed,
        median(&latencies),
        crate::stats::quantile(&latencies, 0.99)
    );

    Outcome {
        attempted,
        failed,
        check_failures: failures,
        metrics: vec![
            Metric::new("us_per_frame", median(&per_frame), "us"),
            Metric::new("setup_s", median(&setup_samples), "s"),
            Metric::new("sim_latency_ms", twin.latency_ms.mean, "ms"),
            Metric::new("sim_correct_frames", correct_frames(&twin), "count"),
        ],
    }
}
