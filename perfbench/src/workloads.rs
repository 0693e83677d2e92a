//! The three workloads: their parameters, their set-up, one measured
//! iteration, and the single-run replay the traced run uses for per-run
//! timings.
//!
//! Every iteration of a run starts from the same set-up output, so every
//! iteration must produce the same digest.

use std::fmt::Write as _;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_core::async_engine::{disseminate_async_dense, AsyncConfig, DenseAsyncScratch};
use hybridcast_core::engine::{disseminate_dense, disseminate_dense_stats, DenseScratch};
use hybridcast_core::experiment::{
    run_seed, run_seeded_async, run_seeded_disseminations, run_seeded_push_pulls,
};
use hybridcast_core::netmodel::{DelayModel, LossModel, NetModel, PartitionEvent};
use hybridcast_core::overlay::DenseOverlay;
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
use hybridcast_graph::{cast, NodeId};
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver, PAPER_CHURN_RATE};
use hybridcast_sim::{DenseSimNetwork, FlatLinks, RngMode, SimConfig};

use crate::checks::{digest_async, digest_push_pull, digest_sync, Checks};
use crate::reference::{self, Reference};
use crate::stats::{ratio, Digest};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig06 shape: shared-stream warm-up, CSR export, sync fanout sweep.
    StaticShared,
    /// fig11 shape: per-node streams at gossip period 1 under churn, then
    /// a sync sweep over the churned overlay.
    ChurnPerNode,
    /// Synthetic ring + random links; sync, async and push–pull engines
    /// under adversarial network models. No membership runs.
    DisseminationAdversarial,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::StaticShared,
        Workload::ChurnPerNode,
        Workload::DisseminationAdversarial,
    ];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticShared => "static_shared",
            Workload::ChurnPerNode => "churn_pernode",
            Workload::DisseminationAdversarial => "dissemination_adversarial",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures, `Tiny` exercises
/// the same code in well under a second for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measured size.
    Full,
    /// Test size.
    Tiny,
}

impl Scale {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::Full, Scale::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The workload parameters of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Live population (constant: churn replaces as many as it removes).
    pub nodes: usize,
    /// Membership cycles per iteration (0: no membership layer).
    pub cycles: usize,
    /// Fraction of the population replaced per cycle (0: no churn).
    pub churn_rate: f64,
    /// Membership kernel.
    pub rng_mode: RngMode,
    /// Random links per node of the synthetic overlay (0: grown overlay).
    pub r_degree: usize,
    /// Sync runs per (protocol, fanout) pair.
    pub sync_runs: usize,
    /// Async RingCast runs (0: engine not exercised).
    pub async_runs: usize,
    /// Push–pull runs (0: engine not exercised).
    pub pull_runs: usize,
    /// Floor on every RingCast configuration's mean hit ratio (churn only).
    pub ringcast_hit_floor: Option<f64>,
    /// Worker threads for the seeded drivers and the per-node kernel.
    pub threads: usize,
}

/// Fanouts of the sync sweep, each run with RandCast and with RingCast.
const SYNC_FANOUTS: [usize; 3] = [2, 3, 4];
/// Fanout of the async RingCast runs.
const ASYNC_FANOUT: usize = 3;
/// Fanout of the push phase of the push–pull runs.
const PULL_PUSH_FANOUT: usize = 2;

impl Params {
    /// The parameters of `workload` at `scale` with `threads` workers.
    pub fn new(workload: Workload, scale: Scale, threads: usize) -> Params {
        let tiny = scale == Scale::Tiny;
        let base = Params {
            nodes: 0,
            cycles: 0,
            churn_rate: 0.0,
            rng_mode: RngMode::Shared,
            r_degree: 0,
            sync_runs: 0,
            async_runs: 0,
            pull_runs: 0,
            ringcast_hit_floor: None,
            threads,
        };
        match workload {
            Workload::StaticShared => Params {
                nodes: if tiny { 300 } else { 2_000 },
                cycles: if tiny { 40 } else { 100 },
                sync_runs: if tiny { 10 } else { 100 },
                ..base
            },
            Workload::ChurnPerNode => Params {
                nodes: if tiny { 500 } else { 2_000 },
                cycles: if tiny { 60 } else { 150 },
                churn_rate: PAPER_CHURN_RATE,
                rng_mode: RngMode::PerNode,
                sync_runs: if tiny { 10 } else { 100 },
                ringcast_hit_floor: Some(0.95),
                ..base
            },
            Workload::DisseminationAdversarial => Params {
                nodes: if tiny { 2_000 } else { 100_000 },
                r_degree: 8,
                sync_runs: if tiny { 4 } else { 8 },
                async_runs: if tiny { 4 } else { 8 },
                pull_runs: if tiny { 4 } else { 8 },
                ..base
            },
        }
    }

    /// The parameters as a JSON object, for provenance.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"nodes\": {}, \"cycles\": {}, \"churn_rate\": {}, \"gossip_period\": 1, \
             \"r_degree\": {}, \"fanouts\": {:?}, \"sync_runs\": {}, \"async_runs\": {}, \
             \"pull_runs\": {}}}",
            self.nodes,
            self.cycles,
            self.churn_rate,
            self.r_degree,
            SYNC_FANOUTS,
            self.sync_runs,
            self.async_runs,
            self.pull_runs,
        )
        .expect("writing to a String cannot fail");
        out
    }
}

/// The sync sweep's configurations, in sweep order.
fn sync_selectors() -> Vec<DenseSelector> {
    SYNC_FANOUTS
        .iter()
        .flat_map(|&f| [DenseSelector::randcast(f), DenseSelector::ringcast(f)])
        .collect()
}

/// Salts that give each engine's runs their own master seeds.
const SYNC_SALT: u64 = 0x5359_4E43;
const ASYNC_SALT: u64 = 0x4153_594E;
const PULL_SALT: u64 = 0x5055_4C4C;
const TOPOLOGY_SALT: u64 = 0x544F_504F;

/// The event-driven model of the adversarial workload: log-normal delays,
/// bursty Gilbert–Elliott loss and one bisection while the message is
/// still spreading.
pub fn async_config(seed: u64) -> AsyncConfig {
    AsyncConfig {
        run_membership_gossip: false,
        max_time: 1_000_000.0,
        net: NetModel {
            delay: DelayModel::LogNormal {
                mu: 0.0,
                sigma: 0.8,
            },
            loss: LossModel::GilbertElliott {
                p_enter_bad: 0.02,
                p_exit_bad: 0.25,
                loss_good: 0.01,
                loss_bad: 0.4,
            },
            partitions: vec![PartitionEvent::bisection(4.0, 6.0, seed)],
        },
        ..AsyncConfig::default()
    }
}

/// Push–pull under i.i.d. loss of 10% of polls.
pub fn pull_config() -> PullConfig {
    PullConfig {
        fanout: 1,
        max_rounds: 20,
        net: NetModel {
            loss: LossModel::Iid { rate: 0.1 },
            ..NetModel::default()
        },
    }
}

/// What set-up produces: a booted population, or a ready overlay.
#[derive(Debug)]
pub enum Input {
    /// A freshly booted population; each iteration grows a clone of it.
    Network(Box<DenseSimNetwork>),
    /// The synthetic overlay every iteration disseminates over.
    Overlay(DenseOverlay),
}

/// Builds the workload's input from `seed`.
pub fn setup(workload: Workload, p: &Params, seed: u64, tracer: &mut Tracer) -> Input {
    let config = SimConfig {
        nodes: p.nodes,
        ..SimConfig::default()
    };
    match workload {
        Workload::StaticShared => Input::Network(Box::new(
            tracer.span("sim.boot", || DenseSimNetwork::new(config, seed)),
        )),
        Workload::ChurnPerNode => Input::Network(Box::new(tracer.span("sim.boot", || {
            DenseSimNetwork::new_per_node(config, seed, 1, p.threads)
        }))),
        Workload::DisseminationAdversarial => {
            let links = tracer.span("bench.topology", || {
                synthetic_links(p.nodes, p.r_degree, seed ^ TOPOLOGY_SALT)
            });
            Input::Overlay(tracer.span("overlay.build", || DenseOverlay::from_flat_links(&links)))
        }
    }
}

/// A bidirectional ring as d-links plus `r_degree` uniform random r-links
/// per node (no self-links), in CSR form.
fn synthetic_links(nodes: usize, r_degree: usize, seed: u64) -> FlatLinks {
    let n = nodes as u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut links = FlatLinks {
        ids: (0..n).map(NodeId::new).collect(),
        r_offsets: Vec::with_capacity(nodes + 1),
        r_targets: Vec::with_capacity(nodes * r_degree),
        d_offsets: Vec::with_capacity(nodes + 1),
        d_targets: Vec::with_capacity(nodes * 2),
    };
    links.r_offsets.push(0);
    links.d_offsets.push(0);
    for i in 0..n {
        links.d_targets.push(NodeId::new((i + n - 1) % n));
        links.d_targets.push(NodeId::new((i + 1) % n));
        links.d_offsets.push(cast::to_u32(links.d_targets.len()));
        for _ in 0..r_degree {
            let mut target = rng.gen_range(0..n);
            while target == i {
                target = rng.gen_range(0..n);
            }
            links.r_targets.push(NodeId::new(target));
        }
        links.r_offsets.push(cast::to_u32(links.r_targets.len()));
    }
    links
}

/// Host time and simulated counts of one engine over one iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTally {
    /// Host seconds inside the seeded driver calls.
    pub busy_s: f64,
    /// The same, each call scaled by the reference sort after it.
    pub scaled_busy_s: f64,
    /// Runs made.
    pub runs: usize,
    /// Dissemination messages sent (push, polls and transfers).
    pub messages: usize,
    /// Sync: messages that notified a virgin node.
    pub to_virgin: usize,
    /// Sync: messages sent to dead nodes.
    pub to_dead: usize,
    /// Async: deliveries to already-notified nodes.
    pub redundant: usize,
    /// Async: messages dropped by the loss process.
    pub loss_drops: usize,
    /// Async: messages dropped by the partition.
    pub partition_drops: usize,
    /// Async: runs cut short by the time cap or the event budget.
    pub truncated_runs: usize,
    /// Pull: polls sent.
    pub polls: usize,
    /// Pull: polls that lost their round trip to the loss process.
    pub polls_lost: usize,
    /// Pull: polls answered with the message.
    pub transfers: usize,
    /// Pull: pull rounds run.
    pub rounds: usize,
}

/// What growing the population measured.
#[derive(Debug, Default)]
pub struct Growth {
    /// Live nodes × cycles stepped.
    pub node_cycles: f64,
    /// Host seconds of the membership phase (cycles and churn steps).
    pub membership_s: f64,
    /// Host milliseconds of each `run_cycles(1)`.
    pub cycle_ms: Vec<f64>,
    /// Host milliseconds of each churn step.
    pub churn_ms: Vec<f64>,
    /// Nodes added by churn.
    pub joins: usize,
    /// Nodes removed by churn.
    pub leaves: usize,
}

/// Everything one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds from the start of the iteration until its last output
    /// was checked, less the time spent in the reference task.
    pub wall_s: f64,
    /// The steps between reference sorts: one after every membership
    /// cycle, every seeded driver call, and the last check.
    pub reference: reference::Tally,
    /// Digest of every simulated statistic of the iteration.
    pub digest: u64,
    /// Digests of the sync, async and push–pull runs on their own.
    pub engine_digests: [u64; 3],
    /// The membership phase (membership workloads only).
    pub growth: Growth,
    /// Host milliseconds of the CSR export.
    pub export_ms: f64,
    /// Links of live nodes in the exported overlay.
    pub links: usize,
    /// Links of live nodes that point at dead nodes.
    pub dead_links: usize,
    /// Sync engine tally.
    pub sync: EngineTally,
    /// Async engine tally.
    pub asynch: EngineTally,
    /// Push–pull engine tally.
    pub pull: EngineTally,
    /// The overlay the engines ran over (membership workloads only).
    pub overlay: Option<DenseOverlay>,
}

impl Iteration {
    /// Dissemination messages over host seconds in dissemination calls.
    pub fn msgs_per_s(&self) -> f64 {
        let engines = [self.sync, self.asynch, self.pull];
        ratio(
            engines.iter().map(|e| e.messages as f64).sum(),
            engines.iter().map(|e| e.busy_s).sum(),
        )
    }

    /// [`Iteration::msgs_per_s`] with the seconds scaled to the reference
    /// machine.
    pub fn scaled_msgs_per_s(&self) -> f64 {
        let engines = [self.sync, self.asynch, self.pull];
        ratio(
            engines.iter().map(|e| e.messages as f64).sum(),
            engines.iter().map(|e| e.scaled_busy_s).sum(),
        )
    }
}

/// Runs one measured iteration over `input`, sorting with `reference`
/// after every membership cycle and every seeded driver call.
pub fn iterate(
    p: &Params,
    seed: u64,
    input: &Input,
    reference: &mut Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Iteration {
    let mut it = Iteration::default();
    // Copying the booted population is preparation, not measured work.
    let mut net = match input {
        Input::Network(net) => Some(DenseSimNetwork::clone(net)),
        Input::Overlay(_) => None,
    };
    reference.start();
    let root = tracer.enter("iteration");
    let mut digest = Digest::default();
    let grown = net.as_mut().map(|net| {
        it.growth = grow(net, p, reference, tracer, checks);
        export(net, p, tracer, checks, &mut it)
    });
    let overlay = match (&grown, input) {
        (Some(overlay), _) => overlay,
        (None, Input::Overlay(overlay)) => overlay,
        (None, Input::Network(_)) => unreachable!("a network input is always grown"),
    };
    digest.usize(overlay.live_len());
    digest.usize(it.links);
    digest.usize(it.dead_links);

    it.engine_digests[0] = sync_sweep(overlay, p, seed, reference, tracer, checks, &mut it.sync);
    if p.async_runs > 0 {
        it.engine_digests[1] = async_sweep(overlay, p, seed, tracer, checks, &mut it.asynch);
        let factor = tracer.span("reference", || reference.sample(p.threads));
        it.asynch.scaled_busy_s = it.asynch.busy_s * factor;
    }
    if p.pull_runs > 0 {
        it.engine_digests[2] = pull_sweep(overlay, p, seed, tracer, checks, &mut it.pull);
        let factor = tracer.span("reference", || reference.sample(p.threads));
        it.pull.scaled_busy_s = it.pull.busy_s * factor;
    }
    for d in it.engine_digests {
        digest.u64(d);
    }
    tracer.span("reference", || reference.sample(1));
    tracer.exit(root);
    it.reference = reference.finish();
    it.wall_s = it.reference.wall_s;
    it.digest = digest.finish();
    it.overlay = grown;
    it
}

/// Steps the membership layer `p.cycles` times, one churn step before
/// each cycle when the workload has churn.
fn grow(
    net: &mut DenseSimNetwork,
    p: &Params,
    reference: &mut Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Growth {
    let (cycle_span, kernel_threads) = match net.rng_mode() {
        RngMode::Shared => ("sim.shared.cycle", 1),
        RngMode::PerNode => ("sim.pernode.cycle", p.threads),
    };
    let mut churn =
        (p.churn_rate > 0.0).then(|| ChurnDriver::new(ChurnConfig { rate: p.churn_rate }));
    let mut growth = Growth {
        cycle_ms: Vec::with_capacity(p.cycles),
        ..Growth::default()
    };
    for _ in 0..p.cycles {
        if let Some(driver) = churn.as_mut() {
            let t = Instant::now();
            let (left, joined) = tracer.span("sim.churn.step", || driver.apply_churn_step(net));
            growth.churn_ms.push(t.elapsed().as_secs_f64() * 1e3);
            growth.leaves += left.len();
            growth.joins += joined.len();
            checks.check(net.len() == p.nodes, || {
                format!("live population drifted to {} of {}", net.len(), p.nodes)
            });
        }
        let live = net.len();
        let t = Instant::now();
        tracer.span(cycle_span, || net.run_cycles(1));
        growth.cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        growth.node_cycles += live as f64;
        tracer.span("reference", || reference.sample(kernel_threads));
    }
    let phase_ms: f64 = growth.cycle_ms.iter().chain(&growth.churn_ms).sum();
    growth.membership_s = phase_ms / 1e3;
    growth
}

/// Exports the grown population to CSR and counts its links.
fn export(
    net: &DenseSimNetwork,
    p: &Params,
    tracer: &mut Tracer,
    checks: &mut Checks,
    it: &mut Iteration,
) -> DenseOverlay {
    let t = Instant::now();
    let overlay = tracer.span("overlay.export", || DenseOverlay::from_dense_sim(net));
    it.export_ms = t.elapsed().as_secs_f64() * 1e3;
    checks.check(overlay.live_len() == p.nodes, || {
        format!(
            "exported overlay has {} live nodes, expected {}",
            overlay.live_len(),
            p.nodes
        )
    });
    for i in overlay.live_indices() {
        for &target in overlay.r_links_of(i).iter().chain(overlay.d_links_of(i)) {
            it.links += 1;
            if !overlay.is_live_idx(target) {
                it.dead_links += 1;
            }
        }
    }
    overlay
}

/// The sync RandCast/RingCast fanout sweep through the seeded driver.
fn sync_sweep(
    overlay: &DenseOverlay,
    p: &Params,
    seed: u64,
    reference: &mut Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
    tally: &mut EngineTally,
) -> u64 {
    let mut digest = Digest::default();
    for (i, selector) in sync_selectors().iter().enumerate() {
        let master = run_seed(seed ^ SYNC_SALT, i as u64);
        let t = Instant::now();
        let reports = tracer.span("engine.sweep", || {
            run_seeded_disseminations(overlay, selector, p.sync_runs, master, p.threads)
        });
        let busy_s = t.elapsed().as_secs_f64();
        let factor = tracer.span("reference", || reference.sample(p.threads));
        tally.busy_s += busy_s;
        tally.scaled_busy_s += busy_s * factor;
        let open = tracer.enter("checks");
        let mut hits = 0.0;
        for r in &reports {
            checks.sync_report(r);
            digest_sync(&mut digest, r);
            tally.runs += 1;
            tally.messages += r.total_messages();
            tally.to_virgin += r.messages_to_virgin;
            tally.to_dead += r.messages_to_dead;
            hits += r.hit_ratio();
        }
        if let (Some(floor), DenseSelector::RingCast(fanout)) = (p.ringcast_hit_floor, selector) {
            let mean = hits / reports.len() as f64;
            checks.check(mean >= floor, || {
                format!("RingCast f={fanout} mean hit ratio {mean:.4} is below the floor {floor}")
            });
        }
        tracer.exit(open);
        tracer.span("engine.drop_reports", || drop(reports));
    }
    digest.finish()
}

/// Async RingCast under the adversarial network model.
fn async_sweep(
    overlay: &DenseOverlay,
    p: &Params,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    tally: &mut EngineTally,
) -> u64 {
    let config = async_config(seed);
    let selector = DenseSelector::ringcast(ASYNC_FANOUT);
    let t = Instant::now();
    let reports = tracer.span("async.sweep", || {
        run_seeded_async(
            overlay,
            &selector,
            &config,
            p.async_runs,
            seed ^ ASYNC_SALT,
            p.threads,
        )
    });
    tally.busy_s += t.elapsed().as_secs_f64();
    let open = tracer.enter("checks");
    let mut digest = Digest::default();
    for r in &reports {
        checks.async_report(r);
        digest_async(&mut digest, r);
        tally.runs += 1;
        tally.messages += r.messages_sent;
        tally.redundant += r.messages_redundant;
        tally.loss_drops += r.dropped_loss;
        tally.partition_drops += r.dropped_partition;
        tally.truncated_runs += usize::from(r.truncated);
    }
    tracer.exit(open);
    tracer.span("async.drop_reports", || drop(reports));
    digest.finish()
}

/// Push–pull RandCast under i.i.d. poll loss.
fn pull_sweep(
    overlay: &DenseOverlay,
    p: &Params,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    tally: &mut EngineTally,
) -> u64 {
    let config = pull_config();
    let selector = DenseSelector::randcast(PULL_PUSH_FANOUT);
    let t = Instant::now();
    let reports = tracer.span("pull.sweep", || {
        run_seeded_push_pulls(
            overlay,
            &selector,
            &config,
            p.pull_runs,
            seed ^ PULL_SALT,
            p.threads,
        )
    });
    tally.busy_s += t.elapsed().as_secs_f64();
    let open = tracer.enter("checks");
    let mut digest = Digest::default();
    for r in &reports {
        checks.push_pull_report(r);
        digest_push_pull(&mut digest, r);
        tally.runs += 1;
        tally.messages += r.total_messages();
        tally.transfers += r.pull_transfers;
        tally.polls_lost += r.polls_lost;
        tally.polls += r.pull_requests;
        tally.rounds += r.pull_rounds;
    }
    tracer.exit(open);
    tracer.span("pull.drop_reports", || drop(reports));
    digest.finish()
}

/// Per-run timings and scheduler state from replaying an iteration's runs
/// one at a time through the single-run entry points.
#[derive(Debug, Default)]
pub struct Replay {
    /// Milliseconds of each sync run through `disseminate_dense`.
    pub sync_ms: Vec<f64>,
    /// Milliseconds of each sync run through `disseminate_dense_stats`.
    pub sync_stats_ms: Vec<f64>,
    /// Milliseconds of each async run.
    pub async_ms: Vec<f64>,
    /// Milliseconds of each push–pull run.
    pub pull_ms: Vec<f64>,
    /// Largest event-queue high-water mark over the async runs.
    pub queue_high_water: usize,
    /// Largest overflow-tier high-water mark over the async runs.
    pub overflow_high_water: usize,
    /// Largest retained event-queue storage over the async runs, bytes.
    pub resident_bytes: usize,
}

impl Replay {
    /// Host seconds the replayed runs took on one thread through the
    /// same entry points the seeded drivers call.
    pub fn single_thread_s(&self) -> f64 {
        let ms: f64 = [&self.sync_ms, &self.async_ms, &self.pull_ms]
            .iter()
            .flat_map(|v| v.iter())
            .sum();
        ms / 1e3
    }
}

/// The per-run RNG and origin of run `run` under `master`, exactly as the
/// seeded drivers derive them.
fn run_start(
    overlay: &DenseOverlay,
    live: &[u32],
    master: u64,
    run: usize,
) -> (ChaCha8Rng, NodeId) {
    let mut rng = ChaCha8Rng::seed_from_u64(run_seed(master, run as u64));
    let origin = overlay.node_id(live[rng.gen_range(0..live.len())]);
    (rng, origin)
}

/// Replays every run of `it` one at a time on this thread, timing each,
/// and checks that the replay reproduces the seeded drivers' outputs.
pub fn replay(
    overlay: &DenseOverlay,
    p: &Params,
    seed: u64,
    it: &Iteration,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Replay {
    let mut out = Replay::default();
    let live = overlay.live_indices();

    let mut digest = Digest::default();
    let mut scratch = DenseScratch::new();
    for (i, selector) in sync_selectors().iter().enumerate() {
        let master = run_seed(seed ^ SYNC_SALT, i as u64);
        for run in 0..p.sync_runs {
            // Alternate which variant goes first so neither always runs
            // on caches the other warmed.
            let report_first = run % 2 == 0;
            for pass in 0..2 {
                let (mut rng, origin) = run_start(overlay, &live, master, run);
                if (pass == 0) == report_first {
                    let t = Instant::now();
                    let report = tracer.span("engine.run", || {
                        disseminate_dense(overlay, selector, origin, &mut rng, &mut scratch)
                    });
                    out.sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    digest_sync(&mut digest, &report);
                } else {
                    let t = Instant::now();
                    let stats = tracer.span("engine.run_stats", || {
                        disseminate_dense_stats(overlay, selector, origin, &mut rng, &mut scratch)
                    });
                    out.sync_stats_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    std::hint::black_box(stats);
                }
            }
        }
    }
    checks.check(digest.finish() == it.engine_digests[0], || {
        "single-run sync replay differs from the seeded driver".to_owned()
    });

    if p.async_runs > 0 {
        let config = async_config(seed);
        let selector = DenseSelector::ringcast(ASYNC_FANOUT);
        let mut scratch = DenseAsyncScratch::new();
        let mut digest = Digest::default();
        for run in 0..p.async_runs {
            let (mut rng, origin) = run_start(overlay, &live, seed ^ ASYNC_SALT, run);
            let t = Instant::now();
            let report = tracer.span("async.run", || {
                disseminate_async_dense(overlay, &selector, origin, &config, &mut rng, &mut scratch)
            });
            out.async_ms.push(t.elapsed().as_secs_f64() * 1e3);
            digest_async(&mut digest, &report);
            out.queue_high_water = out.queue_high_water.max(scratch.event_queue_high_water());
            out.overflow_high_water = out.overflow_high_water.max(scratch.overflow_high_water());
            out.resident_bytes = out.resident_bytes.max(scratch.event_resident_bytes());
        }
        checks.check(digest.finish() == it.engine_digests[1], || {
            "single-run async replay differs from the seeded driver".to_owned()
        });
    }

    if p.pull_runs > 0 {
        let config = pull_config();
        let selector = DenseSelector::randcast(PULL_PUSH_FANOUT);
        let mut scratch = DensePullScratch::new();
        let mut digest = Digest::default();
        for run in 0..p.pull_runs {
            let (mut rng, origin) = run_start(overlay, &live, seed ^ PULL_SALT, run);
            let t = Instant::now();
            let report = tracer.span("pull.run", || {
                disseminate_push_pull_dense(
                    overlay,
                    &selector,
                    origin,
                    &config,
                    &mut rng,
                    &mut scratch,
                )
            });
            out.pull_ms.push(t.elapsed().as_secs_f64() * 1e3);
            digest_push_pull(&mut digest, &report);
        }
        checks.check(digest.finish() == it.engine_digests[2], || {
            "single-run push-pull replay differs from the seeded driver".to_owned()
        });
    }
    out
}
