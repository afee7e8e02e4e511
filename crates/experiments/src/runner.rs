//! The generic scenario runner: builds a parallel-link simulation from a
//! declarative description, runs it with periodic sampling, and returns
//! per-connection/per-subflow results.
//!
//! Every experiment run starts in the [`Executor`]: [`Executor::run_jobs`]
//! (or its scenario form [`Executor::run_batch`]) hands each job a
//! [`RunCtx`] carrying the run id, the part-file telemetry and the
//! `--faults` overlay, runs the jobs on a worker pool, and merges the part
//! files in run-id order. Results always come back in submission order,
//! so `--jobs N` output is byte-identical to `--jobs 1`.

use crate::protocols;
use mpcc_metrics::{RateSeries, Summary};
use mpcc_netsim::fault::FaultPlan;
use mpcc_netsim::link::{LinkParams, LinkStats};
use mpcc_netsim::topology::NetSpec;
use mpcc_netsim::{EndpointId, LinkId, ShardedSimulation, Simulation};
use mpcc_simcore::{rng::splitmix64, DispatchStamp, SimDuration, SimTime};
use mpcc_telemetry::{
    merge_keyed_parts, KeyedSink, LayerMask, MetricsPipeline, PipelineConfig, TeeSink, TraceSink,
    Tracer,
};
use mpcc_transport::{MpReceiver, MpSender, ReceiverStats, SchedulerKind, SenderConfig, Workload};
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where traced runs write their records.
///
/// Every run streams into its own keyed part file next to `path` (one per
/// shard of a sharded run; see [`RunCtx`]), so concurrent runs
/// never interleave records. Once a run completes its parts are merged
/// into `path` and removed; the [`Executor`] merges a batch one run after
/// another in run-id order. Run ids are assigned at submission, which
/// makes the merged trace independent of the worker count.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// The merged JSONL output file.
    pub path: PathBuf,
    /// Layers to record.
    pub mask: LayerMask,
}

/// Where runs flush their time-binned metrics rows (see
/// [`mpcc_telemetry::MetricsPipeline`]).
///
/// The part-file and merge discipline is identical to [`TraceConfig`]:
/// every run (every shard of a sharded run) folds its own trace stream
/// into its own keyed part file, merged into `path` in run-id order, so
/// the merged series are byte-identical at any `--jobs` count.
#[derive(Clone, Debug)]
pub struct MetricsConfig {
    /// The merged JSONL output file.
    pub path: PathBuf,
    /// Time-bin width of the aggregated series.
    pub bin: SimDuration,
}

impl MetricsConfig {
    /// A config at the pipeline's default cadence (1 s bins).
    pub fn new(path: PathBuf) -> Self {
        MetricsConfig {
            path,
            bin: PipelineConfig::default().bin,
        }
    }

    /// Sets the bin width.
    pub fn with_bin(mut self, bin: SimDuration) -> Self {
        self.bin = bin;
        self
    }
}

/// The keyed part file `<stem>.<tag>.shard<NN>.<ext>` next to the merged
/// output `path`; `stem` stands in when `path` has none.
fn part_path(path: &Path, stem: &str, tag: &str, shard: usize) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or(stem);
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    path.with_file_name(format!("{stem}.{tag}.shard{shard:02}.{ext}"))
}

#[derive(Debug)]
struct ExecInner {
    jobs: usize,
    trace: Option<TraceConfig>,
    metrics: Option<MetricsConfig>,
    /// Fault plan overlaid on every link of every run (the CLI's global
    /// `--faults` spec; [`FaultPlan::NONE`] leaves links untouched).
    faults: FaultPlan,
    /// Monotonic run-id counter, shared by every clone of the executor so
    /// per-run part files never collide across batches.
    next_run_id: AtomicU64,
}

/// A deterministic worker pool for experiment runs, and the only place a
/// run starts.
///
/// [`Executor::run_jobs`] gives every job its run id, its part-file
/// telemetry and the `--faults` overlay (through a [`RunCtx`]) in
/// submission order, runs the jobs on up to `jobs` threads, and merges
/// each run's part files as soon as it and every earlier run are done, in
/// run-id order, so any worker count produces identical output. Cloning
/// shares the pool configuration and the run-id counter.
#[derive(Clone, Debug)]
pub struct Executor {
    inner: Arc<ExecInner>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::serial()
    }
}

impl Executor {
    /// A single-threaded, untraced executor (the library default).
    pub fn serial() -> Self {
        Executor::new(1, None)
    }

    /// An executor running up to `jobs` scenarios concurrently. When
    /// `trace` is set, the merged trace file is created (truncated) here.
    pub fn new(jobs: usize, trace: Option<TraceConfig>) -> Self {
        if let Some(tc) = &trace {
            fs::File::create(&tc.path)
                .unwrap_or_else(|e| panic!("cannot create trace file {:?}: {e}", tc.path));
        }
        Executor {
            inner: Arc::new(ExecInner {
                jobs: jobs.max(1),
                trace,
                metrics: None,
                faults: FaultPlan::NONE,
                next_run_id: AtomicU64::new(0),
            }),
        }
    }

    /// Returns an executor that overlays `faults` on every link of every
    /// run it starts, including links swapped in by scheduled changes (see
    /// [`Simulation::set_fault_overlay`]). Knobs a scenario already sets
    /// survive only where the overlay leaves them unset — see
    /// [`FaultPlan::overlay`].
    pub fn with_faults(self, faults: FaultPlan) -> Self {
        self.reconfigured(|inner| inner.faults = faults)
    }

    /// Returns an executor that additionally streams time-binned metrics
    /// from every run into `metrics.path`. The merged file is created
    /// (truncated) here, like the trace file in [`Executor::new`].
    pub fn with_metrics(self, metrics: MetricsConfig) -> Self {
        fs::File::create(&metrics.path)
            .unwrap_or_else(|e| panic!("cannot create metrics file {:?}: {e}", metrics.path));
        self.reconfigured(|inner| inner.metrics = Some(metrics))
    }

    /// A copy of this executor's configuration with `change` applied.
    fn reconfigured(self, change: impl FnOnce(&mut ExecInner)) -> Self {
        let i = &self.inner;
        let mut inner = ExecInner {
            jobs: i.jobs,
            trace: i.trace.clone(),
            metrics: i.metrics.clone(),
            faults: i.faults,
            next_run_id: AtomicU64::new(i.next_run_id.load(Ordering::Relaxed)),
        };
        change(&mut inner);
        Executor {
            inner: Arc::new(inner),
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.inner.jobs
    }

    /// The configured merged-trace destination, if any.
    pub fn trace_config(&self) -> Option<&TraceConfig> {
        self.inner.trace.as_ref()
    }

    /// The configured merged-metrics destination, if any.
    pub fn metrics_config(&self) -> Option<&MetricsConfig> {
        self.inner.metrics.as_ref()
    }

    /// Runs independent jobs across the pool and returns their results in
    /// submission order — the one entry every experiment run goes
    /// through. Each job gets a [`RunCtx`] holding its run id (assigned
    /// here, in submission order, before anything executes), its keyed
    /// part-file telemetry and the `--faults` overlay; the job attaches
    /// it to the simulation it builds. As soon as a job and every earlier
    /// job of the batch are done, the executor flushes that run's tracers
    /// and merges its part files into the `--trace`/`--metrics` files.
    /// Merges happen under one lock, one run after another in run-id
    /// order, so the merged bytes are independent of the worker count and
    /// a finished run's parts leave the disk without waiting for the
    /// whole batch.
    pub fn run_jobs<J, R, F>(&self, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(J, &mut RunCtx) -> R + Sync,
    {
        let jobs: Vec<(usize, J, RunCtx)> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, j)| (i, j, self.claim()))
            .collect();
        // The next batch index to merge, and finished runs waiting for it.
        let unmerged: Vec<Option<RunCtx>> = jobs.iter().map(|_| None).collect();
        let merger = Mutex::new((0, unmerged));
        self.map(jobs, |(i, job, mut ctx)| {
            let result = f(job, &mut ctx);
            let mut guard = merger.lock().expect("merge queue poisoned");
            let (next, unmerged) = &mut *guard;
            unmerged[i] = Some(ctx);
            while let Some(ctx) = unmerged.get_mut(*next).and_then(Option::take) {
                ctx.merge().expect("cannot merge per-run part files");
                *next += 1;
            }
            result
        })
    }

    /// Runs a batch of independent scenarios (see [`Executor::run_jobs`]),
    /// returning results in submission order.
    pub fn run_batch(&self, scs: Vec<Scenario>) -> Vec<RunResult> {
        self.run_jobs(scs, |sc, ctx| simulate(&sc, |sim| ctx.attach(sim)))
    }

    /// Maps `f` over `items` on up to [`Executor::jobs`] worker threads.
    /// Results come back in submission order regardless of completion
    /// order; a panicking job propagates once all workers have joined.
    fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.inner.jobs.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let queue: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
            .take(n)
            .collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let job = queue.lock().expect("job queue poisoned").pop_front();
                    match job {
                        Some((i, item)) => {
                            *slots[i].lock().expect("result slot poisoned") = Some(f(item));
                        }
                        None => break,
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Claims the next run id and builds that run's context.
    fn claim(&self) -> RunCtx {
        RunCtx {
            run_id: self.inner.next_run_id.fetch_add(1, Ordering::Relaxed),
            faults: self.inner.faults,
            trace: self.inner.trace.clone(),
            metrics: self.inner.metrics.clone(),
            trace_parts: Vec::new(),
            metrics_parts: Vec::new(),
            tracers: Vec::new(),
        }
    }
}

/// What the [`Executor`] hands each job: the run's id, its telemetry and
/// the `--faults` overlay, ready to attach to the simulation the job
/// builds — [`RunCtx::attach`] for one instance, [`RunCtx::attach_sharded`]
/// for a partitioned run, [`RunCtx::tracer`] for a run without a
/// simulation (the UDP sender).
///
/// Telemetry is one keyed part stream per shard (a single instance is one
/// part), named `<stem>.runNNNNN.shardNN.<ext>` next to the merged file.
/// The executor merges the parts into the `--trace`/`--metrics` files in
/// canonical dispatch order once the job and every earlier job of its
/// batch have returned, so the merged bytes are identical at every
/// `--jobs` and `--shards` count and at either lane count (DESIGN.md §13,
/// §16). Untraced runs pay nothing: with neither sink configured no part
/// file exists.
pub struct RunCtx {
    run_id: u64,
    faults: FaultPlan,
    trace: Option<TraceConfig>,
    metrics: Option<MetricsConfig>,
    trace_parts: Vec<PathBuf>,
    metrics_parts: Vec<PathBuf>,
    /// Every tracer handed out, flushed before the merge.
    tracers: Vec<Tracer>,
}

impl RunCtx {
    /// Attaches the run to a single-instance simulation: the fault
    /// overlay, and the tracer of its one part stream. Call after
    /// building the links, before the first `run_until`.
    pub fn attach(&mut self, sim: &mut Simulation) {
        sim.set_fault_overlay(self.faults);
        if let Some(tracer) = self.part_tracer(0, &Arc::default()) {
            sim.set_tracer(tracer);
        }
    }

    /// Attaches the run to a partitioned simulation: the fault overlay on
    /// every shard, and one keyed part stream (with its dispatch-stamp
    /// cell) per shard. Call before the first `run_until`.
    pub fn attach_sharded(&mut self, sim: &mut ShardedSimulation) {
        for i in 0..sim.shards() {
            sim.shard_mut(i).set_fault_overlay(self.faults);
            let stamp = Arc::new(DispatchStamp::new());
            if let Some(tracer) = self.part_tracer(i, &stamp) {
                sim.install_tracer(i, tracer, stamp);
            }
        }
    }

    /// The tracer of a run that drives no simulation (one part; off when
    /// no sink is configured). Such a run has no links, so the fault
    /// overlay does not apply.
    pub fn tracer(&mut self) -> Tracer {
        self.part_tracer(0, &Arc::default())
            .unwrap_or_else(Tracer::off)
    }

    /// Builds part `shard`'s tracer, writing keyed part streams ordered by
    /// the shared dispatch stamp: the trace branch behind its
    /// `--trace-filter` mask, the metrics pipeline seeing every layer, or
    /// a [`TeeSink`] of both with those masks, so attaching metrics never
    /// changes the trace bytes. `None` when no sink is configured. One
    /// instance emits in dispatch order already, so a single part's stamp
    /// can stay idle: the per-record sequence number alone keys it.
    fn part_tracer(&mut self, shard: usize, stamp: &Arc<DispatchStamp>) -> Option<Tracer> {
        let tag = format!("run{:05}", self.run_id);
        let failed =
            |path: &Path, e: io::Error| -> ! { panic!("cannot create part file {path:?}: {e}") };
        let trace_branch: Option<(Arc<dyn TraceSink>, LayerMask)> = match &self.trace {
            Some(tc) => {
                let path = part_path(&tc.path, "trace", &tag, shard);
                let sink = KeyedSink::create(&path, Arc::clone(stamp))
                    .unwrap_or_else(|e| failed(&path, e));
                self.trace_parts.push(path);
                Some((Arc::new(sink), tc.mask))
            }
            None => None,
        };
        let metrics_branch: Option<(Arc<dyn TraceSink>, LayerMask)> = match &self.metrics {
            Some(mc) => {
                let path = part_path(&mc.path, "metrics", &tag, shard);
                let cfg = PipelineConfig::default()
                    .with_bin(mc.bin)
                    .with_run(self.run_id);
                let file = fs::File::create(&path).unwrap_or_else(|e| failed(&path, e));
                let w: Box<dyn io::Write + Send> = Box::new(io::BufWriter::new(file));
                let pipeline = MetricsPipeline::new(cfg, true, w);
                self.metrics_parts.push(path);
                Some((Arc::new(pipeline), LayerMask::ALL))
            }
            None => None,
        };
        let tracer = match (trace_branch, metrics_branch) {
            (Some((sink, mask)), None) | (None, Some((sink, mask))) => Tracer::new(sink, mask),
            (Some(t), Some(m)) => Tracer::new(Arc::new(TeeSink::new(vec![t, m])), LayerMask::ALL),
            (None, None) => return None,
        };
        self.tracers.push(tracer.clone());
        Some(tracer)
    }

    /// Flushes the run's tracers, merges its part files into the final
    /// `--trace`/`--metrics` files in canonical key order and removes
    /// them. The per-part row counts of a multi-part merge go to stderr,
    /// so a truncated shard stream is visible instead of silently
    /// under-merging.
    fn merge(self) -> io::Result<()> {
        for tracer in self.tracers {
            tracer.flush();
        }
        let tag = format!("run{:05}", self.run_id);
        if let Some(tc) = &self.trace {
            let rows = merge_keyed_parts(&tc.path, &self.trace_parts)?;
            report_part_rows(&tag, "trace", &rows);
            for p in &self.trace_parts {
                fs::remove_file(p)?;
            }
        }
        if let Some(mc) = &self.metrics {
            let rows = merge_keyed_parts(&mc.path, &self.metrics_parts)?;
            report_part_rows(&tag, "metrics", &rows);
            for p in &self.metrics_parts {
                fs::remove_file(p)?;
            }
        }
        Ok(())
    }
}

/// One stderr line per merged multi-part stream: the total and the
/// per-part row counts, in shard order.
fn report_part_rows(tag: &str, stream: &str, rows: &[u64]) {
    if rows.len() < 2 {
        return;
    }
    let total: u64 = rows.iter().sum();
    let parts: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
    eprintln!(
        "{tag}: merged {total} {stream} rows from {} part(s) [{}]",
        rows.len(),
        parts.join(" ")
    );
}

/// One connection of a scenario.
#[derive(Clone, Debug)]
pub struct ConnSpec {
    /// Protocol label (see [`protocols::make`]).
    pub proto: String,
    /// Link index (into the scenario's link list) of each subflow.
    pub links: Vec<usize>,
    /// Transfer size; `Bulk` for iperf-style runs.
    pub workload: Workload,
    /// Transmission start time.
    pub start: SimTime,
    /// The sender's subflow scheduler.
    pub scheduler: SchedulerKind,
}

impl ConnSpec {
    /// A bulk connection starting at time zero, with the scheduler the
    /// paper pairs with `proto` ([`protocols::scheduler_for`]).
    pub fn bulk(proto: &str, links: Vec<usize>) -> Self {
        ConnSpec {
            proto: proto.to_string(),
            links,
            workload: Workload::Bulk,
            start: SimTime::ZERO,
            scheduler: protocols::scheduler_for(proto),
        }
    }
}

/// A declarative parallel-link experiment.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Experiment seed (drives loss draws, MI jitter, probe ordering).
    pub seed: u64,
    /// The parallel bottleneck links.
    pub links: Vec<LinkParams>,
    /// The competing connections.
    pub conns: Vec<ConnSpec>,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Statistics before this offset are discarded (the paper drops the
    /// first 30 s of its 200 s runs).
    pub warmup: SimDuration,
    /// Sampling interval for the time series.
    pub sample_every: SimDuration,
    /// Scheduled link parameter changes (§7.2.3): (time, link, params).
    pub link_changes: Vec<(SimTime, usize, LinkParams)>,
}

impl Scenario {
    /// A scenario over `links` with the usual defaults (60 s run, 10 s
    /// warmup, 1 s samples).
    pub fn new(seed: u64, links: Vec<LinkParams>, conns: Vec<ConnSpec>) -> Self {
        Scenario {
            seed,
            links,
            conns,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(10),
            sample_every: SimDuration::from_secs(1),
            link_changes: Vec::new(),
        }
    }

    /// Scales run length and warmup (×5 for `--full` paper-scale runs).
    pub fn with_duration(mut self, duration: SimDuration, warmup: SimDuration) -> Self {
        self.duration = duration;
        self.warmup = warmup;
        self
    }

    /// Sets the sampling interval.
    pub fn with_sampling(mut self, every: SimDuration) -> Self {
        self.sample_every = every;
        self
    }

    /// The network this scenario runs on: its links, and one single-link
    /// route per subflow.
    pub fn net(&self) -> NetSpec {
        let routes = |c: &ConnSpec| c.links.iter().map(|&l| vec![l]).collect();
        NetSpec {
            links: self.links.clone(),
            conns: self.conns.iter().map(routes).collect(),
        }
    }
}

/// Per-connection outcome of a run.
#[derive(Clone, Debug)]
pub struct ConnResult {
    /// Protocol label.
    pub proto: String,
    /// Mean goodput after warmup, Mbps (connection-level in-order bytes).
    pub goodput_mbps: f64,
    /// Goodput time series.
    pub series: RateSeries,
    /// Per-subflow delivered-byte rate series.
    pub subflow_series: Vec<RateSeries>,
    /// Smoothed-RTT samples per subflow, (time, ms).
    pub srtt_ms: Vec<Vec<(SimTime, f64)>>,
    /// Flow completion time (finite workloads), seconds.
    pub fct: Option<f64>,
    /// Total packets lost across subflows.
    pub lost_packets: u64,
    /// Total packets sent across subflows.
    pub sent_packets: u64,
    /// Connection-level bytes acknowledged at the sender.
    pub data_acked: u64,
    /// The receiver's final statistics (delivery frontier, duplicates).
    pub receiver: ReceiverStats,
}

/// Outcome of a scenario run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// One entry per connection, in `Scenario::conns` order.
    pub conns: Vec<ConnResult>,
    /// Final per-link counters.
    pub links: Vec<LinkStats>,
    /// Mean aggregate goodput after warmup, Mbps.
    pub total_goodput_mbps: f64,
}

impl RunResult {
    /// Jain fairness index over the connections' mean goodputs.
    pub fn jain(&self) -> f64 {
        let v: Vec<f64> = self.conns.iter().map(|c| c.goodput_mbps).collect();
        mpcc_metrics::jain_index(&v)
    }

    /// Aggregate goodput divided by total link capacity (`capacities` in
    /// Mbps) — the paper's Fig. 10b normalization.
    pub fn utilization(&self, capacities_mbps: f64) -> f64 {
        if capacities_mbps <= 0.0 {
            return 0.0;
        }
        self.total_goodput_mbps / capacities_mbps
    }
}

/// Runs a scenario to completion, untraced and outside any executor.
pub fn run(sc: &Scenario) -> RunResult {
    run_traced(sc, Tracer::off())
}

/// Runs a scenario to completion with `tracer` attached, then flushes it
/// (for callers that inspect a sink directly; executor runs get their
/// tracer from [`RunCtx::attach`]).
pub fn run_traced(sc: &Scenario, tracer: Tracer) -> RunResult {
    let result = simulate(sc, |sim| sim.set_tracer(tracer.clone()));
    tracer.flush();
    result
}

/// Builds and runs a scenario's simulation; `attach` sees it once the
/// links and paths exist, before any endpoint. The run is fully
/// self-contained: it owns its simulation, so concurrent runs never share
/// mutable state.
fn simulate(sc: &Scenario, attach: impl FnOnce(&mut Simulation)) -> RunResult {
    // Paths: one per (connection, subflow); paths over the same link are
    // distinct PathIds but share the Link object.
    let net = sc.net();
    let mut sim = net.build(sc.seed);
    attach(&mut sim);
    for (t, link, params) in &sc.link_changes {
        sim.schedule_link_change(*t, LinkId(*link as u32), *params);
    }

    let mut senders: Vec<EndpointId> = Vec::new();
    let mut receivers: Vec<EndpointId> = Vec::new();
    for (i, conn) in sc.conns.iter().enumerate() {
        let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
        receivers.push(recv);
        let cc = protocols::make(
            &conn.proto,
            splitmix64(sc.seed ^ splitmix64(0xC0FFEE + i as u64)),
        );
        let cfg = SenderConfig {
            dst: recv,
            paths: net.paths(i),
            workload: conn.workload,
            scheduler: conn.scheduler,
            start_at: conn.start,
            peer_buffer: 300_000_000,
        };
        senders.push(sim.add_endpoint(Box::new(MpSender::new(cfg, cc))));
    }

    // Sampling loop.
    let n = sc.conns.len();
    let mut series: Vec<RateSeries> = (0..n).map(|_| RateSeries::new()).collect();
    let mut sf_series: Vec<Vec<RateSeries>> = sc
        .conns
        .iter()
        .map(|c| (0..c.links.len()).map(|_| RateSeries::new()).collect())
        .collect();
    let mut srtt: Vec<Vec<Vec<(SimTime, f64)>>> = sc
        .conns
        .iter()
        .map(|c| vec![Vec::new(); c.links.len()])
        .collect();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + sc.duration;
    while t < end {
        t += sc.sample_every;
        sim.run_until(t.min(end));
        for (i, &id) in senders.iter().enumerate() {
            let sender = sim.endpoint::<MpSender>(id);
            series[i].push_cumulative(t, sender.data_acked());
            for k in 0..sc.conns[i].links.len() {
                if k < sender.num_subflows() {
                    let stats = sender.subflow_stats(k, t);
                    sf_series[i][k].push_cumulative(t, stats.delivered_bytes);
                    srtt[i][k].push((t, stats.srtt.as_millis_f64()));
                }
            }
        }
    }

    let warm = SimTime::ZERO + sc.warmup;
    let mut conns = Vec::with_capacity(n);
    for (i, spec) in sc.conns.iter().enumerate() {
        let sender = sim.endpoint::<MpSender>(senders[i]);
        let (mut lost, mut sent) = (0, 0);
        let active_sfs = sender.num_subflows();
        for k in 0..active_sfs {
            let s = sender.subflow_stats(k, end);
            lost += s.lost_packets;
            sent += s.sent_packets;
        }
        let data_acked = sender.data_acked();
        let receiver = sim.endpoint::<MpReceiver>(receivers[i]).stats();
        let sender = sim.endpoint::<MpSender>(senders[i]);
        conns.push(ConnResult {
            proto: spec.proto.clone(),
            goodput_mbps: series[i].mean_after(warm),
            series: series[i].clone(),
            subflow_series: sf_series[i].clone(),
            srtt_ms: srtt[i].clone(),
            fct: sender.fct().map(|d| d.as_secs_f64()),
            lost_packets: lost,
            sent_packets: sent,
            data_acked,
            receiver,
        });
    }
    let total = conns.iter().map(|c| c.goodput_mbps).sum();
    let links = (0..sc.links.len() as u32)
        .map(|l| sim.link_stats(LinkId(l)))
        .collect();
    RunResult {
        conns,
        links,
        total_goodput_mbps: total,
    }
}

/// Expands each scenario into `runs` independent seed-jobs (seeds derived
/// via `splitmix64`, identical to what serial repetition produced), runs
/// them all as one batch, and returns the per-connection goodput summaries
/// — one `Vec<Summary>` (index = connection) per input scenario.
pub fn run_seeds_batch(exec: &Executor, scs: &[Scenario], runs: u64) -> Vec<Vec<Summary>> {
    let mut jobs = Vec::with_capacity(scs.len() * runs as usize);
    for sc in scs {
        for r in 0..runs {
            let mut sc_r = sc.clone();
            sc_r.seed = splitmix64(sc.seed ^ splitmix64(r + 1));
            jobs.push(sc_r);
        }
    }
    let mut results = exec.run_batch(jobs).into_iter();
    scs.iter()
        .map(|sc| {
            let mut per_conn: Vec<Vec<f64>> = vec![Vec::new(); sc.conns.len()];
            for _ in 0..runs {
                let result = results.next().expect("one result per job");
                for (i, c) in result.conns.iter().enumerate() {
                    per_conn[i].push(c.goodput_mbps);
                }
            }
            per_conn.iter().map(|v| Summary::of(v)).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_simcore::Rate;
    use std::path::Path;

    #[test]
    fn reno_fills_default_link() {
        let sc = Scenario::new(
            1,
            vec![LinkParams::paper_default()],
            vec![ConnSpec::bulk("reno", vec![0])],
        )
        .with_duration(SimDuration::from_secs(20), SimDuration::from_secs(5));
        let result = run(&sc);
        assert!(
            result.conns[0].goodput_mbps > 80.0,
            "{}",
            result.conns[0].goodput_mbps
        );
        assert!(result.jain() > 0.999);
        assert!(result.utilization(100.0) > 0.8);
    }

    #[test]
    fn two_reno_flows_share_fairly() {
        let sc = Scenario::new(
            2,
            vec![LinkParams::paper_default()],
            vec![
                ConnSpec::bulk("reno", vec![0]),
                ConnSpec::bulk("reno", vec![0]),
            ],
        )
        .with_duration(SimDuration::from_secs(40), SimDuration::from_secs(10));
        let result = run(&sc);
        assert!(result.jain() > 0.85, "jain {}", result.jain());
        assert!(result.total_goodput_mbps > 80.0);
    }

    #[test]
    fn finite_workload_reports_fct() {
        let sc = Scenario::new(
            3,
            vec![LinkParams::paper_default()],
            vec![ConnSpec {
                workload: Workload::Finite(5_000_000),
                ..ConnSpec::bulk("reno", vec![0])
            }],
        )
        .with_duration(SimDuration::from_secs(20), SimDuration::ZERO);
        let result = run(&sc);
        let fct = result.conns[0].fct.expect("flow completes");
        // 5 MB over ≤100 Mbps with slow start: between 0.4 and 5 s.
        assert!((0.4..5.0).contains(&fct), "fct {fct}");
    }

    #[test]
    fn link_change_takes_effect() {
        let mut sc = Scenario::new(
            4,
            vec![LinkParams::paper_default()],
            vec![ConnSpec::bulk("reno", vec![0])],
        )
        .with_duration(SimDuration::from_secs(30), SimDuration::from_secs(2));
        sc.link_changes.push((
            SimTime::from_secs(10),
            0,
            LinkParams::paper_default().with_capacity(Rate::from_mbps(10.0)),
        ));
        let result = run(&sc);
        let series = &result.conns[0].series;
        // Steady state on the 100 Mbps link before the 10 s capacity cut
        // vs steady state after it.
        let early = series.mean_between(SimTime::from_secs(2), SimTime::from_secs(10));
        let late = series.mean_after(SimTime::from_secs(12));
        assert!(early > 50.0, "early {early}");
        assert!(late < 15.0, "late {late}");
        assert!(early > 3.0 * late, "early {early} vs late {late}");
    }

    #[test]
    fn link_change_mid_outage_does_not_resurrect_packets() {
        use mpcc_netsim::fault::OutageSchedule;
        // A 5–10 s outage black-holes path 0; at 7 s a capacity change
        // lands on the same link (carrying the same fault plan, as the
        // executor overlay does). The change must not leak any packet out
        // of the black-hole window: goodput stays ~zero until the window
        // closes, and recovers afterwards.
        let faults = FaultPlan::NONE.with_outage(OutageSchedule::once(
            SimTime::from_secs(5),
            SimDuration::from_secs(5),
        ));
        let base = LinkParams::paper_default()
            .with_capacity(Rate::from_mbps(20.0))
            .with_faults(faults);
        let mut sc = Scenario::new(11, vec![base], vec![ConnSpec::bulk("reno", vec![0])])
            .with_duration(SimDuration::from_secs(25), SimDuration::from_secs(1));
        sc.link_changes.push((
            SimTime::from_secs(7),
            0,
            base.with_capacity(Rate::from_mbps(100.0))
                .with_faults(faults),
        ));
        let result = run(&sc);
        let series = &result.conns[0].series;
        let before = series.mean_between(SimTime::from_secs(1), SimTime::from_secs(5));
        let during = series.mean_between(SimTime::from_secs(6), SimTime::from_secs(10));
        let after = series.mean_after(SimTime::from_secs(14));
        assert!(before > 10.0, "before {before}");
        assert!(
            during < 1.0,
            "packets leaked through a black-holed window after set_params: {during} Mbps"
        );
        assert!(after > 10.0, "after {after}");
        assert!(
            result.links[0].dropped_outage > 0,
            "outage must actually have black-holed packets"
        );
    }

    /// A small, fast scenario for the executor tests.
    fn tiny(seed: u64) -> Scenario {
        Scenario::new(
            seed,
            vec![LinkParams::paper_default().with_capacity(Rate::from_mbps(5.0))],
            vec![ConnSpec::bulk("reno", vec![0])],
        )
        .with_duration(SimDuration::from_secs(6), SimDuration::from_secs(1))
    }

    #[test]
    fn scheduler_override_runs_through_the_batch_with_metrics() {
        let dir = std::env::temp_dir().join(format!("mpcc-sched-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        // One BBR connection over a 10 ms and a 40 ms link (the `sched`
        // experiment's shape), once with the factory's rate-based
        // scheduler and once overridden to the default scheduler.
        let links = vec![
            LinkParams::paper_default().with_capacity(Rate::from_mbps(5.0)),
            LinkParams::paper_default()
                .with_capacity(Rate::from_mbps(5.0))
                .with_delay(SimDuration::from_millis(40)),
        ];
        let sc = |scheduler| {
            let mut sc = Scenario::new(9, links.clone(), vec![ConnSpec::bulk("bbr", vec![0, 1])])
                .with_duration(SimDuration::from_secs(6), SimDuration::from_secs(1));
            sc.conns[0].scheduler = scheduler;
            sc
        };
        assert_eq!(
            sc(SchedulerKind::paper_rate_based()).conns[0].scheduler,
            protocols::scheduler_for("bbr")
        );
        let results = Executor::new(2, None)
            .with_metrics(MetricsConfig::new(path.clone()))
            .run_batch(vec![
                sc(SchedulerKind::paper_rate_based()),
                sc(SchedulerKind::Default),
            ]);
        let sent = |r: &RunResult| r.conns[0].sent_packets;
        assert_ne!(
            sent(&results[0]),
            sent(&results[1]),
            "the scheduler override must reach the sender"
        );
        let rows = fs::read_to_string(&path).unwrap();
        for run in 0..2 {
            assert!(
                rows.lines().any(|l| l.contains(&format!("\"run\":{run}"))
                    && l.contains("\"scope\":\"subflow\"")),
                "no subflow rows for run {run}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_run_merges_before_the_next_job_starts() {
        let dir = std::env::temp_dir().join(format!("mpcc-eager-merge-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let part = |run: u64| part_path(&path, "metrics", &format!("run{run:05}"), 0);
        Executor::serial()
            .with_metrics(MetricsConfig::new(path.clone()))
            .run_jobs(vec![0u64, 1, 2], |k, ctx| {
                if k >= 1 {
                    assert!(!part(k - 1).exists(), "run {} part not merged", k - 1);
                    let merged = fs::read_to_string(&path).unwrap();
                    assert!(
                        merged
                            .lines()
                            .any(|l| l.contains(&format!("\"run\":{}", k - 1))),
                        "run {} rows missing from the merged file",
                        k - 1
                    );
                }
                let result = simulate(&tiny(k + 1), |sim| ctx.attach(sim));
                assert!(part(k).exists(), "run {k} wrote no part file");
                result
            });
        assert!(!part(2).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn map_preserves_submission_order() {
        let exec = Executor::new(4, None);
        let out = exec.map((0..100u64).collect::<Vec<_>>(), |i| i * 2);
        assert_eq!(out, (0..100u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_batch_matches_serial() {
        let mk = || (1..=4).map(tiny).collect::<Vec<_>>();
        let serial = Executor::serial().run_batch(mk());
        let par = Executor::new(4, None).run_batch(mk());
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.conns.len(), b.conns.len());
            for (ca, cb) in a.conns.iter().zip(&b.conns) {
                // Bit-identical, not approximately equal: parallelism must
                // not perturb the simulation at all.
                assert_eq!(ca.goodput_mbps.to_bits(), cb.goodput_mbps.to_bits());
                assert_eq!(ca.sent_packets, cb.sent_packets);
                assert_eq!(ca.lost_packets, cb.lost_packets);
            }
        }
    }

    #[test]
    fn seed_batches_match_serial_repetition() {
        let sc = tiny(7);
        // Hand-rolled serial repetition with the original seed schedule.
        let mut expect: Vec<Vec<f64>> = vec![Vec::new(); sc.conns.len()];
        for r in 0..3 {
            let mut sc_r = sc.clone();
            sc_r.seed = splitmix64(sc.seed ^ splitmix64(r + 1));
            let result = run(&sc_r);
            for (i, c) in result.conns.iter().enumerate() {
                expect[i].push(c.goodput_mbps);
            }
        }
        let exec = Executor::new(3, None);
        let got = run_seeds_batch(&exec, &[sc], 3);
        for (i, s) in got[0].iter().enumerate() {
            let e = Summary::of(&expect[i]);
            assert_eq!(s.mean.to_bits(), e.mean.to_bits());
        }
    }

    #[test]
    fn traced_parallel_merge_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("mpcc-exec-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mask = LayerMask::parse("transport").unwrap();
        let run_with = |jobs: usize, path: &Path| {
            let exec = Executor::new(
                jobs,
                Some(TraceConfig {
                    path: path.to_path_buf(),
                    mask,
                }),
            );
            exec.run_batch((1..=3).map(tiny).collect());
        };

        // Merged bytes are identical across worker counts.
        let j1 = dir.join("serial.jsonl");
        let j4 = dir.join("par.jsonl");
        run_with(1, &j1);
        run_with(4, &j4);
        let b1 = fs::read(&j1).unwrap();
        assert!(!b1.is_empty(), "traced runs must emit records");
        assert_eq!(b1, fs::read(&j4).unwrap());

        // Per-run files are cleaned up after the merge.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".run"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "per-run files left behind: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_alongside_trace_leave_trace_bytes_unchanged() {
        let dir = std::env::temp_dir().join(format!("mpcc-metrics-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mask = LayerMask::parse("transport").unwrap();
        // Trace alone (the pre-metrics behaviour)…
        let t_alone = dir.join("alone.jsonl");
        Executor::new(
            2,
            Some(TraceConfig {
                path: t_alone.clone(),
                mask,
            }),
        )
        .run_batch((1..=2).map(tiny).collect());
        // …vs the same batch with a metrics pipeline teed in.
        let t_teed = dir.join("teed.jsonl");
        let m_teed = dir.join("teed-metrics.jsonl");
        Executor::new(
            2,
            Some(TraceConfig {
                path: t_teed.clone(),
                mask,
            }),
        )
        .with_metrics(MetricsConfig::new(m_teed.clone()))
        .run_batch((1..=2).map(tiny).collect());
        assert_eq!(
            fs::read(&t_alone).unwrap(),
            fs::read(&t_teed).unwrap(),
            "attaching metrics must not change trace bytes"
        );
        let metrics = fs::read_to_string(&m_teed).unwrap();
        assert!(!metrics.is_empty(), "metrics stream must not be empty");
        // Rows carry executor-assigned run ids (0 then 1, in merge order).
        assert!(metrics.lines().next().unwrap().contains("\"run\":0"));
        assert!(metrics.lines().last().unwrap().contains("\"run\":1"));

        // Metrics-only executors write the same rows as the teed run, and
        // part files are cleaned up.
        let m_only = dir.join("only-metrics.jsonl");
        Executor::new(2, None)
            .with_metrics(MetricsConfig::new(m_only.clone()))
            .run_batch((1..=2).map(tiny).collect());
        assert_eq!(fs::read_to_string(&m_only).unwrap(), metrics);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".run"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "per-run files left behind: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
