//! Wall-clock benchmark of the EndBox datapath.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <upload_bulk|upload_small|fetch_idps> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real `ShardedScenario` (1 RX shard, 1 worker, static
//! dispatch) in a closed loop from this single thread, checks every
//! delivered byte, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Traffic stays
//! in process; see `README.md` for the workloads and the metric map.

mod drive;
mod gen;
mod host;
mod layers;

use drive::{Doorway, Outcome, Shape, Spans, Spec, Unit};
use endbox::scenario::ShardedScenario;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// An untraced run builds the deployment at least this many times and
/// for at least `SETUP_MIN_SECONDS`; `setup_s` is the median build.
const SETUP_REPEATS: usize = 9;
const SETUP_MIN_SECONDS: f64 = 1.5;
/// Latency samples per measured segment: a segment's p99 then has at
/// least ten samples beyond it.
const SEGMENT_SAMPLES: usize = 1000;
/// Segments in which the hypervisor stole more than this share of host
/// CPU time are left out, unless that would leave fewer than half.
const STEAL_LIMIT: f64 = 0.02;
/// Traced upload runs add this long a downstream probe (request up,
/// workload-shaped response down) so every per-layer metric is measured
/// on every workload.
const PROBE_SECONDS: f64 = 2.0;
/// Level-1 spans must sum to the untraced unit time within this share.
const RECONCILE_TOLERANCE: f64 = 0.10;
/// A replayed child may exceed its parent span by at most this share.
const CHILD_TOLERANCE: f64 = 0.10;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&workload).ok_or(format!(
        "unknown workload {workload} (known: {})",
        drive::WORKLOADS.map(|s| s.name).join(", ")
    ))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} (server: 1 RX shard, 1 worker, static dispatch; closed loop from one thread)",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host::metadata());
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(r) => {
            println!("{}", r.to_json());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: FAILED: {} of {} units delivered wrong bytes, order or verdicts",
                    r.failed, r.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The final stdout line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// A run whose oracle found a wrong delivery: no metrics are reported.
    fn failed(totals: &Totals) -> Report {
        Report {
            correct: false,
            attempted: totals.units,
            failed: totals.failed,
            metrics: Vec::new(),
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Totals of the units run so far.
#[derive(Default)]
struct Totals {
    units: u64,
    failed: u64,
}

impl Totals {
    fn add(&mut self, o: &Outcome) {
        self.units += o.units;
        self.failed += o.failed;
    }
}

/// Runs the workload's unmeasured warm-up units (the first seconds of a
/// process read several percent slow: page faults, pool growth, branch
/// warm-up); stops early on a failure.
fn warm_up(
    s: &mut ShardedScenario,
    spec: &Spec,
    g: &mut gen::Generator,
    n: &mut u64,
    totals: &mut Totals,
) {
    while *n < spec.warmup_units && totals.failed == 0 {
        let unit = Unit::generate(spec, g, *n);
        *n += 1;
        totals.add(&drive::run(s, spec, unit, false));
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured segment of an untraced run.
#[derive(Default)]
struct Segment {
    /// Timed-section wall time, seconds.
    wall: f64,
    cpu: f64,
    packets: u64,
    bytes: u64,
    /// Unit latencies, microseconds.
    latencies: Vec<f64>,
    /// Share of host CPU time the hypervisor stole during the segment.
    steal: f64,
}

impl Segment {
    fn add(&mut self, o: &Outcome) {
        self.wall += o.wall.as_secs_f64();
        self.cpu += o.cpu;
        self.packets += o.packets;
        self.bytes += o.payload_bytes;
        self.latencies.extend(o.latencies.iter().map(|l| l * 1e6));
    }

    /// Nearest-rank percentile of the segment's latencies.
    fn percentile(&mut self, p: f64) -> f64 {
        self.latencies.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * self.latencies.len() as f64).ceil() as usize;
        self.latencies[rank.clamp(1, self.latencies.len()) - 1]
    }
}

fn untraced(a: &Args) -> Result<Report, String> {
    let spec = &a.spec;
    let mut setups = Vec::new();
    let mut deployment = None;
    let start = Instant::now();
    while setups.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        drop(deployment.take());
        let t = Instant::now();
        let built = spec.build(a.seed).map_err(|e| format!("set-up: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        deployment = Some(built);
    }
    let mut s = deployment.expect("at least one set-up");
    let setup_s = median(&mut setups);

    let mut g = gen::Generator::new(a.seed, spec.clients);
    let mut n = 0u64;
    let mut totals = Totals::default();
    warm_up(&mut s, spec, &mut g, &mut n, &mut totals);
    // Taken after a fixed amount of traffic: the receive pools grow with
    // every record served, so a reading at the end of a timed window
    // would scale with host speed.
    let peak_rss_mb = host::peak_rss_mb();

    // The window is cut into segments of SEGMENT_SAMPLES latency samples
    // each; every metric is the median over segments, so a burst of host
    // interference moves a few segments rather than the result. Segments
    // the hypervisor stole CPU time from are left out (see STEAL_LIMIT).
    let mut segments: Vec<Segment> = Vec::new();
    let mut seg = Segment::default();
    let (mut units, mut gen_secs) = (0u64, 0.0);
    let start = Instant::now();
    let window_ticks = host::cpu_ticks();
    let mut ticks = window_ticks;
    while start.elapsed().as_secs_f64() < a.seconds && totals.failed == 0 {
        let t = Instant::now();
        let unit = Unit::generate(spec, &mut g, n);
        gen_secs += t.elapsed().as_secs_f64();
        n += 1;
        let o = drive::run(&mut s, spec, unit, false);
        totals.add(&o);
        units += 1;
        seg.add(&o);
        if seg.latencies.len() >= SEGMENT_SAMPLES {
            let now = host::cpu_ticks();
            seg.steal = host::steal_share(ticks, now);
            ticks = now;
            segments.push(std::mem::take(&mut seg));
        }
    }
    let loop_secs = start.elapsed().as_secs_f64();
    let window_steal = host::steal_share(window_ticks, host::cpu_ticks());
    if totals.failed > 0 {
        return Ok(Report::failed(&totals));
    }
    if segments.is_empty() {
        return Err("the measured window holds no complete segment".into());
    }
    let n_segments = segments.len();
    segments.sort_by(|x, y| x.steal.total_cmp(&y.steal));
    let clean = segments.iter().filter(|x| x.steal <= STEAL_LIMIT).count();
    segments.truncate(clean.max(n_segments.div_ceil(2)));
    let mut med =
        |f: fn(&mut Segment) -> f64| median(&mut segments.iter_mut().map(f).collect::<Vec<_>>());

    let metrics = vec![
        (
            "goodput_gbps",
            med(|s| s.bytes as f64 * 8.0 / s.wall / 1e9),
            "Gbit/s",
        ),
        ("mpps", med(|s| s.packets as f64 / s.wall / 1e6), "Mpps"),
        ("latency_p50_us", med(|s| s.percentile(50.0)), "us"),
        ("latency_p99_us", med(|s| s.percentile(99.0)), "us"),
        (
            "cpu_us_per_pkt",
            med(|s| s.cpu / s.packets as f64 * 1e6),
            "us",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("setup_s", setup_s, "s"),
    ];
    let timed: f64 = segments.iter().map(|s| s.wall).sum();
    let kept_samples: usize = segments.iter().map(|s| s.latencies.len()).sum();
    println!(
        "measured: {units} units in {loop_secs:.3} s; generator {gen_secs:.3} s ({:.1}%, outside the timed sections)",
        100.0 * gen_secs / loop_secs
    );
    println!(
        "host steal: {:.1}% of host CPU time in the window; metrics are medians over {} of {n_segments} segments (steal <= {:.0}%, else the least-stolen half): {timed:.3} s timed, {kept_samples} latency samples, {SEGMENT_SAMPLES}+ per segment, one per {}",
        window_steal * 100.0,
        segments.len(),
        STEAL_LIMIT * 100.0,
        match spec.shape {
            Shape::Upload { .. } => "client batch",
            Shape::Fetch { .. } => "exchange",
        }
    );
    println!(
        "peak_rss_mb is read after {} warm-up units; {:.1} MiB at the end of the window",
        spec.warmup_units,
        host::peak_rss_mb()
    );
    let error_rate = totals.failed as f64 / totals.units.max(1) as f64;
    println!(
        "setup_s: median of {} builds, min {:.4} s, max {:.4} s",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
    );
    for (name, value, unit) in &metrics {
        println!("e2e {name} = {value:.4} {unit}");
    }
    println!(
        "e2e error_rate = {error_rate} ({} failed of {} units)",
        totals.failed, totals.units
    );
    Ok(Report {
        correct: true,
        attempted: totals.units,
        failed: 0,
        metrics,
    })
}

/// Counters read from the deployment at the start and end of a phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    ecalls: u64,
    fe_wakeups: u64,
    fe_datagrams: u64,
    fe_io_calls: u64,
    tx_sent: u64,
    tx_io_calls: u64,
    egress_reused: u64,
    egress_fresh: u64,
    ingress_reused: u64,
    ingress_fresh: u64,
}

impl Counters {
    fn read(s: &mut ShardedScenario, doorway: Doorway) -> Counters {
        let mut c = Counters {
            ecalls: s
                .clients
                .iter_mut()
                .map(|cl| cl.enclave_app().transition_counters().ecalls)
                .sum(),
            ..Counters::default()
        };
        if doorway == Doorway::Event {
            let fe = s.async_stats();
            let tx = s.tx_stats();
            c.fe_wakeups = fe.wakeups;
            c.fe_datagrams = fe.datagrams;
            c.fe_io_calls = fe.io_calls;
            c.tx_sent = tx.sent;
            c.tx_io_calls = tx.io_calls;
        }
        let eg = s.egress_pool_stats();
        c.egress_reused = eg.reused;
        c.egress_fresh = eg.fresh_allocs;
        // Read after the ecall count: this read is an ecall itself.
        for cl in &mut s.clients {
            let st = cl.ingress_pool_stats();
            c.ingress_reused += st.reused;
            c.ingress_fresh += st.fresh_allocs;
        }
        c
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Packet bytes of each batch of a unit.
type Captured = Vec<Vec<Vec<u8>>>;

/// The captured packet bytes of a unit, for the layer replays:
/// (upstream batches, downstream batches).
fn capture(unit: &Unit) -> (Captured, Captured) {
    match unit {
        Unit::Upload(batches) => (
            batches.iter().map(|b| b.expected.clone()).collect(),
            Vec::new(),
        ),
        Unit::Fetch(x) => {
            let (up, down) = capture_exchange(x);
            (vec![up], vec![down])
        }
    }
}

/// (request, response) packet bytes of an exchange.
fn capture_exchange(x: &gen::Exchange) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    (
        vec![x.request_bytes.clone()],
        x.response.iter().map(|p| p.bytes().to_vec()).collect(),
    )
}

fn traced(a: &Args) -> Result<Report, String> {
    let spec = &a.spec;
    let t = Instant::now();
    let mut s = spec.build(a.seed).map_err(|e| format!("set-up: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    let mut g = gen::Generator::new(a.seed, spec.clients);
    let mut n = 0u64;
    let mut totals = Totals::default();
    warm_up(&mut s, spec, &mut g, &mut n, &mut totals);

    // Main loop: untraced and traced units alternate, so both see the
    // same host state; each traced unit is followed by its layer replays.
    let mut replay = layers::Replayer::new(spec, a.seed);
    let before = Counters::read(&mut s, spec.doorway);
    let mut spans = Spans::default();
    let (mut up_pkts, mut down_pkts, mut requests, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let (mut traced_wall, mut traced_n) = (0.0, 0u64);
    let (mut plain_wall, mut plain_n) = (0.0, 0u64);
    let window_ticks = host::cpu_ticks();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < a.seconds && totals.failed == 0 {
        let unit = Unit::generate(spec, &mut g, n);
        n += 1;
        batches += unit.batches();
        if n % 2 == 1 {
            let o = drive::run(&mut s, spec, unit, false);
            totals.add(&o);
            plain_wall += o.wall.as_secs_f64();
            plain_n += 1;
            continue;
        }
        let (up, down) = capture(&unit);
        let o = drive::run(&mut s, spec, unit, true);
        totals.add(&o);
        traced_wall += o.wall.as_secs_f64();
        traced_n += 1;
        spans.add(&o.spans);
        up_pkts += up.iter().map(|b| b.len() as u64).sum::<u64>();
        down_pkts += down.iter().map(|b| b.len() as u64).sum::<u64>();
        requests += u64::from(!down.is_empty());
        for b in &up {
            replay.batch(b, false);
        }
        for b in &down {
            replay.batch(b, true);
        }
    }
    println!(
        "host steal: {:.1}% of host CPU time in the main loop",
        host::steal_share(window_ticks, host::cpu_ticks()) * 100.0
    );
    let after_main = Counters::read(&mut s, spec.doorway);

    // Downstream probe on upload workloads: the exchange code of
    // fetch_idps with workload-shaped responses, every exchange traced.
    // On fetch_idps the main loop already carries the downstream path.
    let (down_spans, down_pkts, requests) = match spec.shape {
        Shape::Fetch { .. } => (spans, down_pkts, requests),
        Shape::Upload { packets, payload } => {
            let mut probe = Spans::default();
            let (mut probe_pkts, mut k) = (0u64, 0usize);
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < PROBE_SECONDS && totals.failed == 0 {
                let x = g.exchange(
                    k % spec.clients,
                    drive::REQUEST_PAYLOAD,
                    packets,
                    payload,
                    false,
                );
                k += 1;
                let (_, down) = capture_exchange(&x);
                let o = drive::exchange(&mut s, spec.doorway, x, true);
                totals.add(&o);
                probe.add(&o.spans);
                probe_pkts += down.len() as u64;
                replay.batch(&down, true);
            }
            (probe, probe_pkts, k as u64)
        }
    };
    if totals.failed > 0 {
        return Ok(Report::failed(&totals));
    }
    let after = Counters::read(&mut s, spec.doorway);
    drop(s);
    let setup = layers::replay_setup(spec, a.seed).map_err(|e| format!("set-up replay: {e}"))?;

    let us = 1e6;
    let (up, down) = (replay.up, replay.down);
    let all = |f: fn(&layers::Dir) -> f64| f(&up) + f(&down);
    let sealed_pkts = (up.packets + down.packets) as f64;
    let client_egress = spans.client_egress * us / up_pkts as f64;
    let server_ingress = spans.server_ingress * us / up_pkts as f64;
    let client_ingress = down_spans.client_ingress * us / down_pkts as f64;
    let server_egress = down_spans.server_egress * us / down_pkts as f64;
    let per_pkt = |secs: f64, d: &layers::Dir| secs * us / d.packets as f64;
    let residue = server_ingress - per_pkt(up.reasm + up.open, &up);
    let plain_unit = plain_wall / plain_n as f64;
    let traced_unit = traced_wall / traced_n as f64;
    let level1_unit = spans.level1() / traced_n as f64;
    let d = |f: fn(&Counters) -> u64, from: &Counters, to: &Counters| (f(to) - f(from)) as f64;
    let mib = 1024.0 * 1024.0;

    let metrics = vec![
        ("client.egress_us_per_pkt", client_egress, "us"),
        ("client.ingress_us_per_pkt", client_ingress, "us"),
        ("server.ingress_us_per_pkt", server_ingress, "us"),
        ("server.egress_us_per_pkt", server_egress, "us"),
        ("server.residue_us_per_pkt", residue, "us"),
        (
            "fetch.request_us",
            down_spans.request * us / requests as f64,
            "us",
        ),
        (
            "frontend.datagrams_per_io_call",
            ratio(
                d(|c| c.fe_datagrams, &before, &after_main),
                d(|c| c.fe_io_calls, &before, &after_main),
            ),
            "count",
        ),
        (
            "frontend.wakeups_per_datagram",
            ratio(
                d(|c| c.fe_wakeups, &before, &after_main),
                d(|c| c.fe_datagrams, &before, &after_main),
            ),
            "ratio",
        ),
        (
            "tx.datagrams_per_io_call",
            ratio(
                d(|c| c.tx_sent, &before, &after),
                d(|c| c.tx_io_calls, &before, &after),
            ),
            "count",
        ),
        (
            "vpn.seal_us_per_pkt",
            all(|x| x.seal) * us / sealed_pkts,
            "us",
        ),
        (
            "vpn.open_us_per_pkt",
            all(|x| x.open) * us / sealed_pkts,
            "us",
        ),
        (
            "crypto.seal_mib_s",
            all(|x| x.bytes as f64) / mib / all(|x| x.seal),
            "MiB/s",
        ),
        (
            "crypto.open_mib_s",
            all(|x| x.bytes as f64) / mib / all(|x| x.open),
            "MiB/s",
        ),
        (
            "click.us_per_pkt",
            all(|x| x.click) * us / sealed_pkts,
            "us",
        ),
        (
            "click.drop_ratio",
            all(|x| x.click_drops as f64) / sealed_pkts,
            "ratio",
        ),
        (
            "frag.fragments_per_record",
            all(|x| x.fragments as f64) / all(|x| x.records as f64),
            "count",
        ),
        (
            "frag.us_per_record",
            (all(|x| x.split) + all(|x| x.reasm)) * us / all(|x| x.records as f64),
            "us",
        ),
        (
            "pool.egress_reuse_ratio",
            ratio(
                d(|c| c.egress_reused, &before, &after),
                d(|c| c.egress_reused + c.egress_fresh, &before, &after),
            ),
            "ratio",
        ),
        (
            "pool.client_ingress_reuse_ratio",
            ratio(
                d(|c| c.ingress_reused, &before, &after),
                d(|c| c.ingress_reused + c.ingress_fresh, &before, &after),
            ),
            "ratio",
        ),
        (
            "sgx.ecalls_per_batch",
            // Less the ingress-pool reads of `before`: one ecall per client.
            ratio(
                d(|c| c.ecalls, &before, &after_main) - spec.clients as f64,
                batches as f64,
            ),
            "count",
        ),
        (
            "setup.enclave_ms_per_client",
            setup.enclave * 1e3 / setup.clients as f64,
            "ms",
        ),
        (
            "setup.enroll_ms_per_client",
            setup.enroll * 1e3 / setup.clients as f64,
            "ms",
        ),
        (
            "setup.handshake_ms_per_client",
            setup.handshake * 1e3 / setup.clients as f64,
            "ms",
        ),
        (
            "trace.overhead_pct",
            (traced_unit - plain_unit) / plain_unit * 100.0,
            "%",
        ),
        (
            "trace.unattributed_pct",
            (traced_unit - level1_unit) / traced_unit * 100.0,
            "%",
        ),
    ];

    // Reconciliation: level-1 spans against the untraced unit time, and
    // every replayed child against its parent span (per packet).
    println!(
        "trace: {traced_n} traced and {plain_n} untraced units alternated; unit time {:.1} us untraced, {:.1} us traced",
        plain_unit * us,
        traced_unit * us
    );
    let mut reconciled = true;
    let rel = (level1_unit - plain_unit) / plain_unit;
    let ok = rel.abs() <= RECONCILE_TOLERANCE;
    reconciled &= ok;
    println!(
        "reconcile level-1 (client + server spans) {:.1} us vs untraced unit {:.1} us: residue {:+.1} us ({:+.2}%, tolerance {:.0}%) {}",
        level1_unit * us,
        plain_unit * us,
        (plain_unit - level1_unit) * us,
        rel * 100.0,
        RECONCILE_TOLERANCE * 100.0,
        if ok { "OK" } else { "FAIL" }
    );
    let children = [
        (
            "client.egress",
            client_egress,
            per_pkt(up.click + up.seal + up.split, &up),
            "click+seal+fragment",
        ),
        (
            "server.ingress",
            server_ingress,
            per_pkt(up.reasm + up.open, &up),
            "reassembly+open",
        ),
        (
            "server.egress",
            server_egress,
            per_pkt(down.seal + down.split, &down),
            "seal+fragment",
        ),
        (
            "client.ingress",
            client_ingress,
            per_pkt(down.reasm + down.open + down.click, &down),
            "reassembly+open+click",
        ),
    ];
    for (parent, p, c, what) in children {
        let ok = c <= p * (1.0 + CHILD_TOLERANCE);
        reconciled &= ok;
        println!(
            "reconcile {parent} {p:.3} us/pkt >= replayed {what} {c:.3} us/pkt: residue {:+.3} us/pkt {}",
            p - c,
            if ok { "OK" } else { "FAIL" }
        );
    }
    let replayed_setup = setup.infra + setup.enclave + setup.enroll + setup.handshake;
    println!(
        "set-up: built in {build_s:.4} s; replayed stages sum to {replayed_setup:.4} s (infra {:.4} s + per-client stages)",
        setup.infra
    );
    for (name, value, unit) in &metrics {
        println!("layer {name} = {value:.4} {unit}");
    }
    println!("reconciliation: {}", if reconciled { "OK" } else { "FAIL" });
    Ok(Report {
        correct: true,
        attempted: totals.units,
        failed: 0,
        metrics,
    })
}
