//! Workload specifications and the closed-loop unit drivers over the
//! real `ShardedScenario` datapath.
//!
//! A *unit* is what one latency sample covers: one round of upload
//! batches (one batch per client, all delivered by one server call) or
//! one request/response exchange. Units take milliseconds on purpose:
//! microsecond units were dominated by cross-thread wake-ups and did not
//! repeat between runs.

use crate::gen::{self, Batch, Exchange};
use endbox::scenario::{Scenario, ShardedScenario};
use endbox::server::Delivery;
use endbox::use_cases::UseCase;
use endbox::EndBoxError;
use endbox_netsim::Packet;
use endbox_vpn::channel::CipherSuite;
use endbox_vpn::shard::DispatchPolicy;
use std::time::{Duration, Instant};

/// Per-datagram server results, tagged with the sending peer.
type Results = Vec<(u64, Result<Delivery, EndBoxError>)>;

/// How datagrams reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doorway {
    /// `ShardedEndBoxServer::receive_datagrams`, called directly.
    Call,
    /// `VirtualWire` sockets drained by `AsyncFrontEnd` (`recv_many`).
    Event,
}

/// What one unit of the workload is.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Every client sends one batch; one server call delivers them all.
    Upload { packets: usize, payload: usize },
    /// One client (in rotation) sends a request and receives a response
    /// batch; one exchange outstanding at a time.
    Fetch {
        request: usize,
        packets: usize,
        payload: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Unmeasured units before timing: a fixed amount of work (about 2 s
    /// on an idle 2-core host), so memory after warm-up does not depend
    /// on host speed.
    pub warmup_units: u64,
    pub enterprise: bool,
    pub use_case: UseCase,
    pub clients: usize,
    pub doorway: Doorway,
    pub shape: Shape,
}

/// Request size of the fetch exchange and of the downstream probe.
pub const REQUEST_PAYLOAD: usize = 200;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "upload_bulk",
        warmup_units: 200,
        enterprise: true,
        use_case: UseCase::Firewall,
        clients: 16,
        doorway: Doorway::Call,
        shape: Shape::Upload {
            packets: 8,
            payload: 1400,
        },
    },
    Spec {
        name: "upload_small",
        warmup_units: 350,
        enterprise: false,
        use_case: UseCase::Firewall,
        clients: 64,
        doorway: Doorway::Event,
        // 20 B IPv4 + 20 B TCP + 24 B payload = 64-byte packets.
        shape: Shape::Upload {
            packets: 32,
            payload: 24,
        },
    },
    Spec {
        name: "fetch_idps",
        warmup_units: 1100,
        enterprise: true,
        use_case: UseCase::Idps,
        clients: 16,
        doorway: Doorway::Event,
        shape: Shape::Fetch {
            request: REQUEST_PAYLOAD,
            packets: 16,
            payload: 1400,
        },
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    pub fn suite(&self) -> CipherSuite {
        if self.enterprise {
            CipherSuite::Aes128CbcHmac
        } else {
            CipherSuite::IntegrityOnly
        }
    }

    /// Builds the deployment: IAS/CA, server with 1 RX shard and 1 worker
    /// under static dispatch, every client's enclave, enrolment,
    /// attestation and handshake.
    ///
    /// # Errors
    ///
    /// Any enrolment or handshake failure.
    pub fn build(&self, seed: u64) -> Result<ShardedScenario, EndBoxError> {
        let builder = if self.enterprise {
            Scenario::enterprise(self.clients, self.use_case)
        } else {
            Scenario::isp(self.clients, self.use_case)
        };
        builder
            .seed(seed)
            .rx_shards(1)
            .dispatch(DispatchPolicy::Static)
            .async_ingress(self.doorway == Doorway::Event)
            .build_sharded(1)
    }
}

/// A unit's inputs, built before its timed section.
#[derive(Debug)]
pub enum Unit {
    Upload(Vec<Batch>),
    Fetch(Exchange),
}

impl Unit {
    /// Records the unit seals: one per upload batch, request + response
    /// for an exchange.
    pub fn batches(&self) -> u64 {
        match self {
            Unit::Upload(b) => b.len() as u64,
            Unit::Fetch(_) => 2,
        }
    }

    /// Builds unit number `n` of `spec`.
    pub fn generate(spec: &Spec, g: &mut gen::Generator, n: u64) -> Unit {
        match spec.shape {
            Shape::Upload { packets, payload } => Unit::Upload(
                (0..spec.clients)
                    .map(|c| g.batch(c, packets, payload))
                    .collect(),
            ),
            Shape::Fetch {
                request,
                packets,
                payload,
            } => Unit::Fetch(g.exchange(
                (n % spec.clients as u64) as usize,
                request,
                packets,
                payload,
                true,
            )),
        }
    }
}

/// Level-1 span times of one unit, in seconds (zero on untraced units).
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    pub client_egress: f64,
    pub server_ingress: f64,
    pub server_egress: f64,
    pub client_ingress: f64,
    /// Client `send_batch` start to the server call's return, fetch only.
    pub request: f64,
}

impl Spans {
    pub fn level1(&self) -> f64 {
        self.client_egress + self.server_ingress + self.server_egress + self.client_ingress
    }

    pub fn add(&mut self, o: &Spans) {
        self.client_egress += o.client_egress;
        self.server_ingress += o.server_ingress;
        self.server_egress += o.server_egress;
        self.client_ingress += o.client_ingress;
        self.request += o.request;
    }
}

/// What a unit did, for the oracle and the metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of the timed section.
    pub wall: Duration,
    /// Process CPU time (all threads) of the timed section.
    pub cpu: f64,
    /// One latency per batch (upload) or per exchange (fetch), seconds.
    pub latencies: Vec<f64>,
    pub spans: Spans,
    pub units: u64,
    pub failed: u64,
    pub packets: u64,
    pub payload_bytes: u64,
}

fn elapsed(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Ships `sealed` datagrams of `peer` through the server doorway and
/// returns the per-datagram results.
fn ingress(s: &mut ShardedScenario, doorway: Doorway, peer: u64, sealed: Vec<Vec<u8>>) -> Results {
    match doorway {
        Doorway::Call => {
            let dgrams = sealed.into_iter().map(|d| (peer, d)).collect();
            s.server
                .receive_datagrams(dgrams)
                .into_iter()
                .map(|r| (peer, r))
                .collect()
        }
        Doorway::Event => {
            s.send_wire_datagrams(peer, sealed);
            s.pump_async()
        }
    }
}

/// Runs one upload round. `trace` adds the level-1 spans.
fn upload(s: &mut ShardedScenario, doorway: Doorway, batches: Vec<Batch>, trace: bool) -> Outcome {
    let mut spans = Spans::default();
    let mut starts = Vec::with_capacity(batches.len());
    let mut expected = Vec::with_capacity(batches.len());
    let mut failed_send = false;
    let cpu0 = crate::host::process_cpu_secs();
    let begin = Instant::now();
    let mut call_dgrams: Vec<(u64, Vec<u8>)> = Vec::new();
    for b in batches {
        let t = Instant::now();
        starts.push(t);
        let peer = b.client as u64;
        let sealed = s.clients[b.client].send_batch(b.packets);
        if trace {
            spans.client_egress += elapsed(t);
        }
        expected.push((b.client, b.expected));
        let sealed = match sealed {
            Ok(d) => d,
            Err(e) => {
                eprintln!("oracle: client {}: send_batch failed: {e}", b.client);
                failed_send = true;
                break;
            }
        };
        match doorway {
            Doorway::Call => call_dgrams.extend(sealed.into_iter().map(|d| (peer, d))),
            Doorway::Event => {
                let t = Instant::now();
                s.send_wire_datagrams(peer, sealed);
                if trace {
                    spans.server_ingress += elapsed(t);
                }
            }
        }
    }
    let t = Instant::now();
    let results: Results = match doorway {
        Doorway::Call => {
            let peers: Vec<u64> = call_dgrams.iter().map(|(p, _)| *p).collect();
            peers
                .into_iter()
                .zip(s.server.receive_datagrams(call_dgrams))
                .collect()
        }
        Doorway::Event => s.pump_async(),
    };
    let end = Instant::now();
    let cpu = crate::host::process_cpu_secs() - cpu0;
    if trace {
        spans.server_ingress += (end - t).as_secs_f64();
    }
    let latencies = starts.iter().map(|&t| (end - t).as_secs_f64()).collect();

    let units = expected.len() as u64;
    let mut failed = if failed_send { units } else { 0 };
    let mut packets = 0;
    let mut payload_bytes = 0;
    let mut by_peer = gen::delivered_by_peer(results);
    for (client, want) in &expected {
        match by_peer.remove(&(*client as u64)).flatten() {
            Some(got) if gen::matches(&got, want) => {
                packets += want.len() as u64;
                payload_bytes += gen::payload_bytes(want);
            }
            _ => {
                if !failed_send {
                    eprintln!("oracle: client {client}: delivered bytes or order differ");
                    failed += 1;
                }
            }
        }
    }
    Outcome {
        wall: end - begin,
        cpu,
        latencies,
        spans,
        units,
        failed,
        packets,
        payload_bytes,
    }
}

/// Runs one request/response exchange. `trace` adds the level-1 spans.
pub fn exchange(s: &mut ShardedScenario, doorway: Doorway, x: Exchange, trace: bool) -> Outcome {
    let mut spans = Spans::default();
    let peer = x.client as u64;
    let session = s.session_id(x.client);
    let cpu0 = crate::host::process_cpu_secs();
    let begin = Instant::now();
    let result: Result<(Results, Vec<Packet>), EndBoxError> = (|| {
        let sealed = s.clients[x.client].send_batch(vec![x.request])?;
        let t = Instant::now();
        if trace {
            spans.client_egress = (t - begin).as_secs_f64();
        }
        let req = ingress(s, doorway, peer, sealed);
        let t = Instant::now();
        if trace {
            spans.request = (t - begin).as_secs_f64();
            spans.server_ingress = spans.request - spans.client_egress;
        }
        let dgrams = match doorway {
            Doorway::Event => s.egress_batch_to_client(x.client, &x.response)?,
            Doorway::Call => s.server.send_batch_to_client(session, &x.response)?,
        };
        let t2 = Instant::now();
        if trace {
            spans.server_egress = (t2 - t).as_secs_f64();
        }
        let mut delivered = Vec::with_capacity(x.response.len());
        for d in &dgrams {
            delivered.extend(s.clients[x.client].receive_datagram_batch(d)?);
        }
        if trace {
            spans.client_ingress = elapsed(t2);
        }
        Ok((req, delivered))
    })();
    let end = Instant::now();
    let cpu = crate::host::process_cpu_secs() - cpu0;

    let ok = match result {
        Err(e) => {
            eprintln!("oracle: exchange of client {}: {e}", x.client);
            false
        }
        Ok((req, delivered)) => {
            let req_ok = matches!(
                gen::delivered_by_peer(req).remove(&peer).flatten(),
                Some(got) if gen::matches(&got, std::slice::from_ref(&x.request_bytes))
            );
            let resp_ok = gen::matches(&delivered, &x.expected);
            if !req_ok {
                eprintln!("oracle: client {}: request bytes differ", x.client);
            }
            if !resp_ok {
                eprintln!(
                    "oracle: client {}: response bytes, order or IDS verdicts differ",
                    x.client
                );
            }
            req_ok && resp_ok
        }
    };
    let (packets, payload_bytes) = if ok {
        (
            1 + x.expected.len() as u64,
            gen::payload_bytes(std::slice::from_ref(&x.request_bytes))
                + gen::payload_bytes(&x.expected),
        )
    } else {
        (0, 0)
    };
    Outcome {
        wall: end - begin,
        cpu,
        latencies: vec![(end - begin).as_secs_f64()],
        spans,
        units: 1,
        failed: u64::from(!ok),
        packets,
        payload_bytes,
    }
}

/// Runs one unit of `spec`.
pub fn run(s: &mut ShardedScenario, spec: &Spec, unit: Unit, trace: bool) -> Outcome {
    match unit {
        Unit::Upload(batches) => upload(s, spec.doorway, batches, trace),
        Unit::Fetch(x) => exchange(s, spec.doorway, x, trace),
    }
}
