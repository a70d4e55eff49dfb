//! Per-layer replays for the traced run.
//!
//! The datapath runs its layers inside single public calls, so the
//! traced run times those calls (the level-1 spans in `drive`) and then
//! replays each layer on the unit's captured payloads through the
//! layer's own public API: `DataChannel::seal_batch`/`open_batch_frames`
//! for the VPN record layer and its crypto, `Fragmenter`/`Reassembler`/
//! `Record::from_bytes` for framing, `Router::process_batch` for the
//! Click graph, and the client/server calls of set-up one by one.

use crate::drive::Spec;
use endbox::ca::CertificateAuthority;
use endbox::client::{EndBoxClient, EndBoxClientConfig};
use endbox::server::{Delivery, EndBoxServerConfig, ShardedEndBoxServer};
use endbox::EndBoxError;
use endbox_click::{ElementEnv, Router};
use endbox_crypto::schnorr::SigningKey;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::time::SharedClock;
use endbox_netsim::{Packet, PacketBatch};
use endbox_sgx::attestation::{CpuIdentity, IasSimulator};
use endbox_vpn::channel::{DataChannel, SessionKeys};
use endbox_vpn::frag::{Fragmenter, Reassembler};
use endbox_vpn::handshake::HandshakeConfig;
use endbox_vpn::shard::DispatchPolicy;
use endbox_vpn::{Record, PROTOCOL_V1, PROTOCOL_V2};
use rand::SeedableRng;
use std::time::Instant;

/// Replayed time (seconds) and work of one direction of traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct Dir {
    pub seal: f64,
    pub open: f64,
    /// `Record::to_bytes` + `Fragmenter::fragment` (sender side).
    pub split: f64,
    /// `Reassembler::push` + `Record::from_bytes` (receiver side).
    pub reasm: f64,
    pub click: f64,
    pub packets: u64,
    pub bytes: u64,
    pub records: u64,
    pub fragments: u64,
    pub click_drops: u64,
}

/// Replays the record layer, framing and Click on captured payloads.
pub struct Replayer {
    client: DataChannel,
    server: DataChannel,
    fragmenter: Fragmenter,
    reassembler: Reassembler,
    mtu: usize,
    router: Router,
    pub up: Dir,
    pub down: Dir,
}

impl Replayer {
    pub fn new(spec: &Spec, seed: u64) -> Replayer {
        let k = seed.to_le_bytes();
        let mut shared = [0u8; 32];
        shared[..8].copy_from_slice(&k);
        let keys = SessionKeys::derive(&shared, &[1; 32], &[2; 32]);
        let cost = CostModel::calibrated();
        let env = ElementEnv {
            in_enclave: true,
            hardware_mode: true,
            ..ElementEnv::default()
        };
        Replayer {
            client: DataChannel::client(&keys, spec.suite(), CycleMeter::new(), cost.clone()),
            server: DataChannel::server(&keys, spec.suite(), CycleMeter::new(), cost.clone()),
            fragmenter: Fragmenter::new(),
            reassembler: Reassembler::new(),
            mtu: cost.mtu_payload,
            router: Router::from_config(&spec.use_case.click_config(), env)
                .expect("workload Click config parses"),
            up: Dir::default(),
            down: Dir::default(),
        }
    }

    /// Replays one batch of IP packets (`packets`, as bytes) through
    /// Click, seal, fragmentation, reassembly and open, client → server
    /// when `!down`, server → client otherwise.
    pub fn batch(&mut self, packets: &[Vec<u8>], down: bool) {
        let batch = PacketBatch::from(
            packets
                .iter()
                .map(|b| Packet::from_bytes(b.clone()).expect("captured packet parses"))
                .collect::<Vec<_>>(),
        );
        let payloads: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
        let (tx, rx, dir) = if down {
            (&mut self.server, &mut self.client, &mut self.down)
        } else {
            (&mut self.client, &mut self.server, &mut self.up)
        };

        let t = Instant::now();
        let out = self.router.process_batch(batch);
        dir.click += t.elapsed().as_secs_f64();
        dir.click_drops += (packets.len() - out.accepted) as u64;
        drop(out);

        let t = Instant::now();
        let record = tx.seal_batch(1, &payloads);
        let t1 = Instant::now();
        let frags = self.fragmenter.fragment(&record.to_bytes(), self.mtu);
        let t2 = Instant::now();
        let mut reassembled = None;
        for f in &frags {
            if let Some(bytes) = self.reassembler.push(f).expect("replayed fragment") {
                reassembled = Some(Record::from_bytes(&bytes).expect("replayed record"));
            }
        }
        let t3 = Instant::now();
        let record = reassembled.expect("record reassembles");
        let frames = rx
            .open_batch_frames(&record)
            .expect("replayed record opens");
        let t4 = Instant::now();
        assert!(
            frames.iter().eq(payloads.iter().copied()),
            "replayed record round-trips"
        );

        dir.seal += (t1 - t).as_secs_f64();
        dir.split += (t2 - t1).as_secs_f64();
        dir.reasm += (t3 - t2).as_secs_f64();
        dir.open += (t4 - t3).as_secs_f64();
        dir.packets += packets.len() as u64;
        dir.bytes += packets.iter().map(|p| p.len() as u64).sum::<u64>();
        dir.records += 1;
        dir.fragments += frags.len() as u64;
    }
}

/// Per-client set-up stage times, in seconds summed over all clients.
#[derive(Debug, Default)]
pub struct SetupSplit {
    /// IAS, CA, server certificate and server threads.
    pub infra: f64,
    /// `EndBoxClient::new`: enclave creation with its Click config.
    pub enclave: f64,
    /// `EndBoxClient::enroll`: attestation and certificate.
    pub enroll: f64,
    /// `connect_start` → server `receive_datagram` → `connect_complete`.
    pub handshake: f64,
    pub clients: usize,
}

/// Replays the deployment build of `spec` through the public calls the
/// scenario builder makes, timing each stage.
///
/// # Errors
///
/// Any enrolment or handshake failure.
pub fn replay_setup(spec: &Spec, seed: u64) -> Result<SetupSplit, EndBoxError> {
    let mut split = SetupSplit {
        clients: spec.clients,
        ..SetupSplit::default()
    };
    let t = Instant::now();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let clock = SharedClock::new();
    let mut ias = IasSimulator::new(&mut rng);
    let mut ca = CertificateAuthority::new(ias.public_key(), &mut rng);
    let server_key = SigningKey::generate(&mut rng);
    let certificate =
        ca.issue_server_certificate("endbox-server", server_key.verifying_key(), 0, &mut rng);
    let mut server = ShardedEndBoxServer::with_pipeline(
        EndBoxServerConfig {
            handshake: HandshakeConfig {
                identity: server_key,
                certificate,
                ca_public: ca.public_key(),
                min_version: PROTOCOL_V1,
            },
            suite: spec.suite(),
            server_click: None,
            cost: CostModel::calibrated(),
            meter: CycleMeter::new(),
            clock: clock.clone(),
            rng_seed: seed ^ 0x5e44e,
        },
        1,
        DispatchPolicy::Static,
        1,
    )?;
    split.infra = t.elapsed().as_secs_f64();

    let click = spec.use_case.click_config();
    for i in 0..spec.clients {
        let mut cpu_seed = [0u8; 32];
        cpu_seed[..8].copy_from_slice(&(seed ^ i as u64).to_be_bytes());
        cpu_seed[8] = 0xcc;
        let cpu = CpuIdentity::from_seed(cpu_seed);
        ias.register_platform(cpu.attestation_public());
        let subject = format!("endbox-client-{i}");
        let mut cfg = EndBoxClientConfig::new(&subject, ca.public_key(), cpu);
        cfg.suite = spec.suite();
        cfg.click_config = Some(click.clone());
        cfg.offered_version = PROTOCOL_V2;
        cfg.clock = clock.clone();
        cfg.rng_seed = seed ^ (i as u64) << 8;

        let t = Instant::now();
        let mut client = EndBoxClient::new(cfg)?;
        split.enclave += t.elapsed().as_secs_f64();
        if i == 0 {
            ca.allow_measurement(client.enclave_app().measurement());
        }

        let t = Instant::now();
        client.enroll(&subject, &mut ca, &ias, &mut rng)?;
        split.enroll += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut response = None;
        for frag in client.connect_start()? {
            if let Delivery::Established { response: r, .. } =
                server.receive_datagram(i as u64, &frag)?
            {
                response = Some(r);
            }
        }
        for frag in response.ok_or(EndBoxError::NotReady("handshake did not complete"))? {
            client.connect_complete(&frag)?;
        }
        split.handshake += t.elapsed().as_secs_f64();
    }
    Ok(split)
}
