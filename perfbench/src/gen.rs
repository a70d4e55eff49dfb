//! Seeded input generation and the correctness oracle.
//!
//! Every payload is lowercase ASCII, so no benign packet can match a
//! rule of the synthetic community set (every rule content starts with
//! `EB-`). Each payload opens with a 7-letter encoding of the sending
//! client's sequence number, which makes every packet of a run unique
//! and lets the oracle check per-client order, not just the byte multiset.

use endbox::scenario::Scenario;
use endbox::server::Delivery;
use endbox::EndBoxError;
use endbox_netsim::Packet;
use std::collections::HashMap;

/// Drop rules of the synthetic community set that match TCP on any port
/// (`i % 11 == 0` selects `drop`, `i % 4 == 0 | 2` selects TCP,
/// `i % 5 == 2` selects any port). Rule 242 needs two contents.
pub const SIGNATURE_RULES: [usize; 4] = [22, 132, 242, 352];

/// Server-side TCP port of every flow.
const SERVER_PORT: u16 = 5_001;

/// Letters of the per-client sequence tag that opens every payload.
const TAG_LEN: usize = 7;

/// splitmix64: small, fast and fully determined by the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fills `buf` with lowercase letters, eight per draw.
    fn fill_lower(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let r = self.next_u64();
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = b'a' + ((r >> (i * 8)) & 0xff) as u8 % 26;
            }
        }
    }
}

/// One client's upload batch, with the bytes the server must deliver.
#[derive(Debug)]
pub struct Batch {
    pub client: usize,
    pub packets: Vec<Packet>,
    pub expected: Vec<Vec<u8>>,
}

/// One request/response exchange of one client.
#[derive(Debug)]
pub struct Exchange {
    pub client: usize,
    pub request: Packet,
    pub request_bytes: Vec<u8>,
    pub response: Vec<Packet>,
    /// Bytes of the response packets the client IDS must let through, in
    /// order (the signature-bearing ones are absent).
    pub expected: Vec<Vec<u8>>,
}

/// Deterministic traffic source for one run.
#[derive(Debug)]
pub struct Generator {
    rng: Rng,
    seq: Vec<u32>,
}

impl Generator {
    pub fn new(seed: u64, clients: usize) -> Generator {
        Generator {
            rng: Rng::new(seed),
            seq: vec![0; clients],
        }
    }

    /// A fresh payload of `len` bytes for `client`: sequence tag, then
    /// seeded lowercase filler.
    fn payload(&mut self, client: usize, len: usize) -> Vec<u8> {
        assert!(len >= TAG_LEN, "payload holds at least the sequence tag");
        let seq = self.seq[client];
        self.seq[client] = seq.wrapping_add(1);
        let mut p = vec![0u8; len];
        let mut n = seq;
        for b in &mut p[..TAG_LEN] {
            *b = b'a' + (n % 26) as u8;
            n /= 26;
        }
        self.rng.fill_lower(&mut p[TAG_LEN..]);
        p
    }

    /// Client → network packet.
    fn upstream(&mut self, client: usize, len: usize) -> Packet {
        let seq = self.seq[client];
        let payload = self.payload(client, len);
        Packet::tcp(
            Scenario::client_addr(client),
            Scenario::network_addr(),
            40_000 + client as u16,
            SERVER_PORT,
            seq,
            &payload,
        )
    }

    /// Network → client packet carrying `payload`.
    fn downstream(client: usize, seq: u32, payload: &[u8]) -> Packet {
        Packet::tcp(
            Scenario::network_addr(),
            Scenario::client_addr(client),
            SERVER_PORT,
            40_000 + client as u16,
            seq,
            payload,
        )
    }

    /// One upload batch of `n` packets with `len`-byte payloads.
    pub fn batch(&mut self, client: usize, n: usize, len: usize) -> Batch {
        let packets: Vec<Packet> = (0..n).map(|_| self.upstream(client, len)).collect();
        let expected = packets.iter().map(|p| p.bytes().to_vec()).collect();
        Batch {
            client,
            packets,
            expected,
        }
    }

    /// One exchange: a `request_len`-byte request and `n` response packets
    /// of `len` bytes. With `signatures`, exactly one seed-chosen response
    /// packet carries a drop-rule signature at a seed-chosen offset.
    pub fn exchange(
        &mut self,
        client: usize,
        request_len: usize,
        n: usize,
        len: usize,
        signatures: bool,
    ) -> Exchange {
        let request = self.upstream(client, request_len);
        let request_bytes = request.bytes().to_vec();
        let marked = signatures.then(|| self.rng.below(n));
        let mut response = Vec::with_capacity(n);
        let mut expected = Vec::with_capacity(n);
        for i in 0..n {
            let seq = self.seq[client];
            let mut payload = self.payload(client, len);
            if marked == Some(i) {
                let rule = SIGNATURE_RULES[self.rng.below(SIGNATURE_RULES.len())];
                let sig = endbox_snort::community::triggering_payload(rule);
                let at = TAG_LEN + self.rng.below(len - TAG_LEN - sig.len());
                payload[at..at + sig.len()].copy_from_slice(&sig);
            }
            let packet = Self::downstream(client, seq, &payload);
            if marked != Some(i) {
                expected.push(packet.bytes().to_vec());
            }
            response.push(packet);
        }
        Exchange {
            client,
            request,
            request_bytes,
            response,
            expected,
        }
    }
}

/// Folds per-datagram server results into the packets delivered per
/// peer, in delivery order. An error or an unexpected delivery kind marks
/// the peer as failed (`None`).
pub fn delivered_by_peer(
    results: Vec<(u64, Result<Delivery, EndBoxError>)>,
) -> HashMap<u64, Option<Vec<Packet>>> {
    let mut by_peer: HashMap<u64, Option<Vec<Packet>>> = HashMap::new();
    for (peer, result) in results {
        let slot = by_peer.entry(peer).or_insert_with(|| Some(Vec::new()));
        match result {
            Ok(Delivery::Pending) => {}
            Ok(Delivery::PacketBatch { packets, .. }) => {
                if let Some(v) = slot.as_mut() {
                    v.extend(packets);
                }
            }
            Ok(Delivery::Packet { packet, .. }) => {
                if let Some(v) = slot.as_mut() {
                    v.push(packet);
                }
            }
            Ok(other) => {
                eprintln!("oracle: peer {peer}: unexpected delivery {other:?}");
                *slot = None;
            }
            Err(e) => {
                eprintln!("oracle: peer {peer}: server error: {e}");
                *slot = None;
            }
        }
    }
    by_peer
}

/// True when `delivered` is byte-for-byte `expected`, in order.
pub fn matches(delivered: &[Packet], expected: &[Vec<u8>]) -> bool {
    delivered.len() == expected.len()
        && delivered
            .iter()
            .zip(expected)
            .all(|(p, e)| p.bytes() == e.as_slice())
}

/// Application payload bytes of `packets` (IP and TCP headers excluded).
pub fn payload_bytes(packets: &[Vec<u8>]) -> u64 {
    packets
        .iter()
        .map(|p| (p.len() - IP_TCP_HEADERS) as u64)
        .sum()
}

/// IPv4 + TCP header bytes of every generated packet (no options).
pub const IP_TCP_HEADERS: usize = 40;
