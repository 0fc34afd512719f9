//! The reference answerer, and the differential property that pins the
//! serving engine to it.
//!
//! [`Oracle`] is the straightforward answer path: every response is an
//! owned [`Message`] whose records are cloned out of the [`ZoneIndex`],
//! EDNS is re-parsed wherever it is needed, and truncation re-encodes the
//! owned message. The engine answers the same logic from borrowed records
//! (`crate::response::Response`), and answers most shapes from the
//! precompiled cache. Over generated datagrams — zone names, names below
//! delegations, junk, CHAOS identity names, any qtype and class, any EDNS
//! payload with and without DO and NSID, header bits, wrong counts,
//! trailing bytes, truncation — the uncached, cached and batch UDP paths
//! must all produce the oracle's bytes, or drop exactly when it drops.

use crate::engine::{formerr_stub, is_axfr, udp_limit, Rootd, SharedState, SiteIdentity};
use crate::index::{Lookup, RrsetEntry, ZoneIndex};
use crate::transport::UdpBatch;
use dns_wire::edns::{edns_of, set_edns, Edns};
use dns_wire::message::Opcode;
use dns_wire::rdata::Rdata;
use dns_wire::{Class, Message, Name, Question, Rcode, Record, RrType};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The clone-based answerer.
struct Oracle<'a> {
    index: &'a ZoneIndex,
    hostname: Option<&'a str>,
    chaos_hostname: Option<Rdata>,
    chaos_version: Rdata,
}

impl<'a> Oracle<'a> {
    fn new(index: &'a ZoneIndex, identity: &'a SiteIdentity) -> Self {
        Oracle {
            index,
            hostname: identity.hostname.as_deref(),
            chaos_hostname: identity
                .hostname
                .as_ref()
                .map(|h| Rdata::Txt(vec![h.clone().into_bytes()])),
            chaos_version: Rdata::Txt(vec![identity.version.clone().into_bytes()]),
        }
    }

    fn respond(&self, query: &Message) -> Message {
        let mut resp = self.respond_inner(query);
        self.attach_edns(query, &mut resp);
        resp
    }

    fn respond_inner(&self, query: &Message) -> Message {
        if query.header.opcode != Opcode::Query {
            return Message::response_to(query, Rcode::NotImp, Vec::new());
        }
        let [q] = query.questions.as_slice() else {
            return Message::response_to(query, Rcode::FormErr, Vec::new());
        };
        let q = q.clone();
        match q.class {
            Class::Ch => self.answer_chaos(query, &q),
            Class::In => self.answer_in(query, &q),
            _ => Message::response_to(query, Rcode::Refused, Vec::new()),
        }
    }

    fn answer_chaos(&self, query: &Message, q: &Question) -> Message {
        let is = |first: &[u8], second: &[u8]| {
            let mut labels = q.name.labels();
            matches!(
                (labels.next(), labels.next(), labels.next()),
                (Some(a), Some(b), None)
                    if a.eq_ignore_ascii_case(first) && b.eq_ignore_ascii_case(second)
            )
        };
        let rdata = if q.rr_type != RrType::Txt {
            None
        } else if is(b"hostname", b"bind") || is(b"id", b"server") {
            self.chaos_hostname.clone()
        } else if is(b"version", b"bind") || is(b"version", b"server") {
            Some(self.chaos_version.clone())
        } else {
            None
        };
        match rdata {
            Some(r) => Message::response_to(
                query,
                Rcode::NoError,
                vec![Record::chaos(q.name.clone(), 0, r)],
            ),
            None => Message::response_to(query, Rcode::Refused, Vec::new()),
        }
    }

    fn answer_in(&self, query: &Message, q: &Question) -> Message {
        let dnssec = edns_of(query).map(|e| e.dnssec_ok).unwrap_or(false);
        match self.index.lookup(&q.name, q.rr_type) {
            Lookup::Answer(entry) => {
                let mut answers = entry.records.clone();
                if dnssec {
                    answers.extend(entry.rrsigs.iter().cloned());
                }
                let mut resp = Message::response_to(query, Rcode::NoError, answers);
                if q.rr_type == RrType::Ns && q.name == *self.index.origin() {
                    for rec in &entry.records {
                        let Rdata::Ns(target) = &rec.rdata else {
                            continue;
                        };
                        for glue_type in [RrType::A, RrType::Aaaa] {
                            if let Some(glue) = self.index.rrset(target, glue_type) {
                                resp.additionals.extend(glue.records.iter().cloned());
                            }
                        }
                    }
                }
                resp
            }
            Lookup::Referral(referral) => {
                let mut resp = Message::response_to(query, Rcode::NoError, Vec::new());
                resp.header.flags.authoritative = false;
                resp.authorities.extend(referral.ns.iter().cloned());
                if dnssec {
                    resp.authorities.extend(referral.ds.iter().cloned());
                    resp.authorities.extend(referral.ds_rrsigs.iter().cloned());
                }
                resp.additionals.extend(referral.glue.iter().cloned());
                resp
            }
            Lookup::NoData => self.negative(query, q, Rcode::NoError, dnssec),
            Lookup::NxDomain => self.negative(query, q, Rcode::NxDomain, dnssec),
        }
    }

    fn negative(&self, query: &Message, q: &Question, rcode: Rcode, dnssec: bool) -> Message {
        let nsec: Option<&RrsetEntry> = if dnssec {
            self.index.covering_nsec(&q.name)
        } else {
            None
        };
        let mut resp = Message::response_to(query, rcode, Vec::new());
        let [soa, rrsig] = self.index.negative_authority(dnssec);
        resp.authorities = soa.iter().chain(rrsig).cloned().collect();
        if let Some(nsec) = nsec {
            resp.authorities.extend(nsec.records.iter().cloned());
            resp.authorities.extend(nsec.rrsigs.iter().cloned());
        }
        resp
    }

    fn attach_edns(&self, query: &Message, resp: &mut Message) {
        let Some(edns) = edns_of(query) else { return };
        let mut reply = Edns {
            udp_payload_size: crate::engine::MAX_UDP_PAYLOAD as u16,
            dnssec_ok: edns.dnssec_ok,
            ..Default::default()
        };
        if edns.nsid_requested() {
            if let Some(hostname) = self.hostname {
                reply = reply.with_nsid(hostname.as_bytes());
            }
        }
        set_edns(resp, &reply);
    }

    /// The UDP answer to `request`, `None` for a drop.
    fn serve_udp(&self, request: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        let query = match Message::from_wire(request) {
            Ok(q) => q,
            Err(_) => return formerr_stub(request, &mut out).then_some(out),
        };
        if query.header.flags.response {
            return None;
        }
        let limit = udp_limit(edns_of(&query).as_ref());
        if is_axfr(&query) {
            let mut resp = Message::response_to(&query, Rcode::NoError, Vec::new());
            resp.header.flags.truncated = true;
            self.attach_edns(&query, &mut resp);
            return Some(resp.to_wire());
        }
        let resp = self.respond(&query);
        encode_limited(&resp, limit, &mut out);
        Some(out)
    }
}

/// Re-encode an owned message, dropping whole records from the end
/// (additionals, then authority, then answers) until it fits.
fn encode_limited(msg: &Message, limit: usize, out: &mut Vec<u8>) {
    msg.encode_into(out);
    if out.len() <= limit {
        return;
    }
    let mut an = msg.answers.len();
    let mut ns = msg.authorities.len();
    let mut ar = msg
        .additionals
        .iter()
        .filter(|r| r.rr_type != RrType::Opt)
        .count();
    loop {
        if ar > 0 {
            ar -= 1;
        } else if ns > 0 {
            ns -= 1;
        } else if an > 0 {
            an -= 1;
        } else {
            return;
        }
        msg.sections().encode_into(Some((an, ns, ar)), out);
        if out.len() <= limit {
            return;
        }
    }
}

/// One zone, and every way the engine can serve it.
struct Fixture {
    index: Arc<ZoneIndex>,
    identity: SiteIdentity,
    /// `Rootd::new`: every datagram takes the uncached answerer.
    uncached: Rootd,
    /// The same engine with the precompiled answer cache.
    cached: Rootd,
    /// A farm-style engine over a shared zone cache plus per-engine
    /// CHAOS shapes, served through `serve_udp_batch`.
    shared: Rootd,
    /// Zone owner names, as raw labels, in canonical order.
    names: Vec<Vec<Vec<u8>>>,
    tlds: Vec<Vec<u8>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        use dns_zone::rollout::RolloutPhase;
        use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
        use dns_zone::signer::ZoneKeys;
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 10,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(5),
        );
        let index = Arc::new(ZoneIndex::build(Arc::new(zone)));
        let identity = SiteIdentity::named("lax2f");
        let mut names: Vec<&Name> = index.names().collect();
        names.sort();
        let names = names
            .into_iter()
            .map(|n| n.labels().map(<[u8]>::to_vec).collect())
            .collect();
        Fixture {
            uncached: Rootd::new(Arc::clone(&index), identity.clone()),
            cached: Rootd::new(Arc::clone(&index), identity.clone()).with_answer_cache(),
            shared: Rootd::with_shared_state(
                &SharedState::build(Arc::clone(&index)),
                identity.clone(),
            ),
            tlds: index
                .tld_labels()
                .into_iter()
                .map(String::into_bytes)
                .collect(),
            names,
            identity,
            index,
        }
    })
}

/// Generated request datagrams (see the module docs for the grammar).
struct Datagrams;

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len())]
}

fn chance(rng: &mut TestRng, one_in: usize) -> bool {
    rng.below(one_in) == 0
}

fn random_label(rng: &mut TestRng) -> Vec<u8> {
    const BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    let len = pick(rng, &[1, 2, 3, 5, 8, 13, 63]);
    (0..len).map(|_| pick(rng, BYTES)).collect()
}

impl Datagrams {
    fn qname(&self, rng: &mut TestRng) -> Vec<Vec<u8>> {
        let f = fixture();
        let mut labels: Vec<Vec<u8>> = match rng.below(9) {
            // A zone name: the apex (half the time), a TLD, a glue owner.
            0..=2 if chance(rng, 2) => Vec::new(),
            0..=2 => f.names[rng.below(f.names.len())].clone(),
            // Below a delegation: a referral.
            3 | 4 => {
                let mut l = vec![random_label(rng)];
                if chance(rng, 3) {
                    l.push(random_label(rng));
                }
                l.push(f.tlds[rng.below(f.tlds.len())].clone());
                l
            }
            // Junk: NXDOMAIN, sometimes sharing a record-name suffix.
            5 => {
                let mut l = vec![random_label(rng)];
                if chance(rng, 2) {
                    l.push(pick(rng, &[&b"net"[..], b"root-servers", b"nosuch"]).to_vec());
                }
                l
            }
            // CHAOS identity names, and one nobody answers.
            6 => {
                let name = pick(
                    rng,
                    &[
                        "hostname.bind",
                        "id.server",
                        "version.bind",
                        "version.server",
                        "whoami",
                    ],
                );
                name.split('.').map(|l| l.as_bytes().to_vec()).collect()
            }
            // Deep names, some past the 255-byte limit.
            7 => (0..rng.below(140)).map(|_| b"a".to_vec()).collect(),
            // Arbitrary label bytes.
            _ => (0..1 + rng.below(3))
                .map(|_| {
                    (0..1 + rng.below(12))
                        .map(|_| rng.next_u64() as u8)
                        .collect()
                })
                .collect(),
        };
        for label in &mut labels {
            for b in label.iter_mut() {
                if chance(rng, 3) {
                    *b = b.to_ascii_uppercase();
                }
            }
        }
        labels
    }

    fn question(&self, rng: &mut TestRng, out: &mut Vec<u8>) {
        let qname = self.qname(rng);
        let apex = qname.is_empty();
        for label in qname {
            out.push(label.len() as u8);
            out.extend_from_slice(&label);
        }
        out.push(0);
        let qtype = if apex && chance(rng, 2) {
            // The types the apex holds, including the signed priming
            // response that overflows small budgets.
            pick(rng, &[2u16, 2, 6, 46, 47, 48, 63])
        } else if chance(rng, 4) {
            rng.next_u64() as u16
        } else {
            pick(
                rng,
                &[
                    0u16, 1, 2, 5, 6, 12, 15, 16, 28, 33, 41, 43, 46, 47, 48, 63, 65, 251, 252, 255,
                ],
            )
        };
        let class = match rng.below(10) {
            0..=7 => 1,
            8 => 3,
            _ => pick(rng, &[0u16, 2, 4, 254, 255, 0xffff]),
        };
        out.extend_from_slice(&qtype.to_be_bytes());
        out.extend_from_slice(&class.to_be_bytes());
    }

    fn opt(&self, rng: &mut TestRng, out: &mut Vec<u8>) {
        let payload = if chance(rng, 2) {
            pick(
                rng,
                &[0u16, 100, 511, 512, 513, 700, 1232, 1400, 4096, 4097, 65535],
            )
        } else {
            rng.next_u64() as u16
        };
        let dnssec = chance(rng, 2);
        let (ext_rcode, version) = if chance(rng, 10) {
            (rng.next_u64() as u8, rng.next_u64() as u8)
        } else {
            (0, 0)
        };
        let z = if chance(rng, 10) {
            rng.next_u64() as u16 & 0x7fff
        } else {
            0
        };
        let mut rdata = Vec::new();
        if chance(rng, 3) {
            rdata.extend_from_slice(&[0, 3, 0, 0]); // NSID request
        }
        if chance(rng, 8) {
            rdata.extend_from_slice(&[0, 10, 0, 2, 0xab, 0xcd]); // another option
        }
        if chance(rng, 16) {
            rdata.extend_from_slice(&[0, 3, 0, 9, 1]); // overlong option
        }
        out.extend_from_slice(&[0, 0, 41]);
        out.extend_from_slice(&payload.to_be_bytes());
        out.extend_from_slice(&[ext_rcode, version]);
        out.extend_from_slice(&((u16::from(dnssec) << 15) | z).to_be_bytes());
        out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        out.extend_from_slice(&rdata);
    }
}

impl Strategy for Datagrams {
    type Value = Vec<u8>;

    fn sample(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut d = Vec::new();
        d.extend_from_slice(&(rng.next_u64() as u16).to_be_bytes());
        let qr = u8::from(chance(rng, 16)) << 7;
        let opcode = if chance(rng, 12) {
            pick(rng, &[1u8, 2, 4, 5, 15]) << 3
        } else {
            0
        };
        let aa_tc = rng.below(4) as u8 * 2;
        let rd = rng.below(2) as u8;
        d.push(qr | opcode | aa_tc | rd);
        let cd = (rng.below(2) as u8) << 4;
        d.push(if chance(rng, 4) {
            rng.next_u64() as u8
        } else {
            cd
        });
        let qdcount = if chance(rng, 12) {
            pick(rng, &[0u16, 2])
        } else {
            1
        };
        let edns = !chance(rng, 3);
        let arcount = u16::from(edns) + u16::from(chance(rng, 20));
        let ancount = u16::from(chance(rng, 20));
        for count in [qdcount, ancount, 0, arcount] {
            d.extend_from_slice(&count.to_be_bytes());
        }
        for _ in 0..qdcount {
            self.question(rng, &mut d);
        }
        if edns {
            self.opt(rng, &mut d);
        }
        if chance(rng, 10) {
            let extra = 1 + rng.below(8);
            d.extend((0..extra).map(|_| rng.next_u64() as u8));
        }
        if chance(rng, 12) {
            d.truncate(rng.below(d.len()));
        }
        d
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every generated datagram gets the oracle's bytes (or its drop)
    /// from the uncached, cached and batch UDP paths, and every
    /// parseable non-AXFR query gets the oracle's full response over TCP.
    #[test]
    fn serve_paths_match_the_clone_based_oracle(
        datagrams in proptest::collection::vec(Datagrams, 1..48),
    ) {
        let f = fixture();
        let oracle = Oracle::new(&f.index, &f.identity);
        let mut batch = UdpBatch::new();
        let mut expected = Vec::new();
        for wire in &datagrams {
            let want = oracle.serve_udp(wire);
            for (path, engine) in [("uncached", &f.uncached), ("cached", &f.cached)] {
                let got = engine.serve_udp(wire);
                prop_assert_eq!(&got, &want, "{} path diverged on {:?}", path, wire);
            }
            if let Ok(query) = Message::from_wire(wire) {
                if !query.header.flags.response && !is_axfr(&query) {
                    let tcp = f.uncached.serve_tcp(wire);
                    prop_assert_eq!(tcp, vec![oracle.respond(&query).to_wire()]);
                    prop_assert_eq!(f.uncached.respond(&query), oracle.respond(&query));
                }
            }
            batch.push_request(wire);
            expected.push(want);
        }
        f.shared.serve_udp_batch(&mut batch);
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(
                batch.response(i),
                want.as_deref(),
                "batch path diverged on {:?}",
                datagrams[i]
            );
        }
    }
}
