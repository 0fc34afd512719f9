//! The zone precompiled for serving.
//!
//! An authoritative server cannot afford a linear scan over the zone per
//! query (the root answers every query from the same small zone, so the
//! whole zone is indexed once at load). [`ZoneIndex`] precomputes what the
//! answer path needs:
//!
//! * positive RRsets keyed `(owner, type)` with their covering RRSIGs;
//! * the set of existing owner names (NODATA vs NXDOMAIN);
//! * per-TLD referral bundles: delegation NS in the authority section, DS
//!   (+RRSIG) for signed delegations, in-bailiwick glue as additionals;
//! * the apex SOA (+RRSIG) for negative responses;
//! * the NSEC chain in canonical order, for NXDOMAIN proofs.

use dns_wire::rdata::Rdata;
use dns_wire::{Name, Record, RrType};
use dns_zone::Zone;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A delegation response bundle for one TLD.
#[derive(Debug, Clone, Default)]
pub struct Referral {
    /// NS RRset at the TLD, plus DS and RRSIG(DS) when the query asks for
    /// DNSSEC.
    pub ns: Vec<Record>,
    pub ds: Vec<Record>,
    pub ds_rrsigs: Vec<Record>,
    /// In-bailiwick glue (A/AAAA of the delegated name servers).
    pub glue: Vec<Record>,
}

/// One positive answer: the RRset and its covering signatures.
#[derive(Debug, Clone, Default)]
pub struct RrsetEntry {
    pub records: Vec<Record>,
    pub rrsigs: Vec<Record>,
}

/// The result of a name/type lookup.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// Authoritative data (apex RRsets, parent-side DS/NSEC at a cut).
    Answer(&'a RrsetEntry),
    /// The name is at or below a zone cut: delegate.
    Referral(&'a Referral),
    /// The name exists but has no data of this type.
    NoData,
    /// The name does not exist.
    NxDomain,
}

/// The signed root zone, precompiled into hash lookups.
#[derive(Debug)]
pub struct ZoneIndex {
    zone: Arc<Zone>,
    origin: Name,
    serial: u32,
    answers: HashMap<(Name, RrType), RrsetEntry>,
    names: HashSet<Name>,
    delegations: HashMap<Name, Referral>,
    /// Apex SOA and its RRSIG, for negative-response authority sections.
    negative_soa: Vec<Record>,
    negative_soa_rrsig: Vec<Record>,
    /// NSEC owners in canonical order with their records and signatures.
    nsec_chain: Vec<(Name, RrsetEntry)>,
}

impl ZoneIndex {
    /// Precompile `zone` for serving.
    pub fn build(zone: Arc<Zone>) -> ZoneIndex {
        let origin = zone.origin().clone();
        let serial = zone.serial().unwrap_or(0);
        let mut answers: HashMap<(Name, RrType), RrsetEntry> = HashMap::new();
        let mut names: HashSet<Name> = HashSet::new();

        // First pass: group records by (owner, type); attach RRSIGs to the
        // type they cover.
        for rec in zone.records() {
            names.insert(rec.name.clone());
            match &rec.rdata {
                Rdata::Rrsig(sig) => {
                    answers
                        .entry((rec.name.clone(), sig.type_covered))
                        .or_default()
                        .rrsigs
                        .push(rec.clone());
                }
                _ => {
                    answers
                        .entry((rec.name.clone(), rec.rr_type))
                        .or_default()
                        .records
                        .push(rec.clone());
                }
            }
        }

        // Second pass: delegation bundles. A delegated TLD is a non-apex
        // owner holding an NS RRset (the root zone has no in-zone cuts
        // deeper than one label).
        let mut delegations: HashMap<Name, Referral> = HashMap::new();
        for ((name, rr_type), entry) in &answers {
            if *rr_type != RrType::Ns || *name == origin || entry.records.is_empty() {
                continue;
            }
            let mut referral = Referral {
                ns: entry.records.clone(),
                ..Default::default()
            };
            if let Some(ds) = answers.get(&(name.clone(), RrType::Ds)) {
                referral.ds = ds.records.clone();
                referral.ds_rrsigs = ds.rrsigs.clone();
            }
            for ns in &referral.ns {
                let Rdata::Ns(target) = &ns.rdata else {
                    continue;
                };
                for glue_type in [RrType::A, RrType::Aaaa] {
                    if let Some(glue) = answers.get(&(target.clone(), glue_type)) {
                        referral.glue.extend(glue.records.iter().cloned());
                    }
                }
            }
            delegations.insert(name.clone(), referral);
        }

        let soa_entry = answers.get(&(origin.clone(), RrType::Soa));
        let negative_soa = soa_entry.map(|e| e.records.clone()).unwrap_or_default();
        let negative_soa_rrsig = soa_entry.map(|e| e.rrsigs.clone()).unwrap_or_default();

        let mut nsec_chain: Vec<(Name, RrsetEntry)> = answers
            .iter()
            .filter(|((_, t), _)| *t == RrType::Nsec)
            .map(|((n, _), e)| (n.clone(), e.clone()))
            .collect();
        nsec_chain.sort_by(|a, b| a.0.canonical_cmp(&b.0));

        ZoneIndex {
            zone,
            origin,
            serial,
            answers,
            names,
            delegations,
            negative_soa,
            negative_soa_rrsig,
            nsec_chain,
        }
    }

    /// The indexed zone (AXFR streams straight from it).
    pub fn zone(&self) -> &Arc<Zone> {
        &self.zone
    }

    /// Zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Zone serial.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// Delegated TLD labels (lowercase, no trailing dot), sorted — the
    /// load generator draws its in-zone query names from this.
    pub fn tld_labels(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .delegations
            .keys()
            .map(|n| n.to_string().trim_end_matches('.').to_ascii_lowercase())
            .collect();
        out.sort();
        out
    }

    /// Direct RRset access (the engine assembles priming glue from this).
    pub fn rrset(&self, name: &Name, rr_type: RrType) -> Option<&RrsetEntry> {
        self.answers.get(&(name.clone(), rr_type))
    }

    /// Every owner name the zone holds (answer-cache enumeration).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.names.iter()
    }

    /// The NSEC chain in canonical order: owner names with their NSEC
    /// records and signatures. The answer cache precompiles one NXDOMAIN
    /// template per link.
    pub fn nsec_chain(&self) -> &[(Name, RrsetEntry)] {
        &self.nsec_chain
    }

    /// SOA (+ RRSIG when `dnssec`) for negative-response authority, as
    /// the SOA slice and the (possibly empty) signature slice.
    pub fn negative_authority(&self, dnssec: bool) -> [&[Record]; 2] {
        let rrsig: &[Record] = if dnssec {
            &self.negative_soa_rrsig
        } else {
            &[]
        };
        [&self.negative_soa, rrsig]
    }

    /// The NSEC entry covering `name` (the chain link whose owner
    /// canonically precedes or equals it), for NXDOMAIN proofs.
    pub fn covering_nsec(&self, name: &Name) -> Option<&RrsetEntry> {
        if self.nsec_chain.is_empty() {
            return None;
        }
        let idx = match self
            .nsec_chain
            .binary_search_by(|(owner, _)| owner.canonical_cmp(name))
        {
            Ok(i) => i,
            // The chain wraps: a name before the first owner is covered by
            // the last link.
            Err(0) => self.nsec_chain.len() - 1,
            Err(i) => i - 1,
        };
        Some(&self.nsec_chain[idx].1)
    }

    /// Resolve a query name/type against the index.
    pub fn lookup(&self, name: &Name, rr_type: RrType) -> Lookup<'_> {
        if *name == self.origin {
            return match self.answers.get(&(name.clone(), rr_type)) {
                Some(entry) if !entry.records.is_empty() => Lookup::Answer(entry),
                _ => Lookup::NoData,
            };
        }
        // Find the zone cut: the ancestor of `name` at one label depth
        // (the root zone delegates exactly at TLD names).
        let mut cut = name.clone();
        while cut.label_count() > 1 {
            cut = cut.parent();
        }
        if let Some(referral) = self.delegations.get(&cut) {
            if *name == cut {
                // Parent-side types are answered authoritatively at the
                // cut itself (DS and the NSEC proving the delegation).
                if matches!(rr_type, RrType::Ds | RrType::Nsec) {
                    return match self.answers.get(&(name.clone(), rr_type)) {
                        Some(entry) if !entry.records.is_empty() => Lookup::Answer(entry),
                        _ => Lookup::NoData,
                    };
                }
            }
            return Lookup::Referral(referral);
        }
        if self.names.contains(name) {
            // Glue owners and other non-cut names the zone happens to hold.
            return match self.answers.get(&(name.clone(), rr_type)) {
                Some(entry) if !entry.records.is_empty() => Lookup::Answer(entry),
                _ => Lookup::NoData,
            };
        }
        Lookup::NxDomain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;

    fn index() -> ZoneIndex {
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 8,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(1),
        );
        ZoneIndex::build(Arc::new(zone))
    }

    #[test]
    fn apex_rrsets_found_with_rrsigs() {
        let idx = index();
        match idx.lookup(&Name::root(), RrType::Soa) {
            Lookup::Answer(e) => {
                assert_eq!(e.records.len(), 1);
                assert!(!e.rrsigs.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match idx.lookup(&Name::root(), RrType::Ns) {
            Lookup::Answer(e) => assert_eq!(e.records.len(), 13),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tld_names_refer() {
        let idx = index();
        let com = Name::parse("com.").unwrap();
        match idx.lookup(&com, RrType::A) {
            Lookup::Referral(r) => {
                assert_eq!(r.ns.len(), 2);
                assert!(!r.ds.is_empty());
                assert_eq!(r.glue.len(), 4); // 2 NS × (A + AAAA)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Below the cut: still a referral.
        let www = Name::parse("www.com.").unwrap();
        assert!(matches!(idx.lookup(&www, RrType::A), Lookup::Referral(_)));
    }

    #[test]
    fn ds_at_cut_is_authoritative() {
        let idx = index();
        let com = Name::parse("com.").unwrap();
        match idx.lookup(&com, RrType::Ds) {
            Lookup::Answer(e) => {
                assert!(!e.records.is_empty());
                assert!(!e.rrsigs.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_and_nodata_distinguished() {
        let idx = index();
        let junk = Name::parse("zz9999doesnotexist.").unwrap();
        assert!(matches!(idx.lookup(&junk, RrType::A), Lookup::NxDomain));
        // Apex has no TXT: NODATA, not NXDOMAIN.
        assert!(matches!(
            idx.lookup(&Name::root(), RrType::Txt),
            Lookup::NoData
        ));
    }

    #[test]
    fn negative_authority_carries_soa_and_optionally_rrsig() {
        let idx = index();
        let [soa, rrsig] = idx.negative_authority(false);
        assert_eq!(soa.len(), 1);
        assert_eq!(soa[0].rr_type, RrType::Soa);
        assert!(rrsig.is_empty());
        let [_, rrsig] = idx.negative_authority(true);
        assert!(rrsig.iter().any(|r| r.rr_type == RrType::Rrsig));
    }

    #[test]
    fn covering_nsec_found_for_missing_name() {
        let idx = index();
        let junk = Name::parse("zz9999doesnotexist.").unwrap();
        let nsec = idx.covering_nsec(&junk).expect("signed zone has a chain");
        assert!(!nsec.records.is_empty());
        assert!(!nsec.rrsigs.is_empty());
    }

    #[test]
    fn tld_labels_enumerated() {
        let idx = index();
        let labels = idx.tld_labels();
        assert_eq!(labels.len(), 8);
        assert!(labels.contains(&"com".to_string()));
    }
}
