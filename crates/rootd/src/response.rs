//! A response assembled from borrowed records.
//!
//! The uncached answer path never copies zone data: a [`Response`] holds
//! the response header, the query's question section and references to
//! the records in the [`crate::ZoneIndex`] (or the engine's CHAOS identity
//! answers). Only the OPT record, built per query from the client's EDNS,
//! is owned. Encoding goes through dns-wire's one section encoder
//! ([`Sections`]), the same code [`Message`] encodes with, so a borrowed
//! response and its owned [`Response::to_message`] copy produce the same
//! bytes.

use dns_wire::edns::Edns;
use dns_wire::wire::WireWriter;
use dns_wire::{Header, Message, Question, Rcode, Record, Sections};

/// A response whose records point into zone (or engine) data.
#[derive(Debug)]
pub(crate) struct Response<'a> {
    pub(crate) header: Header,
    questions: &'a [Question],
    /// Answer, authority and additional records, in section order.
    records: Vec<&'a Record>,
    /// How many of `records` are answers, then authority records; the
    /// rest are additionals.
    answers: usize,
    authorities: usize,
    opt: Option<Record>,
}

impl<'a> Response<'a> {
    /// An empty authoritative response to `query` (see
    /// [`Header::response`]), echoing its question section.
    pub(crate) fn to(query: &'a Message, rcode: Rcode) -> Self {
        Response {
            header: query.header.response(rcode),
            questions: &query.questions,
            records: Vec::with_capacity(16),
            answers: 0,
            authorities: 0,
            opt: None,
        }
    }

    /// Append to the answer section (before any authority or additional
    /// record).
    pub(crate) fn answer(&mut self, records: &'a [Record]) {
        debug_assert_eq!(self.records.len(), self.answers);
        self.records.extend(records);
        self.answers += records.len();
    }

    /// Append to the authority section (before any additional record).
    pub(crate) fn authority(&mut self, records: &'a [Record]) {
        debug_assert_eq!(self.records.len(), self.answers + self.authorities);
        self.records.extend(records);
        self.authorities += records.len();
    }

    /// Append to the additional section.
    pub(crate) fn additional(&mut self, records: &'a [Record]) {
        self.records.extend(records);
    }

    /// Attach the OPT record for `edns`, encoded last in the additional
    /// section and kept through truncation.
    pub(crate) fn set_edns(&mut self, edns: &Edns) {
        self.opt = Some(edns.to_record());
    }

    fn sections(&self) -> Sections<'_, &'a Record> {
        let (answers, rest) = self.records.split_at(self.answers);
        let (authorities, additionals) = rest.split_at(self.authorities);
        Sections {
            header: &self.header,
            questions: self.questions,
            answers,
            authorities,
            additionals,
            opt: self.opt.as_ref(),
        }
    }

    /// Encode into a caller-provided writer (the template builder reads
    /// the writer's compression log).
    pub(crate) fn encode_into_writer(&self, w: &mut WireWriter) {
        self.sections().encode(w, None);
    }

    /// Encode into `out`, reusing its allocation.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        self.sections().encode_into(None, out);
    }

    /// Encode to fresh wire bytes.
    pub(crate) fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        self.encode_into(&mut out);
        out
    }

    /// Encode within `limit` bytes into `out`: while it does not fit, drop
    /// whole records — opportunistic additionals first, then authority,
    /// then answer — and set TC. The OPT pseudo-record survives truncation
    /// (it carries the EDNS negotiation itself). Dropping never splits a
    /// record, so the result always reparses with consistent section
    /// counts.
    pub(crate) fn encode_limited_into(&self, limit: usize, out: &mut Vec<u8>) {
        let sections = self.sections();
        sections.encode_into(None, out);
        if out.len() <= limit {
            return;
        }
        let mut an = sections.answers.len();
        let mut ns = sections.authorities.len();
        let mut ar = sections.additionals.len();
        loop {
            if ar > 0 {
                ar -= 1;
            } else if ns > 0 {
                ns -= 1;
            } else if an > 0 {
                an -= 1;
            } else {
                // Header + question + OPT alone always fit 512 bytes for
                // names the root serves; return as-is rather than loop
                // forever.
                return;
            }
            sections.encode_into(Some((an, ns, ar)), out);
            if out.len() <= limit {
                return;
            }
        }
    }

    /// An owned copy, for callers that keep the response past the query.
    pub(crate) fn to_message(&self) -> Message {
        let s = self.sections();
        let owned = |records: &[&Record]| records.iter().map(|&r| r.clone()).collect::<Vec<_>>();
        let mut additionals = owned(s.additionals);
        additionals.extend(self.opt.clone());
        Message {
            header: self.header,
            questions: self.questions.to_vec(),
            answers: owned(s.answers),
            authorities: owned(s.authorities),
            additionals,
        }
    }
}
