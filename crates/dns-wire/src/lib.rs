//! DNS wire-format codec for the `roots-go-deep` reproduction.
//!
//! Implements the subset of the DNS needed to model root server traffic
//! faithfully:
//!
//! * [`name`] — domain names with RFC 1035 length limits, case-insensitive
//!   equality, RFC 4034 canonical ordering, and wire encoding with
//!   compression-pointer support;
//! * [`message`] — message header, question and RR sections, encode/decode;
//! * [`record`] / [`rdata`] — the record types seen in this study: `A`,
//!   `AAAA`, `NS`, `CNAME`, `SOA`, `TXT`, `MX`, `DS`, `DNSKEY`, `RRSIG`,
//!   `NSEC`, `ZONEMD`, `OPT` (EDNS0), plus an opaque fallback;
//! * [`wire`] — the low-level reader/writer, bounds-checked and
//!   pointer-loop-safe;
//! * `CLASS CH TXT` identity queries (`hostname.bind`, `id.server`, …) are
//!   plain TXT records under class `CH` — no special casing needed beyond
//!   [`class::Class::Ch`].
//!
//! Presentation (zone-file) formatting and parsing for records lives in
//! [`presentation`]; full master files are handled by the `dns-zone` crate.

pub mod class;
pub mod edns;
pub mod message;
pub mod name;
pub mod presentation;
pub mod rdata;
pub mod record;
pub mod rrtype;
pub mod tcp;
pub mod wire;

pub use class::Class;
pub use message::{Flags, Header, Message, Opcode, Question, Rcode, Sections};
pub use name::Name;
pub use rdata::Rdata;
pub use record::Record;
pub use rrtype::RrType;
pub use wire::{WireError, WireReader, WireWriter, MAX_POINTER_JUMPS};
