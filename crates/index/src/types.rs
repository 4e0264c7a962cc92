//! Shared identifier newtypes.
//!
//! These are deliberately small (`u32`) because the posting-element
//! codec in `zerber-core` packs a document id, a term id and a
//! quantized term frequency into fewer than 61 bits (the field size).

use std::fmt;

/// An interned term (position in the [`crate::dict::TermDict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// A document identifier. Per Section 5.4.2 "the document ID must
/// identify both the machine on which the document is hosted and the
/// document within that machine", so the value packs a host part in the
/// high bits and a per-host sequence number in the low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Number of low bits reserved for the per-host document number.
pub(crate) const DOC_LOCAL_BITS: u32 = 20;

impl DocId {
    /// Builds a document id from a hosting machine and a per-host
    /// document number.
    ///
    /// # Panics
    /// Panics if `local` exceeds the 20-bit per-host space or `host`
    /// exceeds the remaining 12 bits.
    pub fn from_parts(host: u16, local: u32) -> Self {
        assert!(
            local < (1 << DOC_LOCAL_BITS),
            "per-host doc number overflow"
        );
        assert!(
            (host as u32) < (1 << (32 - DOC_LOCAL_BITS)),
            "host id overflow"
        );
        DocId(((host as u32) << DOC_LOCAL_BITS) | local)
    }

    /// The hosting machine.
    pub fn host(self) -> u16 {
        (self.0 >> DOC_LOCAL_BITS) as u16
    }

    /// The per-host document number.
    pub fn local(self) -> u32 {
        self.0 & ((1 << DOC_LOCAL_BITS) - 1)
    }
}

/// A collaboration group (paper Section 2: project groups inside a
/// large enterprise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// An authenticated user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}:{}", self.host(), self.local())
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_id_round_trips_host_and_local() {
        let id = DocId::from_parts(7, 123_456);
        assert_eq!(id.host(), 7);
        assert_eq!(id.local(), 123_456);
    }

    #[test]
    fn doc_id_max_values() {
        let id = DocId::from_parts((1 << 12) - 1, (1 << 20) - 1);
        assert_eq!(id.host(), (1 << 12) - 1);
        assert_eq!(id.local(), (1 << 20) - 1);
    }

    #[test]
    #[should_panic(expected = "doc number overflow")]
    fn doc_id_local_overflow_panics() {
        let _ = DocId::from_parts(0, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "host id overflow")]
    fn doc_id_host_overflow_panics() {
        let _ = DocId::from_parts(1 << 12, 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TermId(3).to_string(), "t3");
        assert_eq!(DocId::from_parts(1, 2).to_string(), "d1:2");
        assert_eq!(GroupId(4).to_string(), "g4");
        assert_eq!(UserId(5).to_string(), "u5");
    }
}
