//! The Zerber posting element and its field encoding.
//!
//! Section 5.2: "An unencrypted element hence contains three fields:
//! `secret = [document_ID, term_ID, tf]`." The whole triple is packed
//! into one integer `a_0 < p` and secret-shared with Algorithm 1a.
//! Section 7.3 budgets "each posting element is encoded using 64 bits";
//! our field is the 61-bit Mersenne prime, so the default codec uses
//! 26 + 22 + 12 = 60 bits.
//!
//! In addition each element carries a **global element id** in the
//! clear (Section 5.4.1): "The element IDs help an index recover after
//! failure, and tell users which shares to merge together." The id is
//! public, so it must be unlinkable to the element contents — owners
//! generate opaque sequence numbers.

use zerber_field::{Fp, MODULUS};
use zerber_index::{DocId, TermId};

/// Globally unique (within a posting list) element identifier, shipped
/// in the clear alongside each share so clients can align shares from
/// different servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u64);

/// An unencrypted posting element: the secret triple of Section 5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingElement {
    /// Hosting machine + per-host document number.
    pub doc: DocId,
    /// The term this element belongs to (hidden from servers by
    /// merging + encryption).
    pub term: TermId,
    /// Quantized normalized term frequency (see
    /// [`ElementCodec::quantize_tf`]).
    pub tf_quantized: u32,
}

impl PostingElement {
    /// The normalized term frequency this element encodes, under the
    /// given codec.
    pub fn term_frequency(&self, codec: &ElementCodec) -> f64 {
        codec.dequantize_tf(self.tf_quantized)
    }
}

/// Errors from encoding/decoding posting elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A field does not fit in its configured bit width.
    FieldOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The offending value.
        value: u64,
        /// The configured bit width.
        bits: u32,
    },
    /// A decoded field element was not produced by this codec.
    OutOfRange,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::FieldOverflow { field, value, bits } => {
                write!(f, "{field} = {value} does not fit in {bits} bits")
            }
            CodecError::OutOfRange => write!(f, "encoded value out of codec range"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bit-packing codec for posting elements.
///
/// Layout (most significant first): `doc | term | tf`. Total width must
/// stay strictly below 61 bits so every encoding is `< p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementCodec {
    doc_bits: u32,
    term_bits: u32,
    tf_bits: u32,
}

impl Default for ElementCodec {
    /// 26 doc bits (12-bit host + 20-bit local would need 32; the
    /// default trims to 26 = 6-bit host + 20-bit local — ample for the
    /// simulated deployments), 22 term bits (~4.2 M distinct terms,
    /// covering ODP's 987,700), 12 tf bits (1/4096 frequency
    /// resolution).
    fn default() -> Self {
        Self {
            doc_bits: 26,
            term_bits: 22,
            tf_bits: 12,
        }
    }
}

impl ElementCodec {
    /// Quantizes a normalized term frequency in `[0, 1]` to the codec's
    /// fixed-point resolution. Non-zero inputs always map to a non-zero
    /// quantum so presence is never rounded away.
    pub fn quantize_tf(&self, tf: f64) -> u32 {
        let max = (1u64 << self.tf_bits) - 1;
        let clamped = tf.clamp(0.0, 1.0);
        let quantized = (clamped * max as f64).round() as u32;
        if quantized == 0 && tf > 0.0 {
            1
        } else {
            quantized
        }
    }

    /// Inverse of [`quantize_tf`](Self::quantize_tf).
    pub fn dequantize_tf(&self, quantized: u32) -> f64 {
        let max = (1u64 << self.tf_bits) - 1;
        quantized as f64 / max as f64
    }

    /// Packs an element into a field element (the `a_0` of Algorithm
    /// 1a).
    pub fn encode(&self, element: PostingElement) -> Result<Fp, CodecError> {
        let doc = element.doc.0 as u64;
        let term = element.term.0 as u64;
        let tf = element.tf_quantized as u64;
        self.check("doc", doc, self.doc_bits)?;
        self.check("term", term, self.term_bits)?;
        self.check("tf", tf, self.tf_bits)?;
        let packed = (doc << (self.term_bits + self.tf_bits)) | (term << self.tf_bits) | tf;
        debug_assert!(packed < MODULUS);
        Ok(Fp::new(packed))
    }

    /// Unpacks a decrypted field element back into the posting-element
    /// triple.
    pub fn decode(&self, value: Fp) -> Result<PostingElement, CodecError> {
        let raw = value.value();
        let total = self.doc_bits + self.term_bits + self.tf_bits;
        if raw >> total != 0 {
            return Err(CodecError::OutOfRange);
        }
        let tf_mask = (1u64 << self.tf_bits) - 1;
        let term_mask = (1u64 << self.term_bits) - 1;
        Ok(PostingElement {
            doc: DocId((raw >> (self.term_bits + self.tf_bits)) as u32),
            term: TermId(((raw >> self.tf_bits) & term_mask) as u32),
            tf_quantized: (raw & tf_mask) as u32,
        })
    }

    /// The wire size the paper attributes to an element ("encoded using
    /// 64 bits"), in bytes.
    pub const fn encoded_bytes(&self) -> usize {
        8
    }

    fn check(&self, field: &'static str, value: u64, bits: u32) -> Result<(), CodecError> {
        if value >> bits != 0 {
            Err(CodecError::FieldOverflow { field, value, bits })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_codec_round_trips() {
        let codec = ElementCodec::default();
        let element = PostingElement {
            doc: DocId(123_456),
            term: TermId(987_654),
            tf_quantized: 2_345,
        };
        let encoded = codec.encode(element).unwrap();
        assert_eq!(codec.decode(encoded).unwrap(), element);
    }

    #[test]
    fn extreme_values_round_trip() {
        let codec = ElementCodec::default();
        let element = PostingElement {
            doc: DocId((1 << 26) - 1),
            term: TermId((1 << 22) - 1),
            tf_quantized: (1 << 12) - 1,
        };
        let encoded = codec.encode(element).unwrap();
        assert_eq!(codec.decode(encoded).unwrap(), element);
    }

    #[test]
    fn overflow_is_reported_per_field() {
        let codec = ElementCodec::default();
        let too_big_doc = PostingElement {
            doc: DocId(1 << 26),
            term: TermId(0),
            tf_quantized: 0,
        };
        assert!(matches!(
            codec.encode(too_big_doc),
            Err(CodecError::FieldOverflow { field: "doc", .. })
        ));
        let too_big_term = PostingElement {
            doc: DocId(0),
            term: TermId(1 << 22),
            tf_quantized: 0,
        };
        assert!(matches!(
            codec.encode(too_big_term),
            Err(CodecError::FieldOverflow { field: "term", .. })
        ));
    }

    #[test]
    fn widths_must_fit_the_field() {
        // The three fields pack below the 61-bit modulus.
        let codec = ElementCodec::default();
        assert!(codec.doc_bits + codec.term_bits + codec.tf_bits <= 60);
    }

    #[test]
    fn decode_rejects_out_of_range_values() {
        let codec = ElementCodec {
            doc_bits: 10,
            term_bits: 10,
            tf_bits: 10,
        };
        let giant = Fp::new(1 << 40);
        assert_eq!(codec.decode(giant).unwrap_err(), CodecError::OutOfRange);
    }

    #[test]
    fn tf_quantization_never_drops_presence() {
        let codec = ElementCodec::default();
        assert_eq!(codec.quantize_tf(0.0), 0);
        assert!(codec.quantize_tf(1e-9) >= 1, "tiny tf must stay non-zero");
        assert_eq!(codec.quantize_tf(1.0), (1 << 12) - 1);
        assert_eq!(codec.quantize_tf(2.0), (1 << 12) - 1, "clamped");
    }

    #[test]
    fn tf_round_trip_error_is_bounded() {
        let codec = ElementCodec::default();
        for tf in [0.001, 0.01, 0.1, 0.33, 0.5, 0.99] {
            let q = codec.quantize_tf(tf);
            let back = codec.dequantize_tf(q);
            assert!((back - tf).abs() < 1.0 / 4096.0, "tf {tf} -> {back}");
        }
    }

    #[test]
    fn term_frequency_helper_uses_codec() {
        let codec = ElementCodec::default();
        let element = PostingElement {
            doc: DocId(1),
            term: TermId(1),
            tf_quantized: codec.quantize_tf(0.25),
        };
        assert!((element.term_frequency(&codec) - 0.25).abs() < 1e-3);
    }
}
