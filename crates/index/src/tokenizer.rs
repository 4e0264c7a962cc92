//! Document tokenization.
//!
//! "To index a document, its owner first parses the document and
//! computes its elements" (Section 5.1). The tokenizer lower-cases,
//! splits on non-alphanumeric characters and keeps every token. There
//! is no stop-word removal because the paper explicitly kept stop
//! words: "we did not remove stop words" (Section 7.5) — the most
//! frequent terms are exactly the ones whose protection/merging
//! trade-off the evaluation studies.

/// Tokens longer than this many characters are truncated (a defensive
/// bound against pathological inputs).
const MAX_TOKEN_LEN: usize = 64;

/// The tokenizer every owner indexes with.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// A tokenizer that keeps everything, like the paper's evaluation.
    pub fn new() -> Self {
        Self
    }

    /// Tokenizes `text` into lower-case terms.
    pub(crate) fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                for lower in ch.to_lowercase() {
                    current.push(lower);
                }
            } else if !current.is_empty() {
                self.flush(&mut current, &mut tokens);
            }
        }
        if !current.is_empty() {
            self.flush(&mut current, &mut tokens);
        }
        tokens
    }

    fn flush(&self, current: &mut String, tokens: &mut Vec<String>) {
        let mut token = std::mem::take(current);
        if token.chars().count() > MAX_TOKEN_LEN {
            token = token.chars().take(MAX_TOKEN_LEN).collect();
        }
        tokens.push(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        let tokenizer = Tokenizer::new();
        assert_eq!(
            tokenizer.tokenize("Martha, ImClone; layoff!"),
            vec!["martha", "imclone", "layoff"]
        );
    }

    #[test]
    fn lowercases_unicode() {
        let tokenizer = Tokenizer::new();
        assert_eq!(
            tokenizer.tokenize("Цербер İstanbul"),
            vec!["цербер", "i̇stanbul"]
        );
    }

    #[test]
    fn keeps_digits() {
        let tokenizer = Tokenizer::new();
        assert_eq!(
            tokenizer.tokenize("doc1.eml HTTP 1.0"),
            vec!["doc1", "eml", "http", "1", "0"]
        );
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        let tokenizer = Tokenizer::new();
        assert!(tokenizer.tokenize("").is_empty());
        assert!(tokenizer.tokenize("  ,;--  ").is_empty());
    }

    #[test]
    fn overlong_tokens_are_truncated() {
        let tokenizer = Tokenizer::new();
        let long = "hesselhofer".repeat(7);
        assert_eq!(
            tokenizer.tokenize(&long),
            vec![long[..MAX_TOKEN_LEN].to_owned()]
        );
    }
}
