//! Snippet retrieval (Section 5.4.2).
//!
//! "Search engine results usually include a document ID and also a
//! small portion of the document content surrounding the query term.
//! Such context information cannot be stored on the index servers due
//! to security and space concerns. Zerber clients request snippets
//! from the peers hosting the top-K documents before presenting the
//! search results to the user."

use std::collections::HashMap;

use parking_lot::RwLock;

use zerber_index::DocId;

/// A document host that can serve result snippets.
pub trait SnippetProvider: Send + Sync {
    /// A short excerpt of the document centered on `query_term` (by
    /// its surface form), or `None` if the document is unknown.
    fn snippet(&self, doc: DocId, query_term: &str) -> Option<String>;
}

/// In-memory snippet service backed by the owner's raw document texts.
#[derive(Debug, Default)]
pub struct OwnerSnippetService {
    texts: RwLock<HashMap<DocId, String>>,
    window: usize,
}

impl OwnerSnippetService {
    /// Creates a service producing snippets of roughly `window` bytes
    /// (the paper measures ~250 B including XML wrapping).
    pub fn new(window: usize) -> Self {
        Self {
            texts: RwLock::new(HashMap::new()),
            window: window.max(16),
        }
    }

    /// Registers (or replaces) a document's text.
    pub fn store(&self, doc: DocId, text: impl Into<String>) {
        self.texts.write().insert(doc, text.into());
    }
}

impl SnippetProvider for OwnerSnippetService {
    fn snippet(&self, doc: DocId, query_term: &str) -> Option<String> {
        let texts = self.texts.read();
        let text = texts.get(&doc)?;
        let lower = text.to_lowercase();
        let needle = query_term.to_lowercase();
        let center = lower.find(&needle).unwrap_or(0);
        let half = self.window / 2;
        let start = center.saturating_sub(half);
        // Align to char boundaries.
        let start = (0..=start)
            .rev()
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(0);
        let end = (center + half).min(text.len());
        let end = (end..=text.len())
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(text.len());
        Some(format!("<snippet>{}</snippet>", &text[start..end]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_centers_on_the_query_term() {
        let service = OwnerSnippetService::new(40);
        let doc = DocId(1);
        let filler = "x ".repeat(100);
        service.store(doc, format!("{filler}IMCLONE{filler}"));
        let snippet = service.snippet(doc, "imclone").unwrap();
        assert!(snippet.contains("IMCLONE"));
        assert!(snippet.len() <= 40 + "<snippet></snippet>".len() + 4);
    }

    #[test]
    fn unknown_documents_yield_none() {
        let service = OwnerSnippetService::new(100);
        assert!(service.snippet(DocId(9), "term").is_none());
    }

    #[test]
    fn missing_term_falls_back_to_document_start() {
        let service = OwnerSnippetService::new(20);
        service.store(DocId(1), "the beginning of a long document body");
        let snippet = service.snippet(DocId(1), "zzzznothere").unwrap();
        assert!(snippet.contains("the begin"));
    }

    #[test]
    fn unicode_boundaries_are_respected() {
        let service = OwnerSnippetService::new(10);
        service.store(DocId(1), "ЦерберЦерберЦербер");
        // Must not panic on char boundaries.
        let snippet = service.snippet(DocId(1), "цербер").unwrap();
        assert!(snippet.starts_with("<snippet>"));
    }
}
