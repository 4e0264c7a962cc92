//! Quickstart: share a handful of sensitive documents inside two
//! project groups, search them through the r-confidential index, and
//! fetch snippets — the whole Zerber workflow in ~100 lines.
//!
//! Run with: `cargo run --example quickstart`

use zerber::{ZerberConfig, ZerberSystem};
use zerber_client::{OwnerSnippetService, SnippetProvider};
use zerber_core::merge::MergeConfig;
use zerber_index::{DocId, GroupId, RawDocument, TermDict, Tokenizer, UserId};
use zerber_obs::{QueryTrace, TraceId};

fn main() {
    // --- 1. The sensitive documents of two collaboration groups. ----
    let texts = [
        (
            1u32,
            0u32,
            "Martha spoke with the ImClone board about the layoff plan.",
        ),
        (
            2,
            0,
            "The layoff schedule for Q3 is attached; do not forward.",
        ),
        (
            3,
            1,
            "Hesselhofer is a finalist for the CEO position at HP.",
        ),
        (
            4,
            1,
            "Board meeting notes: CEO succession and the buyout offer.",
        ),
    ];
    let tokenizer = Tokenizer::new();
    let mut dict = TermDict::new();
    let raw_docs: Vec<RawDocument> = texts
        .iter()
        .map(|&(id, group, text)| RawDocument {
            id: DocId::from_parts(group as u16, id),
            group: GroupId(group),
            text: text.to_owned(),
        })
        .collect();
    let documents: Vec<_> = raw_docs
        .iter()
        .map(|raw| raw.process(&tokenizer, &mut dict))
        .collect();

    // --- 2. Bootstrap Zerber: 2-out-of-3 sharing, 8 merged lists. ---
    // Merging is learned from corpus statistics (here: the corpus
    // itself; production learns from a prefix).
    let mut index = zerber_index::InvertedIndex::new();
    for doc in &documents {
        index.insert(doc);
    }
    let stats = index.statistics();
    let config = ZerberConfig::default().with_merge(MergeConfig::dfm(8));
    let mut system = ZerberSystem::bootstrap(config, &stats).expect("bootstrap");
    println!(
        "deployed {} index servers, k = {}, {} merged posting lists, achieved r = {:.2}",
        system.servers().len(),
        system.scheme().threshold(),
        system.plan().list_count(),
        system.plan().achieved_r(),
    );

    // --- 3. Group membership: alice in group 0, bob in both. --------
    let alice = UserId(1);
    let bob = UserId(2);
    system.add_membership(alice, GroupId(0));
    system.add_membership(bob, GroupId(0));
    system.add_membership(bob, GroupId(1));

    // --- 4. Owners index their documents (encrypt + distribute). ----
    let snippets = OwnerSnippetService::new(120);
    for (raw, doc) in raw_docs.iter().zip(&documents) {
        system.index_document(doc).expect("index");
        snippets.store(doc.id, raw.text.clone());
    }
    println!(
        "indexed {} documents / {} posting elements per server",
        documents.len(),
        system.elements_per_server()
    );

    // --- 5. Search. --------------------------------------------------
    for (user, name) in [(alice, "alice"), (bob, "bob")] {
        for word in ["layoff", "ceo"] {
            let Some(term) = dict.get(word) else { continue };
            let outcome = system.query(user, &[term], 10).expect("query");
            println!(
                "\n{name} searches \"{word}\": {} hit(s)",
                outcome.ranked.len()
            );
            for hit in &outcome.ranked {
                let snippet = snippets
                    .snippet(hit.doc, word)
                    .unwrap_or_else(|| "<no snippet>".to_owned());
                println!("  {} (score {:.3}) {}", hit.doc, hit.score, snippet);
            }
        }
    }

    // --- 6. Revocation is instant: no re-encryption, no re-keying. --
    system.remove_membership(alice, GroupId(0));
    let term = dict.get("layoff").unwrap();
    let after = system.query(alice, &[term], 10).expect("query");
    println!(
        "\nafter revoking alice from group 0: \"layoff\" returns {} hits for alice",
        after.ranked.len()
    );

    // --- 7. Every query says where its time went. ---------------------
    let outcome = system.query(bob, &[term], 10).expect("query");
    let trace = QueryTrace {
        id: TraceId(0),
        label: "bob searches \"layoff\"".to_owned(),
        total: outcome.trace.duration,
        root: outcome.trace,
    };
    print!("\n{}", trace.render());

    // --- 8. Everything above was metered. ----------------------------
    println!(
        "total simulated network traffic: {} bytes",
        system.traffic().total()
    );
}
