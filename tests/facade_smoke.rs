//! Smoke test for the workspace wiring itself: every member crate must
//! stay reachable both directly and through the `zerber-repro` facade.
//!
//! If a future manifest edit drops a workspace member or a facade
//! re-export, this file stops compiling — the failure is a build error
//! naming the missing crate, not a silently shrunk dependency surface.

// Direct dependencies declared in the root manifest.
use zerber::{ZerberConfig, ZerberSystem};

// Every re-export of the facade crate in `src/lib.rs`.
use zerber_repro::zerber as facade_zerber;
use zerber_repro::zerber_attacks as _;
use zerber_repro::zerber_client as _;
use zerber_repro::zerber_core as _;
use zerber_repro::zerber_corpus as _;
use zerber_repro::zerber_field as _;
use zerber_repro::zerber_index as _;
use zerber_repro::zerber_net as _;
use zerber_repro::zerber_segment as _;
use zerber_repro::zerber_server as _;
use zerber_repro::zerber_shamir as _;

#[test]
fn facade_reexports_resolve() {
    // One load-bearing item per layer, spelled through the facade, so
    // the re-exports are proven to be the real crates rather than
    // accidental empty shims.
    let fp = zerber_repro::zerber_field::Fp::new(42);
    assert_eq!(fp.value(), 42);

    let config: facade_zerber::ZerberConfig = ZerberConfig::default();
    assert!(config.threshold >= 1);
    assert!(config.servers >= config.threshold);

    let codec = zerber_repro::zerber_core::ElementCodec::default();
    assert_eq!(codec.encoded_bytes(), 8);

    let sizes = zerber_repro::zerber_net::SizeModel::default();
    assert!(sizes.zerber_element_bytes() >= sizes.plain_element_bytes);
}

#[test]
fn direct_and_facade_paths_are_the_same_crate() {
    // Type identity across the two import paths: a value built via the
    // direct dependency must typecheck where the facade path is named.
    let direct: ZerberConfig = ZerberConfig::default();
    let via_facade: facade_zerber::ZerberConfig = direct;
    let _system_ctor: fn(
        ZerberConfig,
        &zerber_repro::zerber_index::CorpusStats,
    ) -> Result<ZerberSystem, facade_zerber::SystemError> = ZerberSystem::bootstrap;
    let _ = via_facade;
}
