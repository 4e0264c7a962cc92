//! Shared harness for the reproduction experiments.
//!
//! Each paper artifact (Table 1, Figures 5–12, the Section 7.1–7.3
//! security / bandwidth / storage measurements, the Section 7.5
//! ablations) has one function here returning a structured result; the
//! `repro` binary formats them, and tests can assert on the numbers
//! directly. Everything but `micro`'s wall-clock throughput is
//! deterministic given the built-in seeds.
//!
//! This crate reproduces the paper; it does not measure this
//! repository's own performance. That is the job of the repository
//! benchmark (`BENCHMARK.json`, package `benchmark/`).

pub(crate) mod report;
pub(crate) mod scenario;

pub mod experiments {
    //! One module per paper artifact.
    pub mod ablation;
    pub mod bandwidth;
    pub mod compression;
    pub mod fig10_qratio;
    pub mod fig11_efficiency;
    pub mod fig12_response;
    pub mod fig5_studip;
    pub mod fig6_workload;
    pub mod fig7_pt;
    pub mod fig8_r_vs_m;
    pub mod fig9_amplification;
    pub mod micro;
    pub mod security;
    pub mod storage;
    pub mod table1;
}

pub use scenario::Scale;
