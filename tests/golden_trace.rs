//! Golden-trace snapshot: the Chrome-trace export of a seeded two-epoch
//! FreshGNN run is committed under `tests/golden/` and must re-export
//! byte-identically. This pins the whole deterministic chain — sampling,
//! pruning, the interconnect model, the sim clock, the span tree and the
//! JSON serialization — in one artifact. The overlapped epoch trains the
//! same stream with the same span shape, so it must re-export the same file.
//!
//! To regenerate after an *intentional* schema or model change:
//! `FGNN_REGEN_GOLDEN=1 cargo test --test golden_trace`.

use freshgnn_repro::core::obs::export;
use freshgnn_repro::core::{FreshGnnConfig, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;

const GOLDEN_REL: &str = "tests/golden/sync_trainer_2epoch.trace.json";

/// The seeded run the golden file captures: two epochs of the FreshGNN
/// trainer on the 256-node arxiv dataset, sampled by `workers` pool threads
/// (`0`: on the training thread, `train_epoch`).
fn render_trace(workers: usize) -> String {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 1234);
    let cfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![3, 3],
        batch_size: 64,
        ..Default::default()
    };
    let mut t = Trainer::new(&ds, Arch::Sage, 8, Machine::single_a100(), cfg, 1234);
    let mut opt = Adam::new(0.01);
    for _ in 0..2 {
        t.train_epoch_async(&ds, &mut opt, workers, 4)
            .expect("fault-free epoch");
    }
    export::chrome_trace(&[("freshgnn/sync", &t.obs.tracer)])
}

#[test]
fn golden_trace_reexports_byte_identically() {
    let rendered = render_trace(0);
    assert_eq!(
        rendered,
        render_trace(0),
        "trace export must be deterministic in-process"
    );
    assert!(
        rendered.starts_with(&format!(
            "{{\"schemaVersion\":\"{}\"",
            export::SCHEMA_VERSION
        )),
        "trace must lead with the schema version"
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_REL);
    if std::env::var("FGNN_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden trace");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()));
    assert_eq!(
        rendered, committed,
        "trace drifted from the committed golden; if the change is \
         intentional, regenerate with FGNN_REGEN_GOLDEN=1"
    );
    for workers in [1, 2] {
        assert_eq!(render_trace(workers), committed, "workers={workers}");
    }
}
