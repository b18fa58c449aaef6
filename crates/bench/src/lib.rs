//! Paper-reproduction harness: `src/bin/*` regenerate the tables and figures, `benches/` hold the plain-harness ablation studies.
