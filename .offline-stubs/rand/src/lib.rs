//! Placeholder: nothing in the workspace depends on `rand` any more. The
//! directory exists because `crates/flowbench/run.sh` patches it in by
//! path, and cargo refuses a patch whose path is missing.
