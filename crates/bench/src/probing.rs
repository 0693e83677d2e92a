//! `--trace` / `--profile` plumbing shared by the probed figure binaries.
//!
//! Each traceable sweep is one body generic over a [`Probe`] that takes a
//! [`StageProfiler`] too. This module turns the two flags into that probe:
//! without `--trace` the sweep gets a [`NullProbe`], which keeps the seeded
//! runs on the threaded production path, and `--trace <path>` streams the
//! full event record as JSON Lines from a sequential run. `--profile`
//! renders the stage timings either way.
//!
//! Binaries run probes through `&mut dyn Probe`: one JSONL writer is not
//! a hot path, and dynamic dispatch here keeps the binaries from
//! monomorphizing every sweep twice. The engines themselves stay generic
//! (the `hybridcast-lint` hot-path rule bans `dyn Probe` there).

use std::fs::File;
use std::io::BufWriter;

use hybridcast_obs::{JsonlProbe, NullProbe, Probe, StageProfiler};

use crate::cli::Args;

/// The observability options of a figure binary.
#[derive(Debug)]
pub struct ProbeOptions {
    /// Stream the structured event record to this JSONL file (`--trace`).
    pub trace: Option<String>,
    /// Render the wall-clock stage breakdown to stderr (`--profile`).
    pub profile: bool,
}

impl ProbeOptions {
    /// The command-line keys [`ProbeOptions::from_args`] reads.
    pub const OPTIONS: &'static [&'static str] = &["trace", "profile"];

    /// Parses `--trace <path>` and `--profile`.
    pub fn from_args(args: &Args) -> Self {
        ProbeOptions {
            trace: args.value("trace").map(str::to_owned),
            profile: args.flag("profile"),
        }
    }

    /// Runs `f` with the configured probe and profiler, finalizes the
    /// trace file, and renders the profile to stderr when requested.
    ///
    /// # Errors
    ///
    /// Returns an error if the trace file cannot be created, written or
    /// flushed.
    pub fn run_probed<T>(
        &self,
        f: impl FnOnce(&mut dyn Probe, &mut StageProfiler) -> T,
    ) -> Result<T, String> {
        let mut profiler = StageProfiler::new();
        let result = match &self.trace {
            Some(path) => {
                let file = File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
                let mut probe = JsonlProbe::new(BufWriter::new(file))
                    .map_err(|e| format!("--trace {path}: {e}"))?;
                let result = f(&mut probe, &mut profiler);
                probe.finish().map_err(|e| format!("--trace {path}: {e}"))?;
                result
            }
            None => f(&mut NullProbe, &mut profiler),
        };
        if self.profile {
            eprint!("{}", profiler.render());
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_btree_is_rejected() {
        let args = Args::parse(["--trace", "/tmp/t.jsonl", "--profile"]).unwrap();
        let options = ProbeOptions::from_args(&args);
        assert!(options.profile);
        assert_eq!(options.trace.as_deref(), Some("/tmp/t.jsonl"));

        let none = ProbeOptions::from_args(&Args::parse([] as [&str; 0]).unwrap());
        assert!(none.trace.is_none() && !none.profile);

        // Traces hook the dense engines, the only ones the binaries run.
        let btree = Args::parse(["--trace", "/tmp/t.jsonl", "--engine", "btree"]).unwrap();
        assert_eq!(
            btree.reject_unknown(&[ProbeOptions::OPTIONS]),
            Err("unknown option --engine".to_owned())
        );
    }

    #[test]
    fn run_probed_without_trace_uses_the_null_probe() {
        let options = ProbeOptions {
            trace: None,
            profile: false,
        };
        let seen = options
            .run_probed(|probe, profiler| {
                profiler.stage("work");
                probe.enabled()
            })
            .unwrap();
        assert!(!seen, "no --trace means the inert NullProbe");
    }
}
