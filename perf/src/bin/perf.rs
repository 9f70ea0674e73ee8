//! `perf` — the timed run: no spans, the system allocator. See
//! `dsm_perf::cli` for the command line.

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    dsm_perf::cli::main(None)
}
