//! `dsm` — the one harness binary; see [`dsm_bench::dispatch`].

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    dsm_bench::dispatch(std::env::args().skip(1))
}
