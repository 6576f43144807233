//! Runs the `fig18t` experiment (`hermes_bench::experiments::fig18t`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig18t::EXPERIMENT)
}
