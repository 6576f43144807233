//! Runs the `fig18p` experiment (`hermes_bench::experiments::fig18p`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig18p::EXPERIMENT)
}
