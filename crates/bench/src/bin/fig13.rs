//! Runs the `fig13` experiment (`hermes_bench::experiments::fig13`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig13::EXPERIMENT)
}
