//! Runs the `fig15` experiment (`hermes_bench::experiments::fig15`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig15::EXPERIMENT)
}
