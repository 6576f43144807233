//! Runs the `fig21` experiment (`hermes_bench::experiments::fig21`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig21::EXPERIMENT)
}
