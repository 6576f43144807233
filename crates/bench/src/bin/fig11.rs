//! Runs the `fig11` experiment (`hermes_bench::experiments::fig11`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig11::EXPERIMENT)
}
