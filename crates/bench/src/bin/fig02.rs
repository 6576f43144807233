//! Runs the `fig02` experiment (`hermes_bench::experiments::fig02`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig02::EXPERIMENT)
}
