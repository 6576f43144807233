//! Runs the `fig17c` experiment (`hermes_bench::experiments::fig17c`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig17c::EXPERIMENT)
}
