//! Runs the `table6` experiment (`hermes_bench::experiments::table6`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::table6::EXPERIMENT)
}
