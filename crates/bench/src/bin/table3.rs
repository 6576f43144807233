//! Runs the `table3` experiment (`hermes_bench::experiments::table3`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::table3::EXPERIMENT)
}
