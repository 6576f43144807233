//! Runs the `probe_demo` experiment (`hermes_bench::experiments::probe_demo`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::probe_demo::EXPERIMENT)
}
