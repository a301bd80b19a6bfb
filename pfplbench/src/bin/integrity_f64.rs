//! Integrity consumer over f64 inputs (`pfpl::verify_archive` and
//! `pfpl::decompress_salvage` on damaged archives). See
//! `pfplbench::integrity::run` for flags.

fn main() {
    pfplbench::integrity::run::<f64>();
}
