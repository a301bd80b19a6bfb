//! Integrity consumer over f32 inputs (`pfpl::verify_archive` and
//! `pfpl::decompress_salvage` on damaged archives). See
//! `pfplbench::integrity::run` for flags.

fn main() {
    pfplbench::integrity::run::<f32>();
}
