//! One-shot codec consumer over f64 inputs (`pfpl::compress` and
//! `pfpl::decompress` only). See `pfplbench::codec::run` for flags.

fn main() {
    pfplbench::codec::run::<f64>();
}
