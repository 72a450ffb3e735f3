//! Print the LUT kernel body this host dispatches to and the bodies the
//! crate's bit-identity tests can check here (every runnable one).
//!
//! ```text
//! cargo run -q -p axcore-simd --example lut_bodies
//! ```

use axcore_simd::{lut_body, self_test, LutBody};

fn main() {
    let runnable: Vec<&str> =
        LutBody::ALL.into_iter().filter(|b| b.runnable()).map(LutBody::name).collect();
    println!(
        "LUT kernel body: {} (self test {}); bodies checked on this host: {}",
        lut_body().name(),
        if self_test() { "passed" } else { "FAILED" },
        runnable.join(", ")
    );
}
