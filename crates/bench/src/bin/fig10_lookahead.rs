//! Fig. 10 — maximum leader-follower lookahead distance vs. target
//! speed (500 km altitude, V_sat = 7.5 km/s, 10 km follower swath,
//! γ = 0.1), with the paper's ship (14 m/s) and plane (250 m/s) anchors.

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_core::lookahead::max_lookahead_m;

fn main() {
    let cli = BenchCli::parse(&[]);
    let metrics = &cli.metrics;
    let swath_m = 10_000.0;
    let sat_speed = 7_500.0;
    let gamma = 0.1;
    let mut rows = Vec::new();
    for speed in (10..=300).step_by(10) {
        let d = max_lookahead_m(speed as f64, swath_m, sat_speed, gamma).expect("valid parameters");
        metrics.incr("core/lookahead_evaluations");
        rows.push(format!("{speed},{:.1}", d / 1000.0));
    }
    print_csv("target_speed_m_s,max_lookahead_km", rows);

    println!();
    let ship = max_lookahead_m(14.0, swath_m, sat_speed, gamma).expect("valid parameters");
    let plane = max_lookahead_m(250.0, swath_m, sat_speed, gamma).expect("valid parameters");
    print_csv(
        "anchor,speed_m_s,max_lookahead_km",
        [
            format!("ship,14,{:.1}", ship / 1000.0),
            format!("plane,250,{:.1}", plane / 1000.0),
        ],
    );
    cli.finish("fig10_lookahead");
}
