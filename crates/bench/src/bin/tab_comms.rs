//! §5.3 communications table: crosslink and downlink budgets, plus
//! geometric ground-station contact time for the paper's orbit.

use eagleeye_bench::{print_csv, BenchCli};
use eagleeye_geo::GeodeticPoint;
use eagleeye_orbit::{access, GroundTrack, J2Propagator};
use eagleeye_sim::{CrosslinkBudget, DownlinkBudget, RadioModel};

fn main() {
    let cli = BenchCli::parse(&[]);
    let metrics = &cli.metrics;
    // Crosslink: leader -> follower schedules.
    let xl = CrosslinkBudget::paper_default();
    print_csv(
        "crosslink_bytes_per_orbit,airtime_s,negligible",
        [format!(
            "{:.0},{:.2},{}",
            xl.bytes_per_orbit,
            xl.airtime_s,
            xl.is_negligible()
        )],
    );
    println!();

    // Downlink: follower imagery vs a 6-minute contact.
    let radio = RadioModel::s_band();
    let mut rows = Vec::new();
    for captures in [50.0, 100.0, 400.0] {
        let b = DownlinkBudget::compute(&radio, 6.0 * 60.0, captures, 3_333.0, 0.1);
        rows.push(format!(
            "{captures},{:.1},{:.1},{:.2}",
            b.produced_bytes / 1e6,
            b.capacity_bytes / 1e6,
            b.deliverable_fraction()
        ));
    }
    print_csv(
        "captures_per_orbit,produced_mb,capacity_mb,deliverable_fraction",
        rows,
    );
    println!();

    // Geometric contact time with a polar ground station over 8 orbits.
    let track = GroundTrack::new(
        J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0).expect("valid orbit"),
    );
    let station = access::GroundStation::new(
        GeodeticPoint::from_degrees(78.2, 15.4, 0.0).expect("valid point"),
        5.0_f64.to_radians(),
    )
    .expect("valid station");
    let windows = access::contact_windows(&track, &station, 0.0, 8.0 * 5_640.0, 15.0)
        .expect("contact computation");
    let total_s: f64 = windows.iter().map(|w| w.duration_s()).sum();
    metrics.add("orbit/contact_windows", windows.len() as u64);
    print_csv(
        "contacts_in_8_orbits,total_contact_min,mean_contact_min",
        [format!(
            "{},{:.1},{:.1}",
            windows.len(),
            total_s / 60.0,
            total_s / 60.0 / windows.len().max(1) as f64
        )],
    );
    cli.finish("tab_comms");
}
