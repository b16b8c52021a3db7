use eagleeye_detect::{TileElision, TilingConfig, YoloVariant};

/// What a satellite does during one orbit, for energy accounting.
///
/// Build one by hand or from the presets that mirror the constellation
/// roles in the paper's Fig. 16: leaders image and process the whole
/// ground track; followers slew and capture on command; baselines image,
/// process, and downlink everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityProfile {
    /// Low- or high-resolution frames captured this orbit.
    pub frames_captured: f64,
    /// ML inference tiles processed this orbit.
    pub tiles_processed: f64,
    /// Per-tile inference latency, seconds.
    pub per_tile_latency_s: f64,
    /// Seconds spent actively slewing.
    pub slew_s: f64,
    /// Seconds spent transmitting (downlink + crosslink).
    pub tx_s: f64,
}

impl ActivityProfile {
    /// Frames per orbit at the paper's 15 s capture cadence over a
    /// ~94 minute orbit.
    pub const FRAMES_PER_ORBIT: f64 = 5_640.0 / 15.0;

    /// Leader preset: full ground-track imaging and inference at the
    /// given tile factor, negligible slewing (nadir pointing), crosslink
    /// only (schedules are ~2 KB each; well under a minute of radio
    /// time).
    pub fn leader_default(tile_factor: f64) -> Self {
        let tiling = TilingConfig {
            tile_factor,
            ..TilingConfig::paper_default()
        };
        ActivityProfile {
            frames_captured: Self::FRAMES_PER_ORBIT,
            tiles_processed: Self::FRAMES_PER_ORBIT * tiling.tiles_per_frame() as f64,
            per_tile_latency_s: YoloVariant::N.per_tile_latency_s(),
            slew_s: 0.0,
            tx_s: 30.0,
        }
    }

    /// Follower preset: `captures` high-resolution captures this orbit,
    /// each preceded by ~`mean_slew_s` of actuation; six minutes of
    /// downlink (paper §5.3); no onboard inference.
    pub fn follower_default(captures: f64, mean_slew_s: f64) -> Self {
        ActivityProfile {
            frames_captured: captures,
            tiles_processed: 0.0,
            per_tile_latency_s: 0.0,
            slew_s: captures * mean_slew_s,
            tx_s: 6.0 * 60.0,
        }
    }

    /// Homogeneous baseline preset (Low-Res Only / High-Res Only):
    /// image the whole track, process it, and downlink for six minutes.
    pub fn baseline_default(tile_factor: f64) -> Self {
        let tiling = TilingConfig {
            tile_factor,
            ..TilingConfig::paper_default()
        };
        ActivityProfile {
            frames_captured: Self::FRAMES_PER_ORBIT,
            tiles_processed: Self::FRAMES_PER_ORBIT * tiling.tiles_per_frame() as f64,
            per_tile_latency_s: YoloVariant::N.per_tile_latency_s(),
            slew_s: 0.0,
            tx_s: 6.0 * 60.0,
        }
    }

    /// Leader preset with Kodan-style tile elision (extension): only
    /// `keep_fraction` of each frame's tiles are processed, cutting
    /// compute energy proportionally — the knob that brings dense
    /// tilings back under the energy budget.
    pub fn leader_with_elision(tile_factor: f64, keep_fraction: f64) -> Self {
        let tiling = TilingConfig {
            tile_factor,
            ..TilingConfig::paper_default()
        };
        let elision = TileElision::new(keep_fraction);
        ActivityProfile {
            tiles_processed: Self::FRAMES_PER_ORBIT * elision.tiles_per_frame(&tiling) as f64,
            ..Self::leader_default(tile_factor)
        }
    }

    /// Mix-camera preset: leader workload plus follower-style slewing for
    /// its own captures.
    pub fn mix_camera_default(tile_factor: f64, captures: f64, mean_slew_s: f64) -> Self {
        let leader = Self::leader_default(tile_factor);
        ActivityProfile {
            frames_captured: leader.frames_captured + captures,
            slew_s: captures * mean_slew_s,
            tx_s: 6.0 * 60.0,
            ..leader
        }
    }

    /// Total compute-active seconds this orbit.
    pub fn compute_s(&self) -> f64 {
        self.tiles_processed * self.per_tile_latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_compute_time_scales_with_tile_factor() {
        let one = ActivityProfile::leader_default(1.0);
        let four = ActivityProfile::leader_default(4.0);
        assert!((four.compute_s() / one.compute_s() - 4.0).abs() < 0.05);
    }

    #[test]
    fn leader_processes_every_frame() {
        let l = ActivityProfile::leader_default(1.0);
        assert!((l.frames_captured - 376.0).abs() < 1.0);
        assert!((l.tiles_processed - 376.0 * 100.0).abs() < 100.0);
    }

    #[test]
    fn follower_has_no_compute() {
        let f = ActivityProfile::follower_default(400.0, 3.0);
        assert_eq!(f.compute_s(), 0.0);
        assert_eq!(f.slew_s, 1_200.0);
    }

    #[test]
    fn leader_transmits_less_than_baseline() {
        // The leader crosslinks schedules instead of downlinking imagery.
        let l = ActivityProfile::leader_default(1.0);
        let b = ActivityProfile::baseline_default(1.0);
        assert!(l.tx_s < b.tx_s);
    }

    #[test]
    fn elision_reduces_leader_compute_proportionally() {
        let full = ActivityProfile::leader_default(4.0);
        let elided = ActivityProfile::leader_with_elision(4.0, 0.4);
        assert!((elided.compute_s() / full.compute_s() - 0.4).abs() < 0.02);
    }

    #[test]
    fn elision_makes_dense_tiling_energy_feasible() {
        // The paper's infeasible 4x tiling fits the budget once ~60% of
        // tiles are elided (Kodan's regime).
        let power = crate::PowerProfile::cubesat_3u();
        let dense =
            crate::simulate_orbit(&power, &ActivityProfile::leader_default(4.0), 0.62, 5_640.0);
        assert!(!dense.is_energy_feasible());
        let elided = crate::simulate_orbit(
            &power,
            &ActivityProfile::leader_with_elision(4.0, 0.4),
            0.62,
            5_640.0,
        );
        assert!(elided.is_energy_feasible());
    }

    #[test]
    fn mix_camera_adds_slewing_on_top_of_leader_load() {
        let m = ActivityProfile::mix_camera_default(1.0, 100.0, 3.0);
        let l = ActivityProfile::leader_default(1.0);
        assert!(m.slew_s > 0.0);
        assert_eq!(m.compute_s(), l.compute_s());
        assert!(m.frames_captured > l.frames_captured);
    }
}
