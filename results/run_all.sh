#!/bin/bash
# Regenerates every figure's data. Moderate settings chosen to finish on a
# single core in ~1.5 h; see EXPERIMENTS.md for full-scale instructions.
set -x
cd /root/repo
B=./target/release
$B/fig3_oiltank_gsd            > results/fig3.csv  2> results/fig3.log
$B/fig10_lookahead             > results/fig10.csv 2> results/fig10.log
$B/fig14b_tiling               > results/fig14b.csv 2> results/fig14b.log
$B/fig16_energy                > results/fig16.csv 2> results/fig16.log
$B/fig12a_runtime              > results/fig12a.csv 2> results/fig12a.log
$B/tab_clu                     > results/tab_clu.csv 2> results/tab_clu.log
$B/fig14a_follower_capacity --fast > results/fig14a.csv 2> results/fig14a.log
$B/fig4_swath_tradeoff  --hours 2 --scale 0.5 > results/fig4.csv  2> results/fig4.log
$B/fig12b_target_cdf    --hours 2 --scale 1.0 > results/fig12b.csv 2> results/fig12b.log
$B/fig11a_coverage      --hours 2 --scale 0.5 > results/fig11a.csv 2> results/fig11a.log
$B/fig13_mix_camera     --hours 2 --scale 0.5 > results/fig13.csv 2> results/fig13.log
$B/fig14c_clustering    --hours 2 --scale 0.5 > results/fig14c.csv 2> results/fig14c.log
$B/fig15_recall         --fast --hours 2 --scale 0.5 > results/fig15.csv 2> results/fig15.log
$B/fig11b_slew_rate     --fast --hours 2 --scale 0.5 > results/fig11b.csv 2> results/fig11b.log
$B/fig11c_followers     --fast --hours 2 --scale 0.5 > results/fig11c.csv 2> results/fig11c.log
$B/fig1b_constellation_size --fast --hours 1 --scale 0.3 > results/fig1b.csv 2> results/fig1b.log
$B/ext_fault_tolerance         > results/ext_fault_tolerance.csv 2> results/ext_fault_tolerance.log
$B/ext_recapture               > results/ext_recapture.csv 2> results/ext_recapture.log
echo ALL_DONE
