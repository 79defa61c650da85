#!/usr/bin/env bash
# Writes the files of the byte-identity CI step into the directory named by
# its one argument, and their paths relative to it, one a line, into
# files.txt there.  Run it from the root of a source checkout: it imports
# semiband from src/.
#
#   bash .github/byte_files.sh OUT
#
# 130 random points, on the benchmark's Dirac (gaussian V) and neutrino models,
# on its generic two_level model (n = 2, where stacked and block products round
# differently) and on two z-only two_level models, whose gauge term is a
# structural zero: the default (h3 > 0) and one with h3 < 0 (the lower branch
# of the gauge term's lift); on a z-only two_level model with "half" R_x^2
# P_x^2 and R_x^3 P_x^3 terms, whose nonzero ordering bracket the batched
# WeylExpr.evaluate path (one call per band for a whole chunk) writes into
# the band*_bracket columns; on a z-only two_level model with "half" R_x R_y
# P_x P_y and R_x^2 R_z P_x P_z^2 terms, whose brackets sum over more than one
# axis; and on a Dirac model in a coulomb potential and a neutrino model on a
# polynomial profile, whose field jets a frame makes once and shares between H
# and its derivatives.  diagonalize runs
# at order 2 in both representations and at orders 0 and 1, connections at
# connection orders "corrected" and "0".  A chunk is 64 points, so 130 points
# make three chunks, except in a two-band pass that builds no (6, 6, n, n)
# stack (energies at orders 0 and 1, order-0 connections), which takes 512
# points a chunk and so runs the 130 points as one.  So diagonalize also runs
# 600 random points at orders 0 and 1 on the Dirac and the generic two_level
# model (10 and 2 chunks), on a grid of 216 points of the Dirac model at
# order 1 (4 chunks) and on a list of explicit points of the generic
# two_level model at order 2.  trajectory runs an rk4 helicity pair on
# the ray-fan linear profile and an rk45 pair on its gaussian one, and rk4
# helicity pairs on a polynomial and on a coulomb profile, whose jets round
# differently from the linear and gaussian ones, on a reciprocal profile over
# a gaussian (F = 1/(1/n), a nested reciprocal jet) and on a uniform profile
# (a zero Hessian).  verify runs all suites with their defaults, and the
# dirac-canonical-oracle suite once more on 7 points, set in the config's
# "suites" table.  bracket-check runs at --seed 3 with its defaults, and
# once more with a config whose "suites" table sets cases and max_degree of
# the two random bracket suites.  Last, a z-only two_level model with h0 = 1
# and h3 = R_x, whose gap closes at R_x = 0, runs at six explicit points,
# R_x = 1e-6, 1e-7, 0, -1e-7, -1e-6 and 0.5: diagonalize at orders 0, 1 and
# 2, connections and curvature.  The frame refuses R_x = 0 (|h| = 0) at every
# order, and the band-commutator inversion the two points within the
# constant gap threshold, so these five commands list GapError points and
# exit 2, the one failing status the script accepts, and only from them.
set -euo pipefail

out=$1
mkdir -p "$out"
cfgs=$(mktemp -d)
trap 'rm -rf "$cfgs"' EXIT

points='"hbar": 0.01, "seed": 7, "random_points": {"count": 130, "p_range": [0.3, 3.0]}'
dirac='{"model": "dirac_electric", "m": 1.0, "e": 1.0, "field": {"kind": "gaussian", "amplitude": 0.8, "center": [0.2, -0.1, 0.3], "width": 1.4}}'
neutrino='{"model": "neutrino_metric", "field": {"kind": "gaussian", "amplitude": 0.4, "center": [0.3, 0.1, -0.2], "width": 2.0}}'
two_level='{"model": "two_level", "h0": [{"coef": "1/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0]}], "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}], [{"coef": "1/5", "r_exp": [0, 1, 0]}], [{"coef": "1"}, {"coef": "1/10", "r_exp": [0, 0, 2]}]]}'
two_level_z='{"model": "two_level"}'
two_level_down='{"model": "two_level", "h": [[], [], [{"coef": "-1"}, {"coef": "1/5", "r_exp": [2, 0, 0]}]]}'
two_level_mixed='{"model": "two_level", "h0": [{"coef": "1/2", "r_exp": [2, 0, 0]}, {"coef": "1/2", "p_exp": [2, 0, 0]}, {"coef": "1/10", "r_exp": [2, 0, 0], "p_exp": [2, 0, 0], "sym": "half"}], "h": [[], [], [{"coef": "1"}, {"coef": "1/20", "r_exp": [3, 0, 0], "p_exp": [3, 0, 0], "sym": "half"}]]}'
two_level_axes='{"model": "two_level", "h0": [{"coef": "1/2", "r_exp": [2, 0, 0]}, {"coef": "1/2", "p_exp": [2, 0, 0]}, {"coef": "1/10", "r_exp": [1, 1, 0], "p_exp": [1, 1, 0], "sym": "half"}], "h": [[], [], [{"coef": "1"}, {"coef": "1/20", "r_exp": [2, 0, 1], "p_exp": [1, 0, 2], "sym": "half"}]]}'
dirac_coulomb='{"model": "dirac_electric", "m": 1.0, "e": 1.0, "field": {"kind": "coulomb", "charge": 0.7, "softening": 0.6}}'
neutrino_poly='{"model": "neutrino_metric", "field": {"kind": "polynomial", "terms": [[1.5, [0, 0, 0]], [0.1, [1, 0, 0]], [0.05, [0, 2, 1]]]}}'
models="dirac neutrino two_level two_level_z two_level_down two_level_mixed two_level_axes dirac_coulomb neutrino_poly"
rays="rk4 rk45 rk4_poly rk4_coulomb rk4_reciprocal rk4_uniform"
for model in $models; do
  for rep in canonical covariant; do
    echo "{\"model\": ${!model}, \"representation\": \"$rep\", $points}" > "$cfgs/bytes-$model-$rep.json"
  done
  echo "{\"model\": ${!model}, \"connection_order\": \"0\", $points}" > "$cfgs/bytes-$model-conn0.json"
done
echo '{"model": {"model": "neutrino_metric", "field": {"kind": "linear", "gradient": [0.05, 0.0, 0.0], "offset": 1.5}}, "hbar": 0.001, "trajectory": {"P0": [0.2, 0.1, 1.0], "dt": 0.01, "steps": 400, "pair_lambdas": true}}' > "$cfgs/bytes-rk4.json"
echo '{"model": {"model": "neutrino_metric", "field": {"kind": "gaussian", "amplitude": 1.5, "center": [0.3, -0.2, 0.1], "width": 3.0}}, "hbar": 0.001, "trajectory": {"P0": [0.2, 0.1, 1.0], "dt": 0.01, "steps": 200, "method": "rk45"}}' > "$cfgs/bytes-rk45.json"
echo '{"model": {"model": "neutrino_metric", "field": {"kind": "polynomial", "terms": [[1.5, [0, 0, 0]], [0.1, [2, 0, 0]], [0.05, [1, 1, 0]], [0.02, [0, 0, 3]]]}}, "hbar": 0.001, "trajectory": {"r0": [0.1, -0.2, 0.05], "P0": [0.3, 0.1, 1.0], "dt": 0.01, "steps": 300, "pair_lambdas": true}}' > "$cfgs/bytes-rk4_poly.json"
echo '{"model": {"model": "neutrino_metric", "field": {"kind": "coulomb", "charge": 1.0, "softening": 0.5}}, "hbar": 0.001, "trajectory": {"r0": [0.1, -0.2, 0.05], "P0": [0.3, 0.1, 1.0], "dt": 0.01, "steps": 300, "pair_lambdas": true}}' > "$cfgs/bytes-rk4_coulomb.json"
echo '{"model": {"model": "neutrino_metric", "field": {"kind": "reciprocal", "base": {"kind": "gaussian", "amplitude": 1.5, "center": [0.3, -0.2, 0.1], "width": 3.0}}}, "hbar": 0.001, "trajectory": {"r0": [0.1, -0.2, 0.05], "P0": [0.3, 0.1, 1.0], "dt": 0.01, "steps": 300, "pair_lambdas": true}}' > "$cfgs/bytes-rk4_reciprocal.json"
echo '{"model": {"model": "neutrino_metric", "field": {"kind": "uniform", "value": 1.3}}, "hbar": 0.001, "trajectory": {"r0": [0.1, -0.2, 0.05], "P0": [0.3, 0.1, 1.0], "dt": 0.01, "steps": 300, "pair_lambdas": true}}' > "$cfgs/bytes-rk4_uniform.json"
echo '{"suites": {"dirac-canonical-oracle": {"points": 7}}}' > "$cfgs/bytes-verify.json"
echo '{"suites": {"bracket-product-rule": {"cases": 40, "max_degree": 4}, "bracket-invariance": {"cases": 40, "max_degree": 4}}}' > "$cfgs/bytes-bracket.json"
for model in dirac two_level; do
  echo "{\"model\": ${!model}, \"hbar\": 0.01, \"seed\": 8, \"random_points\": {\"count\": 600, \"p_range\": [0.3, 3.0]}}" > "$cfgs/bytes-$model-600.json"
done
echo "{\"model\": $dirac, \"hbar\": 0.01, \"order\": 1, \"grid\": {\"R\": [[-0.6, 0.4, 3], [-0.2, 0.3, 2], [0.1, 0.7, 2]], \"P\": [[0.3, 1.5, 3], [-0.8, 0.5, 3], [0.6, 1.2, 2]]}}" > "$cfgs/bytes-grid.json"
echo "{\"model\": $two_level, \"hbar\": 0.01, \"points\": [{\"R\": [0.1, -0.2, 0.3], \"P\": [0.5, 0.4, -1.1]}, {\"R\": [-0.0, 0.0, 1e-3], \"P\": [1.0, 0.0, 0.0]}, {\"R\": [0.7, 0.2, -0.5], \"P\": [-0.3, 2.5, 0.9]}]}" > "$cfgs/bytes-points.json"
echo "{\"model\": {\"model\": \"two_level\", \"h0\": [{\"coef\": \"1\"}], \"h\": [[], [], [{\"coef\": \"1\", \"r_exp\": [1, 0, 0]}]]}, \"hbar\": 0.01, \"points\": [{\"R\": [1e-6, 0.2, 0.3], \"P\": [0.4, -0.5, 0.6]}, {\"R\": [1e-7, 0.2, 0.3], \"P\": [0.4, -0.5, 0.6]}, {\"R\": [0, 0.2, 0.3], \"P\": [0.4, -0.5, 0.6]}, {\"R\": [-1e-7, 0.2, 0.3], \"P\": [0.4, -0.5, 0.6]}, {\"R\": [-1e-6, 0.2, 0.3], \"P\": [0.4, -0.5, 0.6]}, {\"R\": [0.5, 0.2, 0.3], \"P\": [0.4, -0.5, 0.6]}]}" > "$cfgs/bytes-near.json"

for model in $models; do
  dir="$out/$model"
  for cmd in curvature diagonalize connections; do
    PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-$model-canonical.json" --out "$dir" "$cmd"
  done
  PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-$model-covariant.json" --out "$dir/covariant" diagonalize
  for order in 0 1; do
    PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-$model-canonical.json" --order "$order" --out "$dir/order$order" diagonalize
  done
  PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-$model-conn0.json" --out "$dir/conn0" connections
done
for model in dirac two_level; do
  for order in 0 1; do
    PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-$model-600.json" --order "$order" --out "$out/$model/order$order-600" diagonalize
  done
done
PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-grid.json" --out "$out/grid" diagonalize
PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-points.json" --out "$out/points" diagonalize
PYTHONPATH=src python -m semiband.cli --out "$out" verify
PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-verify.json" --suite dirac-canonical-oracle --out "$out/verify" verify
PYTHONPATH=src python -m semiband.cli --seed 3 --out "$out" bracket-check
PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-bracket.json" --seed 3 --out "$out/bracket" bracket-check
for ray in $rays; do
  PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-$ray.json" --out "$out/$ray" trajectory
done
for order in 0 1 2; do
  PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-near.json" --order "$order" --out "$out/near/order$order" diagonalize || [ $? -eq 2 ]
done
for cmd in connections curvature; do
  PYTHONPATH=src python -m semiband.cli --config "$cfgs/bytes-near.json" --out "$out/near" "$cmd" || [ $? -eq 2 ]
done

{
  printf '%s\n' verify_report.json verify/verify_report.json bracket_report.json bracket/bracket_report.json
  printf '%s\n' grid/energies.csv grid/energies.json points/energies.csv points/energies.json
  printf 'near/%s\n' order0/energies.csv order0/energies.json order1/energies.csv order1/energies.json order2/energies.csv order2/energies.json connections.csv connections.json curvature.csv curvature.json
  for model in dirac two_level; do
    printf "$model/%s\n" order0-600/energies.csv order0-600/energies.json order1-600/energies.csv order1-600/energies.json
  done
  for ray in $rays; do
    printf "$ray/%s\n" trajectory_lam+1.csv trajectory_lam-1.csv trajectory_manifest.json
  done
  for model in $models; do
    printf "$model/%s\n" curvature.csv curvature.json energies.csv energies.json connections.csv connections.json covariant/energies.csv covariant/energies.json order0/energies.csv order0/energies.json order1/energies.csv order1/energies.json conn0/connections.csv conn0/connections.json
  done
} > "$out/files.txt"
