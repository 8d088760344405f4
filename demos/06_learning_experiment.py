"""
End-to-end learning experiment
==============================

The full pipeline: draw a ground-truth dictionary (re-drawing until its
restricted isometry constant is below 1), synthesize block-sparse
samples, learn a dictionary by alternating minimum-residual block coding
with per-block updates, and certify the result against the truth.

The learner initializes blocks from intersections of sample clusters,
which usually recovers the true block spans outright: the clusters fit
exactly on noiseless data, and with noise the config's noise_level sets
how closely they must fit (noisy runs end within about noise_level of the
true block spans). It then codes every sample with its minimum-residual
s-block code over all C(K, s) supports. Under delta_2s < 1 that code is
unique, so at the true dictionary every sample gets its true code, the
objective is zero and the learner stops after one iteration. Greedy
block-OMP has no such guarantee: at this coherent P=16 geometry it
miscodes a few of the 300 samples even at the true dictionary, and
alternating with it pulls a correct start off the true block spans.
Reports record whichever outcome occurs.
"""

import json

from blockdict import BlockStructure, ExperimentConfig, run_experiment

config = ExperimentConfig(
    structure=BlockStructure(K=6, alpha=2, s=2),
    ambient_dim=16,
    n_samples=300,
    seed=0,
    learner_iterations=30,
)

report = run_experiment(config)
print("ground-truth delta_4:", report.rip["delta"])
print("generation retries:", report.generation_retries)
objs = report.trace["objectives"]
print(f"objective: {objs[0]:.3g} -> {objs[-1]:.3g} over {len(objs)} iterations")
print("reseed events:", report.trace["reseed_events"])
print("certificate:", report.certificate["status"])
print("mean final coding residual:",
      sum(report.coding_residuals) / len(report.coding_residuals))

with open("experiment_report.json", "w") as fh:
    fh.write(report.to_json())
print("\nfull report written to experiment_report.json")
print("same config + seed reproduces this report byte-for-byte",
      "(only wall_clock_sec differs)")
