"""Desk-scale noisy-label training pipeline.

Injects controlled label noise into small supervised tasks, tracks
per-sample loss trajectories while training from-scratch learners, detects
the corrupted samples with BIC-selected Gaussian mixtures over the losses,
drops them adaptively mid-training, and quantifies the recovery against a
baseline twin that trains straight through the noise.
"""
