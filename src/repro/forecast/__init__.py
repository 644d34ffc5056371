"""Forecast subsystem: predicted futures for the prescient router.

The source paper hands the prescient router the *true* future window (a
sequenced batch is the forecast).  This package de-oracles that
assumption: :mod:`repro.forecast.forecasters` supplies oracle and
learned predictors, :mod:`repro.forecast.detector` measures how wrong
they are each epoch, and :mod:`repro.forecast.router` degrades
gracefully — prescient planning on a good forecast, Clay-style reactive
routing past the mispredict threshold, cancelling in-flight prescient
migrations through the migration-session state machine on the way down.
"""
