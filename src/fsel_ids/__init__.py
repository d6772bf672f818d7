"""Feature selection and intrusion detection modeling toolkit.

Builds binary traffic classifiers over typed CSV datasets: filter and
wrapper feature selection, fitted preprocessing plans, six classifier
families, and a hold-out evaluation harness reporting accuracy, detection
rate and false alarm rate with per-stage timings.
"""
