"""Capacitive six-axis contact sensing and force-controlled flight toolkit."""
