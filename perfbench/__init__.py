"""Closed-loop benchmark of the clubcat command line (see README.md here)."""
