"""Exact comparison of convergence criteria for the variable-assignment LLLL
on bounded-occurrence k-SAT."""
