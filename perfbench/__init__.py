"""Repository benchmark for the HC2L reproduction (see README.md)."""
