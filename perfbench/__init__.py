"""Seeded benchmark of the spherekh certificate commands; see README.md."""
