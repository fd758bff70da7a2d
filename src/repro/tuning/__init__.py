"""The tuner was removed (DESIGN.md §7); see ``database``."""
