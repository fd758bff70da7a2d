"""The tuner was removed in PR 23 (DESIGN.md §7); see ``database``."""
