"""The cell's performance ledger (see README.md beside this file)."""
