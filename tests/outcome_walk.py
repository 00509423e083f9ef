"""Reference explicit family: every query sweeps all M outcomes.

``ExplicitEventFamily`` lumps its outcomes once into atoms (one per
distinct event-membership column) and answers every protocol query from
that table.  This module keeps the outcome-level sweeps it replaced, as
a subclass that overrides each query member, so tests can require the
atom-level answers, and the audits built on them, to match.  It also
keeps the element-by-element model-spec writer, so tests can require the
same dump bytes.
"""

from __future__ import annotations

import math

import numpy as np

from mdepbounds import ExplicitEventFamily


class OutcomeWalkFamily(ExplicitEventFamily):
    """An explicit family whose queries never read ``atoms``: reading
    them raises, so a query member it fails to override shows up as an
    error rather than as the atom answer checked against itself."""

    @property
    def atoms(self):
        raise AssertionError("the outcome walk reads no atoms")

    @classmethod
    def of(cls, family: ExplicitEventFamily) -> "OutcomeWalkFamily":
        return cls(family.outcome_weights, family.event_masks, family.m)

    def prefix_mass(self, upto):
        probs = self.event_masks @ self.outcome_weights
        return np.concatenate(([0.0], np.cumsum(probs)))[upto]

    def pair_probs(self, gap: int) -> np.ndarray:
        masks = self.event_masks
        return (masks[:self.n_events - gap] & masks[gap:]) @ self.outcome_weights

    def pair_mass(self, gap: int) -> float:
        return math.fsum(self.pair_probs(gap))

    def union(self, first: int, last: int) -> float:
        fired = self.event_masks[first - 1:last].any(axis=0)
        return float(self.outcome_weights[fired].sum())

    def survivals(self, rows: np.ndarray) -> np.ndarray:
        masks, weights = self.event_masks, self.outcome_weights
        return np.array([weights[~masks[row - 1].any(axis=0)].sum()
                         for row in rows])

    def pattern_laws(self, rows: np.ndarray) -> np.ndarray:
        laws = np.empty((len(rows), 1 << rows.shape[1]))
        for law, row in zip(laws, rows.tolist()):
            ids = np.zeros(self.n_outcomes, dtype=np.int64)
            for t, k in enumerate(row):
                ids |= self.event_masks[k - 1].astype(np.int64) << t
            law[:] = np.bincount(ids, weights=self.outcome_weights,
                                 minlength=law.size)
        return laws


def outcome_dict(family: ExplicitEventFamily) -> dict:
    """The model-spec dict of an explicit family, written one element at
    a time."""
    return {
        "type": "explicit",
        "m": family.m,
        "outcome_weights": [float(w) for w in family.outcome_weights],
        "events": [[int(i) for i in np.nonzero(row)[0]]
                   for row in family.event_masks],
    }
