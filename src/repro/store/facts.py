"""The append-only fact store and its interval/transition queries.

Layout under one directory:

* ``facts.jsonl`` — one line per (fact, epoch) observation:
  ``{"subject", "predicate", "object", "epoch"}``. Append-only; nothing
  rewrites history.
* ``epochs.jsonl`` — the epoch manifest, one line per appended epoch
  (strictly increasing), carrying the per-epoch fact count. This is
  what distinguishes "fact absent because it stopped being true" from
  "fact absent because that epoch was never observed".

Queries fold observations into **validity intervals**: a fact observed
at epochs {0, 1} of an observed sequence [0, 1, 2] yields
``FactInterval(valid_from=0, valid_to=1)`` — it stopped being true at
epoch 2. ``valid_to`` of the latest observed epoch means "still true".
**Transitions** are the longitudinal payoff: for a (subject, predicate)
pair, the epochs at which the set of asserted objects changed, with the
before/after sets — "when did AS 9198 switch from RST injection to
blockpage?" is one transitions call (see ``repro facts query``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..persist import PersistError, read_jsonl
from ..telemetry import NULL_TELEMETRY
from .records import Fact


@dataclass(frozen=True)
class FactInterval:
    """One fact's maximal run of consecutive observed epochs."""

    fact: Fact
    valid_from: int
    valid_to: int  # inclusive; == latest observed epoch => still valid

    def to_dict(self) -> Dict:
        out = self.fact.to_dict()
        out["valid_from"] = self.valid_from
        out["valid_to"] = self.valid_to
        return out


@dataclass(frozen=True)
class Transition:
    """A (subject, predicate) object-set change between adjacent epochs."""

    subject: str
    predicate: str
    epoch: int  # first epoch at which ``after`` held
    before: Tuple[str, ...]
    after: Tuple[str, ...]

    def to_dict(self) -> Dict:
        return {
            "subject": self.subject,
            "predicate": self.predicate,
            "epoch": self.epoch,
            "before": list(self.before),
            "after": list(self.after),
        }


class FactStore:
    """Append-per-epoch fact observations with interval/transition queries."""

    FACTS = "facts.jsonl"
    EPOCHS = "epochs.jsonl"

    def __init__(
        self, directory: Union[str, Path], telemetry=NULL_TELEMETRY
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.telemetry = telemetry
        # epoch -> set of facts observed at that epoch
        self._by_epoch: Dict[int, set] = {}
        self._load()

    # -- persistence -----------------------------------------------------

    def _load(self) -> None:
        epochs_path = self.directory / self.EPOCHS
        manifest = []
        for lineno, record in read_jsonl(epochs_path):
            try:
                manifest.append(int(record["epoch"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise PersistError(
                    f"corrupt epoch manifest {epochs_path} at line "
                    f"{lineno}: {exc}"
                ) from None
        for epoch in manifest:
            self._by_epoch.setdefault(epoch, set())
        facts_path = self.directory / self.FACTS
        for lineno, record in read_jsonl(facts_path):
            try:
                epoch = int(record["epoch"])
                fact = Fact.from_dict(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise PersistError(
                    f"corrupt fact record in {facts_path} at line "
                    f"{lineno}: {exc}"
                ) from None
            if epoch not in self._by_epoch:
                raise PersistError(
                    f"{facts_path} holds facts for epoch {epoch}, which "
                    f"the manifest {epochs_path} never recorded"
                )
            self._by_epoch[epoch].add(fact)
        self.telemetry.count("store.facts_loaded", self.fact_count())

    def append_epoch(self, epoch: int, facts: List[Fact]) -> int:
        """Record one epoch's observations (epochs strictly increasing)."""
        observed = self.epochs()
        if observed and epoch <= observed[-1]:
            raise PersistError(
                f"fact store {self.directory} already holds epoch "
                f"{observed[-1]}; epochs append in strictly increasing "
                f"order (got {epoch})"
            )
        unique = sorted(
            set(facts), key=lambda f: (f.subject, f.predicate, f.object)
        )
        with (self.directory / self.FACTS).open("a") as handle:
            for fact in unique:
                record = fact.to_dict()
                record["epoch"] = epoch
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        with (self.directory / self.EPOCHS).open("a") as handle:
            handle.write(
                json.dumps({"epoch": epoch, "facts": len(unique)}) + "\n"
            )
        self._by_epoch[epoch] = set(unique)
        self.telemetry.count("store.facts_appended", len(unique))
        self.telemetry.count("store.epochs_appended")
        return len(unique)

    # -- raw views -------------------------------------------------------

    def epochs(self) -> List[int]:
        return sorted(self._by_epoch)

    def fact_count(self) -> int:
        return sum(len(facts) for facts in self._by_epoch.values())

    def facts_at(self, epoch: int) -> List[Fact]:
        facts = self._by_epoch.get(epoch, set())
        return sorted(facts, key=lambda f: (f.subject, f.predicate, f.object))

    # -- queries ---------------------------------------------------------

    def _matching(
        self,
        subject: Optional[str],
        predicate: Optional[str],
        obj: Optional[str],
    ) -> Dict[Fact, List[int]]:
        """fact -> sorted observed epochs, filtered on any of s/p/o."""
        hits: Dict[Fact, List[int]] = {}
        for epoch in self.epochs():
            for fact in self._by_epoch[epoch]:
                if subject is not None and fact.subject != subject:
                    continue
                if predicate is not None and fact.predicate != predicate:
                    continue
                if obj is not None and fact.object != obj:
                    continue
                hits.setdefault(fact, []).append(epoch)
        return hits

    def intervals(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
        obj: Optional[str] = None,
    ) -> List[FactInterval]:
        """Validity intervals for every fact matching the filters.

        Consecutiveness is measured against the *observed* epoch
        sequence: with epochs [0, 2, 4] on record, a fact seen at 0 and
        2 but not 4 is one interval [0, 2] — unobserved epochs in
        between assert nothing.
        """
        observed = self.epochs()
        position = {epoch: i for i, epoch in enumerate(observed)}
        out: List[FactInterval] = []
        self.telemetry.count("store.queries")
        for fact, epochs in sorted(
            self._matching(subject, predicate, obj).items(),
            key=lambda item: (
                item[0].subject, item[0].predicate, item[0].object,
            ),
        ):
            run_start = epochs[0]
            previous = epochs[0]
            for epoch in epochs[1:]:
                if position[epoch] == position[previous] + 1:
                    previous = epoch
                    continue
                out.append(FactInterval(fact, run_start, previous))
                run_start = previous = epoch
            out.append(FactInterval(fact, run_start, previous))
        return out

    def transitions(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
    ) -> List[Transition]:
        """Object-set changes per (subject, predicate) across epochs."""
        observed = self.epochs()
        # (subject, predicate) -> epoch -> frozenset of objects
        series: Dict[Tuple[str, str], Dict[int, FrozenSet[str]]] = {}
        for fact, epochs in self._matching(subject, predicate, None).items():
            key = (fact.subject, fact.predicate)
            per_epoch = series.setdefault(key, {})
            for epoch in epochs:
                per_epoch[epoch] = per_epoch.get(epoch, frozenset()) | {
                    fact.object
                }
        out: List[Transition] = []
        self.telemetry.count("store.queries")
        for (subj, pred) in sorted(series):
            per_epoch = series[(subj, pred)]
            previous: FrozenSet[str] = frozenset()
            for index, epoch in enumerate(observed):
                current = per_epoch.get(epoch, frozenset())
                if index > 0 and current != previous:
                    out.append(
                        Transition(
                            subject=subj,
                            predicate=pred,
                            epoch=epoch,
                            before=tuple(sorted(previous)),
                            after=tuple(sorted(current)),
                        )
                    )
                previous = current
        return out
