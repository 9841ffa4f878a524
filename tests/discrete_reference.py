"""Discrete-time reference simulator, a verification fixture of the tests.

Steps the whole system in fixed slices of size eps, the approach the event
engine replaces.  Away from decision boundaries (contact durations near
rho, from the engine's history, and minimum gaps near r, from the contact
oracle in ``contact_oracle.py``) it must agree with the event engine
exactly, and its cost O(T/eps * devices) documents the trade-off that
motivates event-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from streetsim.engine import ConnectionGraph
from streetsim.mobility import Device
from streetsim.streets import StreetGraph, StreetPosition

__all__ = ["DiscreteConfig", "simulate_discrete"]


@dataclass(frozen=True, slots=True)
class DiscreteConfig:
    eps: float
    T: float
    r: float
    rho: float

    def validate(self, g: StreetGraph, devices: list[Device]) -> None:
        if self.eps <= 0:
            raise ValueError("step size must be positive")
        if self.T <= 0 or self.rho < 0 or self.r <= 0:
            raise ValueError("T, rho, r must be positive")
        v_max = max((d.velocity for d in devices if d.moving), default=0.0)
        if v_max > 0.0:
            min_len = min(e.length for e in g.edges.values())
            if self.eps > 0.01 * min_len / v_max:
                raise ValueError(
                    f"step {self.eps}s too coarse: needs eps <= 0.01*min_length/v_max "
                    f"= {0.01 * min_len / v_max:.6g}s"
                )


def _advance(d: Device, g: StreetGraph, dt: float) -> None:
    """Move a device by dt, sub-stepping exactly at crossings and reversals."""
    remaining = dt
    while remaining > 0.0 and d.moving:
        length = d.street_length
        target = d.path.end.p if d.leg == d.path.n_legs - 1 else 1.0
        t_need = (target - d.pos.p) * length / d.velocity
        if t_need > remaining:
            d.pos = d.pos._replace(p=d.pos.p + remaining * d.velocity / length)
            remaining = 0.0
            break
        remaining -= t_need
        if d.leg == d.path.n_legs - 1:
            d.leg = 0
            d.pos = d.turn_around().start
        else:
            crossing = d.path.crossings[d.leg]
            d.leg += 1
            eid = d.path.streets[d.leg]
            e = g.edges[eid]
            other = e.v if crossing == e.u else e.u
            d.pos = StreetPosition(eid, crossing, other, 0.0)
            d.street_length = e.length


def _offset_from_u(d: Device, g: StreetGraph) -> float:
    e = g.edges[d.pos.street]
    return d.pos.p * e.length if d.pos.v1 == e.u else (1.0 - d.pos.p) * e.length


def simulate_discrete(
    g: StreetGraph,
    devices: list[Device],
    cfg: DiscreteConfig,
    strict: bool = True,
) -> ConnectionGraph:
    """Fixed-step run over the same initial state as an event-engine run.

    Per device pair on a shared street, contiguous contact time accumulates
    in full eps slices; a slice counts only when the pair is within r at both
    slice endpoints on the same street (a street change restarts the clock;
    a same-street reversal keeps the contact contiguous, as positions are
    continuous through the turn).  A connection is marked once the
    accumulated contiguous duration exceeds rho.

    ``strict=False`` skips the step-size validation; convergence sweeps use
    it to run deliberately coarse steps.
    """
    if strict:
        cfg.validate(g, devices)
    elif cfg.eps <= 0:
        raise ValueError("step size must be positive")
    devices = [d.clone() for d in devices]
    occupancy: dict[int, set[int]] = {}
    by_id = {d.id: d for d in devices}
    for d in devices:
        occupancy.setdefault(d.pos.street, set()).add(d.id)

    established: set[tuple[int, int]] = set()
    acc: dict[tuple[int, int], float] = {}

    def contacts_now() -> dict[tuple[int, int], int]:
        found: dict[tuple[int, int], int] = {}
        for eid, ids in occupancy.items():
            if len(ids) < 2:
                continue
            lst = sorted(ids)
            for i, a in enumerate(lst):
                xa = _offset_from_u(by_id[a], g)
                for b_ in lst[i + 1:]:
                    xb = _offset_from_u(by_id[b_], g)
                    if abs(xa - xb) <= cfg.r:
                        found[(a, b_)] = eid
        return found

    contact_prev = contacts_now()
    n_steps = round(cfg.T / cfg.eps)
    for _ in range(n_steps):
        for d in devices:
            if not d.moving:
                continue
            old_street = d.pos.street
            _advance(d, g, cfg.eps)
            if d.pos.street != old_street:
                occupancy[old_street].discard(d.id)
                occupancy.setdefault(d.pos.street, set()).add(d.id)
        now = contacts_now()
        for pair, eid in now.items():
            if contact_prev.get(pair) == eid:
                acc[pair] = acc.get(pair, 0.0) + cfg.eps
            else:
                acc[pair] = 0.0
            if pair not in established and acc[pair] > cfg.rho:
                established.add(pair)
        for pair in list(acc):
            if pair not in now:
                del acc[pair]
        contact_prev = now
    return ConnectionGraph(tuple(sorted(by_id)), frozenset(established))
