"""Small hand-built community specs shared across test modules."""

from __future__ import annotations

import dataclasses

from lecopt.domain import (
    BessSpec,
    CommunitySpec,
    HourlySeries,
    Participant,
    PvSpec,
    SharingMode,
    SharingScheme,
)


def flat_bess(**overrides) -> BessSpec:
    """Idle-friendly battery: endpoints equal, unit efficiency, zero cost."""
    params = dict(
        p_ch_max=10.0,
        p_dis_max=10.0,
        soc_max=100.0,
        soc_min=0.0,
        eta_ch=1.0,
        eta_dis=1.0,
        soc_initial=50.0,
        soc_final=50.0,
    )
    params.update(overrides)
    return BessSpec(**params)


def tiny_spec(
    loads=((4.0, 6.0), (2.0, 2.0)),
    buy=(0.3, 0.2),
    sell=(0.1, 0.05),
    pv=(5.0, 0.0),
    intensity=(0.25, 0.4),
    betas=(0.6, 0.4),
    bess: BessSpec | None = None,
    **spec_overrides,
) -> CommunitySpec:
    """Two participants ("A", "B") over len(buy) hours with shared price series."""
    T = len(buy)
    ids = ("A", "B", "C", "D")[: len(loads)]
    participants = tuple(
        Participant(
            id=pid,
            load=HourlySeries.from_values(load),
            buy_price=HourlySeries.from_values(buy),
            sell_price=HourlySeries.from_values(sell),
            max_import={1: 100.0},
            max_export={1: 100.0},
        )
        for pid, load in zip(ids, loads)
    )
    coeffs = dict(zip(ids, betas))
    spec = CommunitySpec(
        participants=participants,
        bess=bess if bess is not None else flat_bess(),
        pv=PvSpec(HourlySeries.from_values(pv)),
        sharing=SharingScheme(SharingMode.STATIC, static_coefficients=coeffs),
        grid_intensity=HourlySeries.from_values(intensity),
        horizon_hours=T,
    )
    return dataclasses.replace(spec, **spec_overrides) if spec_overrides else spec


def with_free_allocation(spec: CommunitySpec) -> CommunitySpec:
    """Same community, but hourly sharing left to the optimizer."""
    return dataclasses.replace(
        spec,
        sharing=SharingScheme(
            SharingMode.HOURLY_VARIABLE,
            static_coefficients=dict(spec.sharing.static_coefficients),
        ),
    )


def col(index, kind: str, t: int, pid: str | None = None) -> int:
    """Column of `kind` at hour `t` (and participant `pid` for the per-participant kinds)."""
    block = index.block(kind)
    return int(block[t] if pid is None else block[t, index.participant_ids.index(pid)])
