"""Göllnitz-Gordon marked partitions and the bijections between their
parameterized families, with exact q-series checks for the associated
generating-function identities."""

from .classify import (
    StartingProfile,
    SubsetLabel,
    classify_eq,
    classify_lt,
    classify_sim,
    cluster_indexes,
    find_m_eq33,
    find_pt_eq,
    find_pt_lt,
    insertion_types,
    reduction_types,
    starting_profile,
)
from .errors import (
    ClassificationError,
    GGError,
    InvalidSpecialPartition,
    MembershipError,
    MissingEntryError,
    UniquenessError,
)
from .maps import (
    dilate,
    insert_odd,
    phi_global,
    phi_m,
    phi_pt,
    psi_global,
    psi_m,
    psi_pt,
    reduce,
    separate_odd,
)
from .marking import (
    MarkedPartition,
    gg_mark,
    gg_mark_special,
    marked_to_dict,
    render_grid,
)
from .membership import (
    BressoudParams,
    all_partitions,
    enumerate_B,
    enumerate_C,
    enumerate_E,
    enumerate_F33,
    enumerate_I,
    is_bressoud_B,
    is_in_C,
    row_counts,
)
from .series import (
    BivariateSeries,
    TruncatedSeries,
    bressoud_multisum,
    bressoud_product,
    gg_companion_bivariate,
    kursungoz_cell,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
