"""qbracelet: truncated q-series arithmetic and a congruence verification
harness for partition-family counting functions (partitions, l-regular
partitions, broken k-diamond partitions, k dots bracelet partitions).

The names imported here are the package's public API."""

from .claims import (
    ClaimFamily,
    CongruenceClaim,
    InstantiationError,
    VacuousFamilyError,
    default_catalog,
    families,
    resolve_selection,
)
from .generators import (
    euler_quintic_rhs,
    gen_bracelet,
    gen_broken_diamond,
    gen_l_regular,
    gen_partition,
    ramanujan_a,
    ramanujan_b,
)
from .oracles import (
    count_l_regular,
    count_partitions,
    is_prime,
    legendre_symbol,
    partition_numbers,
)
from .products import (
    PochhammerFactor,
    ProductSpec,
    pochhammer_series,
    product_series,
)
from .rings import (
    EXACT,
    CoefficientRing,
    Mod,
    NotInvertibleError,
    RingMismatchError,
)
from .series import TruncatedSeries
from .sources import SeriesSource, expand_source, parse_source
from .theta import (
    PrimeContext,
    UnsupportedSpecializationError,
    euler_series,
    jacobi_triple_check,
    p_dissection_f,
    theta_f,
)
from .verify import RunConfig, SeriesCache, VerificationReport, verify

__version__ = "0.1.0"

# one pure-Python kernel ships; benchmark results still stamp these names
BACKEND = "python"
HAVE_SPEEDUPS = False
