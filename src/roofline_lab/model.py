"""Domain types for accelerator architectures, tensor workloads and mappings.

An architecture is a compute array plus an ordered memory hierarchy
(L1 closest to the array, Ln outermost).  A workload is a perfectly
nested loop over named dimensions, where each operand declares the
subset of dimensions its index depends on.  A mapping assigns loop
dimensions spatially (array axes, cores) and temporally (per-level
tiled trip counts).

All types are immutable values: records built on ``Record`` compare,
hash and print by their fields, assigning a field raises
``AttributeError``, and ``_replace(**changes)`` returns a copy with
some fields changed (defaults derived in ``__init__`` are derived
again).  Constructors do not raise on semantic problems; ``validate``
returns the full list of violations so a caller (or the CLI) can
report them in one pass.
"""

from __future__ import annotations

import math
from operator import attrgetter

INPUT = "input"
OUTPUT = "output"

OVERLAPPED = "overlapped"
SERIALIZED = "serialized"

# latency terms keyed like the levels' own, so no level may take these names
COMPUTE = "compute"
RELOAD = "reload"

# Accumulators default to 4x the declared element width, capped at 32 bits:
# partial sums need the extra headroom, full words rarely more.
ACCUM_WIDTH_FACTOR = 4
ACCUM_WIDTH_CAP = 32


def _bytes_per_element(bits: int) -> float:
    """Whole-byte storage footprint of one element (sub-byte rounds up)."""
    return float(math.ceil(bits / 8))


_set = object.__setattr__  # how a Record's __init__ writes its fields


class Record:
    """Base of the records the model reads in its loops.

    A subclass lists its fields, in constructor order, in ``_fields``,
    keeps them in ``__slots__`` (plus any attribute derived from them,
    and ``__dict__`` where a ``cached_property`` needs one) and writes
    them in its own ``__init__`` with ``_set``.  Records compare and
    hash by their fields, and only records of the same class are equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)  # one C call for eq and hash
        cls._index = {f: i for i, f in enumerate(cls._fields)}  # for _replace

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def _replace(self, **changes):
        """A copy with the named fields changed, built by ``__init__``
        from one positional value per field."""
        values = list(self._values(self))
        index = self._index
        for name, value in changes.items():
            try:
                values[index[name]] = value
            except KeyError:
                raise TypeError(f"{self.__class__.__qualname__}._replace: "
                                f"unknown field {name!r}") from None
        return self.__class__(*values)


class MemoryLevel(Record):
    """One level of the memory hierarchy.

    ``bandwidth`` is in bytes/cycle, ``energy_per_byte`` in pJ/byte.
    ``capacity`` is in bytes; ``None`` means unbounded (e.g. DRAM).
    ``level_index`` starts at 1 for the level closest to the array.
    """

    __slots__ = _fields = ("name", "bandwidth", "energy_per_byte", "capacity",
                           "level_index")

    def __init__(self, name: str, bandwidth: float, energy_per_byte: float,
                 capacity: int | None = None, level_index: int = 1):
        _set(self, "name", name)
        _set(self, "bandwidth", bandwidth)
        _set(self, "energy_per_byte", energy_per_byte)
        _set(self, "capacity", capacity)
        _set(self, "level_index", level_index)


class ComputeArray(Record):
    """A rectangular array of MAC units.

    ``dims`` are (axis label, size) pairs; one MAC per lattice point,
    one MAC per cycle.  A MAC counts as ``ops_per_mac`` = 2 operations
    (multiply + accumulate), so the peak operator count is
    ``a_op = 2 * prod(sizes)`` ops/cycle.  ``throughput_scale`` folds
    in precision effects (narrower operands packing more MACs into the
    same datapath, or bit-serial operation slowing it down) without
    touching the physical lattice.
    """

    __slots__ = _fields = ("dims", "energy_per_op", "ops_per_mac", "throughput_scale")

    def __init__(self, dims: tuple[tuple[str, int], ...],
                 energy_per_op: float,  # pJ per operation
                 ops_per_mac: int = 2, throughput_scale: float = 1.0):
        _set(self, "dims", dims)
        _set(self, "energy_per_op", energy_per_op)
        _set(self, "ops_per_mac", ops_per_mac)
        _set(self, "throughput_scale", throughput_scale)

    @property
    def a_op(self) -> float:
        n = 1
        for _, size in self.dims:
            n *= size
        return self.ops_per_mac * n * self.throughput_scale

    def axis_size(self, axis: str) -> int:
        for name, size in self.dims:
            if name == axis:
                return size
        raise KeyError(f"no array axis named {axis!r}")


class ArchSpec(Record):
    """Compute array + memory hierarchy + clock.

    ``latency_overlap`` selects whether transfers and compute proceed
    concurrently ("overlapped", the default for double-buffered
    designs) or back to back ("serialized").
    ``base_precision_bits`` records the native datapath width used as
    the reference point by the quantization transform.
    """

    __slots__ = _fields = ("array", "levels", "clock", "latency_overlap",
                           "base_precision_bits")

    def __init__(self, array: ComputeArray, levels: tuple[MemoryLevel, ...],
                 clock: float,  # Hz
                 latency_overlap: str = OVERLAPPED, base_precision_bits: int = 8):
        _set(self, "array", array)
        _set(self, "levels", levels)
        _set(self, "clock", clock)
        _set(self, "latency_overlap", latency_overlap)
        _set(self, "base_precision_bits", base_precision_bits)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level(self, index: int) -> MemoryLevel:
        """Level by 1-based index (1 = closest to the array)."""
        return self.levels[index - 1]


class LoopDim(Record):
    __slots__ = _fields = ("name", "size")

    def __init__(self, name: str, size: int):
        _set(self, "name", name)
        _set(self, "size", size)


class OperandSpec(Record):
    """A tensor operand and its index signature.

    ``relevant_dims`` lists the loop dimensions the operand's index
    depends on; iterating any other dimension leaves the same element
    (or tile) in place, which is exactly what the reuse analysis
    exploits.  ``relevant`` is the same dims as a frozenset, built once
    here; it is derived, so it is not a field.  ``accum_bits`` is the
    partial-sum width for output-like operands (defaulted here when
    ``None``); ``bytes_per_element`` can be overridden with a
    fractional value by the quantization pass (block metadata amortized
    per element), otherwise it is the whole-byte footprint of
    ``precision_bits``.
    """

    _fields = ("name", "role", "relevant_dims", "precision_bits", "accum_bits",
               "bytes_per_element")
    __slots__ = _fields + ("relevant",)

    def __init__(self, name: str,
                 role: str,  # INPUT or OUTPUT
                 relevant_dims: tuple[str, ...], precision_bits: int = 8,
                 accum_bits: int | None = None, bytes_per_element: float | None = None):
        if role == OUTPUT and accum_bits is None:
            accum_bits = min(ACCUM_WIDTH_FACTOR * precision_bits, ACCUM_WIDTH_CAP)
        if bytes_per_element is None:
            bytes_per_element = _bytes_per_element(precision_bits)
        _set(self, "name", name)
        _set(self, "role", role)
        _set(self, "relevant_dims", relevant_dims)
        _set(self, "precision_bits", precision_bits)
        _set(self, "accum_bits", accum_bits)
        _set(self, "bytes_per_element", bytes_per_element)
        _set(self, "relevant", frozenset(relevant_dims))

    @property
    def accum_bytes_per_element(self) -> float:
        if self.accum_bits is None:
            return self.bytes_per_element  # type: ignore[return-value]
        return _bytes_per_element(self.accum_bits)


class WorkloadSpec(Record):
    """A named loop nest with operand dependency signatures.

    Each full index tuple is one MAC, so the task operation count is
    ``n_op = 2 * prod(dim sizes)``.
    """

    __slots__ = _fields = ("name", "dims", "operands")

    def __init__(self, name: str, dims: tuple[LoopDim, ...],
                 operands: tuple[OperandSpec, ...]):
        _set(self, "name", name)
        _set(self, "dims", dims)
        _set(self, "operands", operands)

    @property
    def n_op(self) -> int:
        n = 1
        for d in self.dims:
            n *= d.size
        return 2 * n

    @property
    def dim_sizes(self) -> dict[str, int]:
        return {d.name: d.size for d in self.dims}

    def operand(self, name: str) -> OperandSpec:
        for op in self.operands:
            if op.name == name:
                return op
        raise KeyError(f"no operand named {name!r}")


class SpatialUnroll(Record):
    """One parallel (parfor) assignment: dim unrolled on an array axis."""

    __slots__ = _fields = ("axis", "dim", "factor")

    def __init__(self, axis: str, dim: str, factor: int):
        _set(self, "axis", axis)
        _set(self, "dim", dim)
        _set(self, "factor", factor)


class MappingSpec(Record):
    """Spatial and temporal allocation of a workload onto an architecture.

    ``temporal`` holds one loop list per memory level, level 1 first;
    within each level loops are listed innermost first, so the global
    nest read inner to outer is the concatenation of the per-level
    lists.  ``core_split`` optionally splits one dimension across
    replicated cores (each core owns a private array + L1; levels >= 2
    are shared).

    ``pinned_operand`` marks an operand held inside the compute array
    itself (in-memory-compute weights): it moves no bytes across the
    L1 boundary, and if ``reload_cycles_per_tile`` is set each tile of
    it costs that many serialized (non-overlapped) stall cycles to
    load into the array.  ``None`` reload cycles means reloads are
    double buffered and free.
    """

    __slots__ = _fields = ("spatial", "temporal", "cores", "core_split",
                           "pinned_operand", "reload_cycles_per_tile")

    def __init__(self, spatial: tuple[SpatialUnroll, ...],
                 temporal: tuple[tuple[tuple[str, int], ...], ...], cores: int = 1,
                 core_split: tuple[str, int] | None = None,
                 pinned_operand: str | None = None,
                 reload_cycles_per_tile: int | None = None):
        _set(self, "spatial", spatial)
        _set(self, "temporal", temporal)
        _set(self, "cores", cores)
        _set(self, "core_split", core_split)
        _set(self, "pinned_operand", pinned_operand)
        _set(self, "reload_cycles_per_tile", reload_cycles_per_tile)

    def temporal_at(self, level_index: int) -> tuple[tuple[str, int], ...]:
        """Loops tiled at a level (1-based); empty past the declared lists."""
        if level_index - 1 < len(self.temporal):
            return self.temporal[level_index - 1]
        return ()

    def nest(self, n_levels: int) -> tuple[tuple[int, str, int], ...]:
        """The full temporal nest as (level, dim, trip), innermost first."""
        return tuple((li, dim, trip)
                     for li, loops in enumerate(self.temporal[:n_levels], 1)
                     for dim, trip in loops)


class InvalidMappingError(ValueError):
    """Raised by analyses that require a valid architecture, and with a
    mapping a valid (arch, workload, mapping)."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def tile_extents(mapping: MappingSpec, n_levels: int) -> list[dict[str, int]]:
    """Extent of every dim in one tile at each level 0..``n_levels``.

    Row 0 is one parallel step: the spatial unrolls times the core
    split.  Row i multiplies in the temporal trips at levels <= i; it
    is the tile level i serves to the levels below it.  A dim the
    mapping never names spans 1 and has no entry.  Levels past the
    mapping's loop lists share its top row.
    """
    row: dict[str, int] = {}
    for u in mapping.spatial:
        row[u.dim] = row.get(u.dim, 1) * u.factor
    if mapping.core_split is not None:
        dim, factor = mapping.core_split
        row[dim] = row.get(dim, 1) * factor
    rows = [row]
    for loops in mapping.temporal[:n_levels]:
        row = dict(row)
        for dim, trip in loops:
            row[dim] = row.get(dim, 1) * trip
        rows.append(row)
    rows += [row] * (n_levels + 1 - len(rows))
    return rows


def tile_elements(extents: dict[str, int], operand: OperandSpec) -> int:
    """Elements of one ``operand`` tile whose dims span ``extents``
    (one row of ``tile_extents``)."""
    elements = 1
    for dim in operand.relevant_dims:
        elements *= extents.get(dim, 1)
    return elements


def arch_violations(arch: ArchSpec) -> list[str]:
    """The architecture's own field invariants, which every evaluation
    needs, mapped or not; an empty list means valid."""
    v: list[str] = []
    levels = arch.levels
    names: set[str] = set()
    contiguous = True
    for i, lvl in enumerate(levels, 1):
        name = lvl.name
        if lvl.bandwidth <= 0:
            v.append(f"level {name}: bandwidth must be > 0 (got {lvl.bandwidth})")
        if lvl.energy_per_byte < 0:
            v.append(f"level {name}: energy_per_byte must be >= 0")
        if lvl.capacity is not None and lvl.capacity <= 0:
            v.append(f"level {name}: capacity must be > 0 when bounded")
        if name == COMPUTE or name == RELOAD:
            v.append(f"level {name}: the name is reserved for a latency term")
        if lvl.level_index != i:
            contiguous = False
        names.add(name)
    if not levels:
        v.append("architecture needs at least one memory level")
    if not contiguous:
        indices = [lvl.level_index for lvl in levels]
        v.append(f"level indices must run 1..{len(indices)} contiguously (got {indices})")
    if len(names) != len(levels):
        v.append(f"duplicate level names in architecture: {[lvl.name for lvl in levels]}")
    if arch.clock <= 0:
        v.append(f"clock must be > 0 (got {arch.clock})")
    array = arch.array
    if array.energy_per_op < 0:
        v.append("array energy_per_op must be >= 0")
    if array.throughput_scale <= 0:
        v.append(f"array throughput_scale must be > 0 (got {array.throughput_scale})")
    for axis, size in array.dims:
        if size < 1:
            v.append(f"array axis {axis}: size must be >= 1")
    return v


def workload_violations(wl: WorkloadSpec, sizes: dict[str, int] | None = None) -> list[str]:
    """The workload's own invariants, which every evaluation needs,
    mapped or not; an empty list means valid.  ``sizes`` is
    ``wl.dim_sizes`` when the caller has built it already."""
    v: list[str] = []
    if sizes is None:
        sizes = wl.dim_sizes
    dims, operands = wl.dims, wl.operands
    if len(sizes) != len(dims):
        v.append(f"duplicate loop dim names in workload: {[d.name for d in dims]}")
    if len({op.name for op in operands}) != len(operands):
        v.append(f"duplicate operand names in workload: {[op.name for op in operands]}")
    relevant: set[str] = set()
    n_outputs = 0
    for op in operands:
        rel = op.relevant
        relevant |= rel
        if op.role == OUTPUT:
            n_outputs += 1
        if len(rel) != len(op.relevant_dims):
            v.append(f"operand {op.name}: relevant dims {list(op.relevant_dims)} "
                     "name a dim more than once")
        if not sizes.keys() >= rel:
            v.append(f"operand {op.name}: relevant dims "
                     f"{sorted(rel - sizes.keys())} not in workload")
        if op.precision_bits < 1:
            v.append(f"operand {op.name}: precision_bits must be >= 1")
    if n_outputs != 1:
        v.append(f"workload must have exactly one output-like operand (got {n_outputs})")
    for d in dims:
        if d.size < 1:
            v.append(f"dim {d.name}: size must be >= 1")
        if d.name not in relevant:
            v.append(f"dim {d.name} is relevant to no operand")
    return v


def validate(arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec) -> list[str]:
    """Check every structural invariant; an empty list means valid.

    Violations are data, not exceptions: the list carries one message
    per broken invariant, including capacity overflows (tile footprint
    summed over operands exceeding a bounded level).
    """
    return _check(arch, wl, mapping)[0]


def valid_tile_extents(
    arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec
) -> list[dict[str, int]]:
    """The ``tile_extents`` table of a valid mapping, built once while
    validating it; raises ``InvalidMappingError`` with every violation
    otherwise."""
    violations, extents = _check(arch, wl, mapping)
    if violations:
        raise InvalidMappingError(violations)
    return extents


def _check(
    arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec
) -> tuple[list[str], list[dict[str, int]]]:
    """``validate``'s violations plus the extent table its closure and
    capacity checks read, with a row per level of the architecture or
    of the mapping, whichever has more."""
    sizes = wl.dim_sizes
    v = arch_violations(arch) + workload_violations(wl, sizes)

    # -- mapping invariants
    axes = dict(arch.array.dims)
    seen_axes: set[str] = set()
    for i, u in enumerate(mapping.spatial):
        axis, dim = u.axis, u.dim
        size = sizes.get(dim)
        if axis not in axes:
            v.append(f"spatial unroll targets unknown array axis {axis!r}")
        if size is None:
            v.append(f"spatial unroll of unknown dim {dim!r}")
        if axis in seen_axes:
            v.append(f"array axis {axis} mapped by more than one spatial entry")
            if any(p.axis == axis and p.dim == dim for p in mapping.spatial[:i]):
                v.append(f"duplicate spatial unroll for (axis {axis}, dim {dim})")
        seen_axes.add(axis)
        if size is not None and u.factor > size:
            v.append(f"spatial unroll of {dim} by {u.factor} exceeds dim size {size}")
    if mapping.cores < 1:
        v.append(f"cores must be >= 1 (got {mapping.cores})")
    if len(mapping.temporal) > len(arch.levels):
        v.append(f"mapping tiles {len(mapping.temporal)} levels but the "
                 f"architecture has {len(arch.levels)}")
    for li, loops in enumerate(mapping.temporal, 1):
        for dim, trip in loops:
            if dim not in sizes:
                v.append(f"temporal loop over unknown dim {dim!r} at L{li}")
            if trip < 1:
                v.append(f"temporal trip count for {dim} at L{li} must be >= 1")
    if mapping.core_split is not None:
        cd, cf = mapping.core_split
        if cd not in sizes:
            v.append(f"core split names unknown dim {cd!r}")
        if cf < 1:
            v.append(f"core split factor must be >= 1 (got {cf})")
        if cf > mapping.cores:
            v.append(f"core_split factor {cf} exceeds cores {mapping.cores}")
    if mapping.pinned_operand is not None:
        if not any(op.name == mapping.pinned_operand for op in wl.operands):
            v.append(f"pinned operand {mapping.pinned_operand!r} not in workload")
    if mapping.reload_cycles_per_tile is not None and mapping.pinned_operand is None:
        v.append("reload_cycles_per_tile requires a pinned operand")

    # -- factorization closure: spatial x temporal x core == dim size, per dim
    extents = tile_extents(mapping, max(arch.n_levels, len(mapping.temporal)))
    top = extents[-1]
    for d in wl.dims:
        product = top.get(d.name, 1)
        if product != d.size:
            v.append(f"dim {d.name}: spatial x temporal x core product {product} "
                     f"!= size {d.size}")

    # -- capacity: per-level tile footprints summed over operands
    for lvl in arch.levels:
        if lvl.capacity is None:
            continue
        row = extents[len(mapping.temporal[:lvl.level_index])]  # loops up to lvl
        total = sum(
            tile_elements(row, op) * math.ceil(op.precision_bits / 8)
            for op in wl.operands
        )
        if total > lvl.capacity:
            v.append(f"level {lvl.name}: tile footprint {total} B exceeds capacity "
                     f"{lvl.capacity} B")

    return v, extents
