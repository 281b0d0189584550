"""tribem: constant-element BEM for 3D linear elastostatics, with a
benchmark harness for realtime-throughput studies."""

from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    LinearSystem,
    apply_boundary_conditions,
    assemble,
    integrate_self_g,
    read_matrix,
    rigid_body_diagonal,
    write_matrix,
)
from .bench import (
    BenchConfig,
    RealtimeVerdict,
    TimingRecord,
    emit_report,
    estimate_nonlinear,
    realtime_verdict,
    run_sweep,
    summarize,
)
from .distribution import (
    BlockCyclicParams,
    BlockMapParams,
    PhaseTimings,
    ProcessGrid,
    block_cyclic_map,
    block_map,
    distributed_assemble_solve,
    owner_of_entry,
    partition_rows,
)
from .kernels import (
    Material,
    QuadratureRule,
    gauss_rule,
    kelvin_T,
    kelvin_U,
    make_material,
)
from .mesh import (
    SurfaceMesh,
    generate_box,
    generate_cube,
    load_stl,
    validate,
    write_stl,
)
from .problems import Problem, box_problem, cube_problem, load_bc_file, parse_bc_file
from .solver import (
    PrecomputedOperator,
    Solution,
    apply_precomputed,
    equilibrium_residual,
    scatter_solution,
    solution_to_csv,
    solve,
    solve_direct,
)

__version__ = "0.1.0"
