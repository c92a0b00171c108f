"""arrayneat: data-parallel NEAT on NaN-padded fixed-shape arrays.

Genomes are pairs of fixed-shape float64 tensors with all-NaN padding rows,
so mutation, crossover, distance, speciation, and batched network inference
run as uniform array operations across a whole population at once.
"""

from .config import NeatConfig, dump_config, load_config, parse_config_text
from .errors import (ArrayNeatError, BadAttrIndex, CapacityFull, ConfigError,
                     CycleDetected, DanglingEndpoint, DuplicateConn, DuplicateKey,
                     ExtinctionError, IntegrityError, InvalidFitness, InvalidInput,
                     KeyNotFound, ParseError, ProtectedNode, ShapeMismatch,
                     TerminalState)
from .evolution import (GenerationStats, NodeKeyAllocator, SpeciesState,
                        allocate_spawns, crossover, distance, evolve_step,
                        mutate, reproduce, speciate, update_stagnation)
from .functions import ACTIVATION_IDS, AGGREGATION_IDS
from .genome import (ConnRow, GenomeTensors, NodeRow, PopulationTensors,
                     add_conn, add_node, check_integrity, count_live,
                     genomes_equal, init_genome, parse_genome, remove_conn,
                     remove_node, serialize_genome, set_conn_attr, set_node_attr)
from .graphref import (GraphNetwork, decode, graph_distance, graph_forward)
from .inference import (StackedNetworks, forward, forward_batch, population_forward,
                        population_transform, to_dot, transform)
from .problems import (CartPoleProblem, CartPoleState, Problem, RegressionProblem,
                       XorProblem, cartpole_step, eval_cartpole, eval_regression,
                       eval_xor, make_problem)
from .rng import RngStream
from .runner import (EvolutionState, RunOutcome, init_state, load_checkpoint,
                     run_bench, run_experiment, save_checkpoint)

__version__ = "0.1.0"
