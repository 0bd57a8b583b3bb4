"""GxM -- the Graph execution Model (section II-L).

A lightweight training/inference framework: a protobuf-style topology text
is parsed into a Network List, extended with Split nodes, transformed into
node/task graphs, and finally an Execution Task Graph (ETG) whose tasks run
the forward, backward and weight-update passes (Fig. 3's seven-stage
pipeline).  Multi-node data-parallel training overlaps the gradient
all-reduce with backward compute via a simulated MLSL (:mod:`repro.gxm.mlsl`).
"""

from repro.gxm.topology import LayerSpec, TopologySpec
from repro.gxm.parser import parse_topology
from repro.gxm.graph import (
    extend_network,
    build_node_graph,
    build_petg,
    bin_tasks,
    dedup_tasks,
    compile_etg,
)
from repro.gxm.etg import ExecutionTaskGraph, Task
from repro.gxm.trainer import SGD, Trainer
from repro.gxm.multiproc import ProcessParallelTrainer
from repro.gxm.checkpoint import (
    CheckpointNotFoundError,
    TrainingCheckpoint,
    load_checkpoint,
    load_training_checkpoint,
    save_checkpoint,
    save_training_checkpoint,
)
from repro.gxm.data import SyntheticImageDataset
from repro.gxm.mlsl import MLSLSimulator, ring_allreduce_time

__all__ = [
    "LayerSpec",
    "TopologySpec",
    "parse_topology",
    "extend_network",
    "build_node_graph",
    "build_petg",
    "bin_tasks",
    "dedup_tasks",
    "compile_etg",
    "ExecutionTaskGraph",
    "Task",
    "SGD",
    "Trainer",
    "ProcessParallelTrainer",
    "CheckpointNotFoundError",
    "TrainingCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "SyntheticImageDataset",
    "MLSLSimulator",
    "ring_allreduce_time",
]
