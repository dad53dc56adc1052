from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .network import Network, NetworkSpec
from .zoo import build_3dcnn, build_lcn_baseline, build_network

__all__ = [
    "Checkpoint",
    "Network",
    "NetworkSpec",
    "build_3dcnn",
    "build_lcn_baseline",
    "build_network",
    "load_checkpoint",
    "save_checkpoint",
]
