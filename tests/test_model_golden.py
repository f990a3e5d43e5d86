"""Golden digests of every screening-model variant on fixed toy data.

A refactor of the model that keeps every number the same keeps these
digests.  For each case they hash the exact bytes of: ``init_params`` on a
fixed generator; ``forward`` scores and ``backward`` gradients on one fixed
batch; a two-epoch ``train`` result (parameters, scalers, threshold and
history); and the ``save_checkpoint`` file.  Scores after
``load_checkpoint`` must equal the in-memory scores byte for byte.  The toy
datasets carry raw bus states, so the convolutional heads run too.  A
digest only changes on purpose, and then the change must say why.

The ``checkpoint`` digests changed once, on purpose: checkpoint format 2
stores the parameters and scalers as float64 arrays in an ``.npz`` archive
instead of JSON float literals, and its config no longer carries the fixed
``gcn_layers`` and ``embed_dim``.  The ``init``, ``forward``, ``backward``,
``train`` and ``scores`` digests did not move.

The digests were made with Python 3.11.7 and numpy 2.4.6 linked to
scipy-openblas 0.3.31 (x86_64, Haswell kernels).  Result
bytes depend on which BLAS path runs, so another numpy or BLAS build may fail
them with no change to the code.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from gridstab import nn, persist
from gridstab.model import ModelConfig, ScreeningModel, TrainConfig, scores_for, train

from conftest import make_toy_dataset

N_BUS = 30
CONFIG = ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12,
                     sid_hidden=4, mlp_hidden=(10, 6), cnn_channels=4)

# case name -> (variant, ModelConfig overrides)
CASES = {
    "GraphModel": ("GraphModel", {}),
    "GraphPool": ("GraphPool", {}),
    "MlpOnly": ("MlpOnly", {}),
    "DeepCnn5": ("DeepCnn5", {}),
    "NoGlobal": ("NoGlobal", {}),
    "NoLocal": ("NoLocal", {}),
    "NoGraph": ("NoGraph", {}),
    "NoEmbedding": ("NoEmbedding", {}),
    "GraphModel-rawcnn": ("GraphModel", {"global_encoder": "rawcnn"}),
    "GraphModel-maxpool": ("GraphModel", {"pool": "max"}),
    "GraphModel-linear-gcn3": ("GraphModel", {"gcn_final_relu": False}),
}

GOLDEN = {
    "DeepCnn5": {
        "init": "55c125894024d6ee53068df2331ba72c7153ddb49729aa175a2656a66d073963",
        "forward": "6d31872cf5e791bd7aa126604f352bf9b88eb3092acc328d9a6a2421173e41f5",
        "backward": "1a0d1382ee9a9e9e9a106c669fb82fd3b6791a97ba31aadeb8128dde712c5822",
        "train": "9763a8299da010bbea93951b93428039be6d5221926bc7c8ea6b7a44bbaceff5",
        "checkpoint": "a96b1fb015c12cbc5693ef85c517cf43392f0fa9375045dd2fce2e577a2a413f",
        "scores": "967136ddaaa415af037ed5891d173ed9d5b90b1bbca791a8ee3446a97bbfa636",
    },
    "GraphModel": {
        "init": "8b88ff87cf7bbdfae91893db53379af7c4686c433cc9d68576c4bdb82564f2c2",
        "forward": "40040d7570f457d12c6b096d5615e8ce379cdaeaff5ebb1221a5605cada99324",
        "backward": "8d36ecb6db7dfe0824e8f7fdb29fc56d16cb626145804ffa8a3ae86014dc79fd",
        "train": "7b98b2495e1216b49e993165d52c819d91715064de5d1cd27068015e19bcc92e",
        "checkpoint": "6eff13598f05634c9ae00ec2b529a09f801c61a4448f4ab11cb8c408dbf0ca0c",
        "scores": "0e85e3bb9dcc1af9ede308530a035ea3e7d1816146c8a199dda25100ac88e635",
    },
    "GraphModel-linear-gcn3": {
        "init": "8b88ff87cf7bbdfae91893db53379af7c4686c433cc9d68576c4bdb82564f2c2",
        "forward": "82d860a4133fccee582b737b4d31940b3128ce46d089d49e6bf908c3d227c2df",
        "backward": "a97b2e2181d3c8ba61ec7a32d6bcb2d9d709a54efd6a7836d82b3ad9c3a672f1",
        "train": "ba17ea5119a74c0883cf634b227d306d92c58b8563dfb933a79fe4061265bb94",
        "checkpoint": "aa75c861593c9c882e246f964555ae8f146fa7d851d7b7dacd8cff61859a9105",
        "scores": "768f221d6b0f7878bf64e0f04b63f947a433abdd84859f2058140a3e299c6fa9",
    },
    "GraphModel-maxpool": {
        "init": "8b88ff87cf7bbdfae91893db53379af7c4686c433cc9d68576c4bdb82564f2c2",
        "forward": "56975845cf639e6a1153ffb0ca4950a6319aa641d36e28bcb0cfe51f1f02113d",
        "backward": "bbbf0ae1a5ae343f90f8f74dff413b68a23cf87fcfa4a0609cde38d569cd3d57",
        "train": "12b0bed3ab202c28205a27a84a99bc370c40693386bb51efa4ae240856c8a847",
        "checkpoint": "5f124fe09daf8048bfcdd17b495f6c9f62289969108eebf9ea82aa22c414e5cf",
        "scores": "5e912372f66e319776b17e9a34b9e0daf72a8069e6e2302f00a4d8469af8f2f9",
    },
    "GraphModel-rawcnn": {
        "init": "53496899f4e9539df15aed9fde2b0613a77ec32a52758ffe27cd5cf6588de272",
        "forward": "261b829efea25fef7b4462600b3138d800fb159a744c9ebea92d816dc0f98318",
        "backward": "bf9025722df3d42fed070b163192d1604103bdad7f205e5ba0212c8bc28c136d",
        "train": "d16458bcf4b5d753538d872ebd8c69162d3a25bd9d49663e494adda106f0e29e",
        "checkpoint": "26781d109d776d0a4409b5feab027b3f47ee9e623ba35b9b0d740e8ee817150e",
        "scores": "b7293fa7efd7063876ca191cdd78ffd1b1b46620400effcae1e7eecf36221084",
    },
    "GraphPool": {
        "init": "8b88ff87cf7bbdfae91893db53379af7c4686c433cc9d68576c4bdb82564f2c2",
        "forward": "56975845cf639e6a1153ffb0ca4950a6319aa641d36e28bcb0cfe51f1f02113d",
        "backward": "bbbf0ae1a5ae343f90f8f74dff413b68a23cf87fcfa4a0609cde38d569cd3d57",
        "train": "12b0bed3ab202c28205a27a84a99bc370c40693386bb51efa4ae240856c8a847",
        "checkpoint": "f0e7b9541bf4e8da3b92322cf33409efa0df9f411fc759e7c03e5118a98ed5f6",
        "scores": "5e912372f66e319776b17e9a34b9e0daf72a8069e6e2302f00a4d8469af8f2f9",
    },
    "MlpOnly": {
        "init": "84e005afda9e3b956234078e9b209140fa8cd218ae47fe368e2412dde19720cc",
        "forward": "3c5399b0a98f43da0e1cf569c00e75267b61c9a07e143d21b40d46ae5dba15b1",
        "backward": "cfe410abb0cc925b0cffa77580fcebf37b0447a393423f40726d2965c62d24e9",
        "train": "4a44daa3b84c667bcb03c91c98a491356737caf3c1b82c101ebc8137797a0197",
        "checkpoint": "55a6a6ce7f0ae07c1040e95c12802531f32006433b2dd55d7cf2a19b57c24ff9",
        "scores": "0c7e12f373418ef6acb87f5aad975445c1eb3756805f085a15479743b484f3c9",
    },
    "NoEmbedding": {
        "init": "40791b0a296d5285276919b1939fd68e6359e71cbe514878e4c3dc462a629601",
        "forward": "a01a79a6b3ecadf51b0af521380ff6c3903cbb223f65950893159b4bb3e78531",
        "backward": "82595d2605f5b04c3bbd55bacfd146b99baed54b19a1f12fa02309838d9a1ddf",
        "train": "ae6858bd0662d805ab2c00955e4900e897037893e67d7c56cd0d883c6a12e199",
        "checkpoint": "82206df7ef19b725e4f148b09d13517a83077ebedf000f77928aab592fd481b0",
        "scores": "875665040bca1d2c6d707ca32a3d869519c44f024257a2a0bfb9bf6ec7a468b7",
    },
    "NoGlobal": {
        "init": "04b3905a394a86c3ce58465becaa7319581dd6d7f09cc55a41d3332870265d12",
        "forward": "c5fef3bd64f7b29423d67bce9b7eb6d1db231dc3cc60ec8627aa7df63eebd515",
        "backward": "48837be4763aca17c3e2ba3336baeba92acdbfdf578409333c9debe33b2ff3e9",
        "train": "cf12345bb631105bfa723016fa8afedf3d691246949d2cf7b1440c1dfca437c1",
        "checkpoint": "caf7511399ce9af9f09acf573ee0bb0d4341bfa6534f47841799a3ef8816c3ae",
        "scores": "9bb980666500d4123a4b40f6568bf10a365558f6d8190dac4f2ec1cdb0bff3b5",
    },
    "NoGraph": {
        "init": "8b88ff87cf7bbdfae91893db53379af7c4686c433cc9d68576c4bdb82564f2c2",
        "forward": "1caa0ac54b481cd1f8b2094794e0ecbfaa249f1e4f2512e75845cfaad5778900",
        "backward": "7f6e4cbdf70eb7041f7ca5c7f7793eaad460491288cbfa224afc1d1c9ca73956",
        "train": "11f3e74521d25a565c4c41ac4e235d6b43161da4dcc7552648979142f54f1939",
        "checkpoint": "85647ae63b171ce9cc2ca5b3f969e0b602e1d75a71523706915814712e0ec4a6",
        "scores": "090787c236dc2e5e90f25ddb026f923f6b23914edfd4d42528b8f4e0e43ab6c9",
    },
    "NoLocal": {
        "init": "207efb88a9ac06c3c6508908ded07d83d841e75d162e0daedff00358ba6af40c",
        "forward": "bf9bbd0ce55621466a4a6190155bdcb2530eb41e2f9a645101fa9a888572a446",
        "backward": "9ceeae009140d7412dd6cde797a3581a9417e85b624d585a5a313884a983c901",
        "train": "baab95be09ea3863b24e9260fd08b4252813bb0d713006f1264a3039e381279d",
        "checkpoint": "fbb16956bca1b934a449c770de586a5e196eb78be57a9f32aa3e29f1cf225e3f",
        "scores": "82c398cd3272e219d3bcb6550f5a9ec80d20997cc9c1b38f5cf5ff53b4741346",
    },
}


def toy_with_raw(n: int, seed: int):
    ds = make_toy_dataset(n, seed=seed)
    rng = np.random.default_rng([seed, 1])
    ds.raw_states = {(s.day, s.slot): rng.normal(size=(N_BUS, 13)) for s in ds.samples}
    return ds


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _arrays(named: dict):
    for key in sorted(named):
        arr = np.ascontiguousarray(named[key])
        yield (key, arr.dtype.str, arr.shape)
        yield arr.tobytes()


def case_digests(tmp_path, variant: str, overrides: dict) -> dict[str, str]:
    config = dataclasses.replace(CONFIG, **overrides)
    ds = toy_with_raw(12, seed=21)
    model = ScreeningModel(variant, config, {
        "global_dim": ds.global_dim, "n_elements": ds.n_elements,
        "max_nodes": ds.max_nodes, "node_features": 59, "n_bus": N_BUS,
    })
    model.fit_scalers(ds)
    params = model.init_params(np.random.default_rng(5))
    batch = model.build_batch(ds, range(len(ds.samples)))
    y, caches = model.forward(params, batch)
    _, grad_y = nn.bce_loss(y, ds.labels())
    grads = model.backward(params, caches, grad_y)

    result = train(variant, toy_with_raw(48, seed=22), toy_with_raw(24, seed=23), config,
                   TrainConfig(epochs=2, batch_size=16, seed=3, balance=False))
    path = tmp_path / "ckpt.json"
    persist.save_checkpoint(result, path)
    probe = toy_with_raw(16, seed=24)
    scores = scores_for(result, probe)
    assert scores_for(persist.load_checkpoint(path), probe).tobytes() == scores.tobytes()

    return {
        "init": _sha(_arrays(params)),
        "forward": _sha([y.tobytes()]),
        "backward": _sha(_arrays(grads)),
        "train": _sha([*_arrays(result.params), *_arrays(result.scalers),
                       result.threshold.hex(), result.best_epoch,
                       result.calibration_feasible,
                       [sorted(row.items()) for row in result.history]]),
        "checkpoint": _sha([path.read_bytes()]),
        "scores": _sha([scores.tobytes()]),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_golden_digests(tmp_path, case):
    assert case_digests(tmp_path, *CASES[case]) == GOLDEN[case]
