"""Model zoo: Table I fidelity and topology construction."""

import numpy as np

from repro.conv.params import ConvParams
from repro.gxm.etg import ExecutionTaskGraph
from repro.models.inception_v3 import INCEPTION_V3_CONVS, inception_v3_layers
from repro.models.resnet50 import (
    RESNET50_LAYER_COUNTS,
    RESNET50_TABLE1,
    resnet50_layers,
    resnet50_topology,
    resnet_mini_topology,
)


class TestTable1:
    def test_twenty_distinct_layers(self):
        assert sorted(RESNET50_TABLE1) == list(range(1, 21))

    def test_exact_paper_rows(self):
        # spot-check the rows against the printed Table I
        assert RESNET50_TABLE1[1] == (3, 64, 224, 224, 7, 7, 2)
        assert RESNET50_TABLE1[11] == (512, 1024, 28, 28, 1, 1, 2)
        assert RESNET50_TABLE1[13] == (256, 256, 14, 14, 3, 3, 1)
        assert RESNET50_TABLE1[20] == (2048, 512, 7, 7, 1, 1, 1)

    def test_counts_cover_all_ids(self):
        assert set(RESNET50_LAYER_COUNTS) == set(RESNET50_TABLE1)

    def test_total_conv_count_is_resnet50(self):
        """ResNet-50 has 53 convolutions (1 stem + 16x3 bottleneck + 4
        projections)."""
        assert sum(RESNET50_LAYER_COUNTS.values()) == 53

    def test_total_weight_count_plausible(self):
        total = sum(
            RESNET50_LAYER_COUNTS[lid] * p.weight_bytes() / 4
            for lid, p in resnet50_layers(1, pad_channels_to=1)
        )
        # conv weights of ResNet-50: ~23.5M parameters
        assert 20e6 < total < 26e6


class TestResnetTopology:
    def test_full_topology_shapes_match_table1(self):
        """Compiling the full ResNet-50 must yield exactly the Table-I
        distinct conv shapes."""
        topo = resnet50_topology()
        etg = ExecutionTaskGraph.__new__(ExecutionTaskGraph)  # shapes only
        # cheaper: walk specs with the shape inference
        from repro.gxm.graph import compile_etg
        from repro.gxm.nodes import output_shape

        enl, _ = compile_etg(topo)
        shapes = {}
        producer = {}
        got = set()
        for layer in enl.layers:
            ins = (
                [(4, 3, 224, 224)]
                if layer.type == "Data"
                else [shapes[b] for b in layer.bottoms]
            )
            out = output_shape(layer, ins)
            for t in layer.tops:
                shapes[t] = out
            if layer.type == "Convolution":
                n, c, h, w = ins[0]
                got.add(
                    (c, layer.attrs["num_output"], h, w,
                     layer.attrs["kernel"], layer.attrs["kernel"],
                     layer.attrs["stride"])
                )
        want = {v for v in RESNET50_TABLE1.values()}
        assert got == want

    def test_mini_topology_trains_shape(self):
        topo = resnet_mini_topology(num_classes=4, width=16)
        etg = ExecutionTaskGraph(topo, (2, 16, 8, 8), seed=0)
        x = np.zeros((2, 16, 8, 8), dtype=np.float32)
        y = np.zeros(2, dtype=np.int64)
        assert np.isfinite(etg.train_step(x, y))


class TestInception:
    def test_conv_count_band(self):
        total = sum(c for *_, c in INCEPTION_V3_CONVS)
        # Inception-v3 has ~94 convolutions
        assert 70 <= total <= 100

    def test_layers_constructible(self):
        layers = inception_v3_layers(28)
        assert all(isinstance(p, ConvParams) for p, _ in layers)
        # factorized 7x1/1x7 and 3x1/1x3 shapes present
        assert any(p.R == 7 and p.S == 1 for p, _ in layers)
        assert any(p.R == 1 and p.S == 3 for p, _ in layers)

    def test_channels_padded_to_vlen(self):
        for p, _ in inception_v3_layers(28):
            assert p.C % 16 == 0 and p.K % 16 == 0

    def test_total_flops_band(self):
        # Inception-v3 fwd ~5.7 GFLOP/image (x2 for MAC=2 convention)
        per_img = sum(p.flops * c for p, c in inception_v3_layers(1, 1)) / 1e9
        assert 8.0 < per_img < 14.0
