"""Edge cases for tandem-repeat segment detection."""

from repro.simulator import detect_segments


def reconstruct(ids, segments):
    out = []
    for start, period, repeats in segments:
        out.extend(ids[start : start + period] * repeats)
    return out


class TestEdgeCases:
    def test_empty(self):
        assert detect_segments([]) == []

    def test_single_node_graph(self):
        assert detect_segments([7]) == [(0, 1, 1)]

    def test_no_tandem_repeats(self):
        assert detect_segments([1, 2, 3, 4]) == [(0, 4, 1)]

    def test_period_one(self):
        # smallest period wins ties: AAAA is 4x period 1, not 2x period 2
        assert detect_segments([5, 5, 5, 5]) == [(0, 1, 4)]

    def test_two_element_repeat(self):
        assert detect_segments([1, 2, 1, 2, 1, 2]) == [(0, 2, 3)]

    def test_prefix_and_suffix_around_repeat(self):
        ids = [9, 1, 2, 1, 2, 1, 2, 8]
        assert detect_segments(ids) == [(0, 1, 1), (1, 2, 3), (7, 1, 1)]

    def test_max_period_caps_detection(self):
        ids = [1, 2, 3, 1, 2, 3]
        assert detect_segments(ids, max_period=2) == [(0, 6, 1)]
        assert detect_segments(ids, max_period=3) == [(0, 3, 2)]


class TestRealGraphShapes:
    """Signature streams shaped like real coarsened graphs."""

    def _assert_exact_cover(self, ids, segments):
        assert reconstruct(ids, segments) == ids
        pos = 0
        for start, period, repeats in segments:
            assert start == pos and period >= 1 and repeats >= 1
            pos += period * repeats
        assert pos == len(ids)

    def test_moe_alternating_dense_expert_blocks(self):
        # MoE stacks alternate a shared block with per-layer expert blocks
        # whose router/expert nodes price identically layer to layer:
        # [attn, router, e0, e1] * L with an embedding head and LM tail.
        layer = [10, 20, 31, 32]
        ids = [1] + layer * 6 + [99]
        segments = detect_segments(ids)
        assert (1, len(layer), 6) in segments
        self._assert_exact_cover(ids, segments)

    def test_moe_heterogeneous_experts_break_the_period(self):
        # when every layer's experts price *differently* (ragged capacity)
        # no tandem repeat exists at the layer period — the detector must
        # not invent one, and replay degrades to node-at-a-time.
        ids = []
        for layer in range(5):
            ids.extend([10, 20, 100 + layer, 200 + layer])
        segments = detect_segments(ids)
        assert not any(p == 4 and r > 1 for _, p, r in segments)
        self._assert_exact_cover(ids, segments)

    def test_strictly_nonrepeating_stream_is_one_segment(self):
        ids = list(range(257))
        assert detect_segments(ids) == [(0, len(ids), 1)]

    def test_preset_moe_graph_signatures(self):
        # the real switch-style preset: compile its signature stream the
        # way the columnar tier does and require exact closure on it.
        from repro.core import DEFAULT_REGISTRY, coarsen, route_plan
        from repro.baselines import NAMED_PLANS
        from repro.cluster import paper_testbed
        from repro.graph import trim_auxiliary
        from repro.models import build_preset
        from repro.simulator import compile_columnar_tape

        trimmed, _ = trim_auxiliary(build_preset("switch_like"))
        ng = coarsen(trimmed)
        mesh = paper_testbed(1, 8)
        plan = NAMED_PLANS["megatron"](ng, mesh.gpus_per_node)
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        tape = compile_columnar_tape(routed, mesh)
        pos = 0
        for start, period, repeats in tape.seg_tab.tolist():
            assert start == pos and period >= 1 and repeats >= 1
            pos += period * repeats
        assert pos == len(routed.order)

    def test_preset_nonrepeating_graph_signatures(self):
        # a convnet trunk coarsens to stages whose shapes all differ —
        # closure must hold even when almost nothing repeats.
        from repro.core import DEFAULT_REGISTRY, coarsen, route_plan
        from repro.baselines import NAMED_PLANS
        from repro.cluster import paper_testbed
        from repro.graph import trim_auxiliary
        from repro.models import build_preset
        from repro.simulator import compile_columnar_tape

        trimmed, _ = trim_auxiliary(build_preset("resnet50"))
        ng = coarsen(trimmed)
        mesh = paper_testbed(1, 8)
        plan = NAMED_PLANS["megatron"](ng, mesh.gpus_per_node)
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        tape = compile_columnar_tape(routed, mesh)
        pos = 0
        for start, period, repeats in tape.seg_tab.tolist():
            assert start == pos and period >= 1 and repeats >= 1
            pos += period * repeats
        assert pos == len(routed.order)


class TestCoverage:
    def test_segments_cover_exactly(self):
        cases = [
            [],
            [1],
            [1, 1],
            [1, 2, 1, 2, 3, 3, 3, 4],
            [0] * 7 + [1, 2] * 5 + [9],
            list(range(10)) * 3,
        ]
        for ids in cases:
            segments = detect_segments(ids)
            assert reconstruct(ids, segments) == ids
            # segments are contiguous and non-overlapping
            pos = 0
            for start, period, repeats in segments:
                assert start == pos
                assert period >= 1 and repeats >= 1
                pos += period * repeats
            assert pos == len(ids)
