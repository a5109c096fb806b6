import hashlib

import pytest

from kneser_minors import (
    ParameterError,
    Params,
    ResourceCapError,
    binomial,
    build_coloring,
    chi,
    chi_of,
    params_grid,
    serialize,
    verify_coloring,
)
from kneser_minors.core import intersects
from oracles import alpha_oracle


class TestChi:
    def test_values(self):
        assert chi(Params(12, 3)) == 55
        assert chi(Params(14, 3)) == 91
        assert chi(Params(11, 3)) == 55
        assert chi(Params(7, 3)) == 18  # ceil(35 / 2)

    def test_ceiling_bracketing(self):
        for p in params_grid([3, 4, 5], 3000):
            alpha = p.n // p.k
            total = binomial(p.n, p.k)
            value = chi(p)
            assert value * alpha >= total > (value - 1) * alpha

    @pytest.mark.parametrize("n,k,message", [(3, 5, "k = 5 outside [1, 3]"), (5, 0, "k = 0 outside [1, 5]")])
    def test_k_outside_one_to_n_is_a_parameter_error(self, n, k, message):
        with pytest.raises(ParameterError) as info:
            chi_of(n, k)
        assert type(info.value) is ParameterError and str(info.value) == message

    def test_k_equal_to_n_is_one_class(self):
        assert chi_of(5, 5) == chi_of(1, 1) == 1


class TestColoring:
    def test_7_3(self):
        cert = build_coloring(Params(7, 3))
        assert len(cert.classes) == 18
        assert all(len(cls) <= 2 for cls in cert.classes)
        report = verify_coloring(cert)
        assert report.passed, report.summary_lines()

    def test_12_3(self):
        cert = build_coloring(Params(12, 3))
        assert len(cert.classes) == 55
        assert all(len(cls) <= 4 for cls in cert.classes)
        assert verify_coloring(cert).passed

    @pytest.mark.parametrize("k", [3, 4])
    def test_tight_regime(self, k):
        # n = 2k + 1 forces classes of size at most 2.
        p = Params(2 * k + 1, k)
        cert = build_coloring(p)
        assert len(cert.classes) == -(-binomial(p.n, p.k) // 2)
        assert verify_coloring(cert).passed

    def test_classes_pairwise_disjoint_directly(self):
        cert = build_coloring(Params(9, 3))
        for cls in cert.classes:
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    assert not intersects(cls[i], cls[j])

    def test_long_augmenting_paths_20_5(self):
        # This build once raised RecursionError: with one flow node per class
        # its augmenting paths reached about 1800 arcs, beyond the default
        # recursion limit of a recursive search.  The flows are now solved by
        # a loop with no call stack, and the last two label steps by a closed
        # form (an Euler split, then a forced step); the digest is that engine's.
        p = Params(20, 5)
        cert = build_coloring(p)
        assert len(cert.classes) == chi(p)
        assert verify_coloring(cert).passed
        text = serialize.dumps_canonical(serialize.coloring_to_dict(cert))
        assert (
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            == "98c372c33811f28ad323a20d20bfa78253e1ea7967a9725e6d785a6e3d451c86"
        )

class TestAlphaOracle:
    def test_values(self):
        assert alpha_oracle(Params(7, 3)) == 2
        assert alpha_oracle(Params(9, 3)) == 3
        assert alpha_oracle(Params(10, 3)) == 3

    def test_matches_formula_in_range(self):
        for p in params_grid([3, 4, 5], 500):
            assert alpha_oracle(p) == p.n // p.k

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            alpha_oracle(Params(20, 3))
