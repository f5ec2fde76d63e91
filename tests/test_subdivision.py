import json
import re
from itertools import combinations, permutations

import pytest

from cliquesub.drc import count_disjoint_paths4
from cliquesub.graphs import gen_gnp, new_graph
from cliquesub.oracles import sigma_exact_tiny
from cliquesub.subdivision import (
    BuildFailure,
    SubdivisionCertificate,
    _missing_pairs,
    _path_interiors,
    build_subdivision,
    relabel_certificate,
    sigma_lower_from_cert,
    verify_subdivision,
)
from conftest import complete, cycle, petersen, random_graph


class TestBuilder:
    def test_clique_branch_set_needs_no_paths(self):
        cert = build_subdivision(complete(6), range(6), [])
        assert isinstance(cert, SubdivisionCertificate)
        assert cert.paths == {}
        assert verify_subdivision(complete(6), cert).ok

    def test_single_forced_path(self):
        # u=0, v=1 nonadjacent, exactly the path 0-2-3-4-1 available
        g = new_graph(5, [(0, 2), (2, 3), (3, 4), (4, 1)])
        cert = build_subdivision(g, [0, 1], [2, 3, 4])
        assert isinstance(cert, SubdivisionCertificate)
        assert cert.paths == {(0, 1): (0, 2, 3, 4, 1)}
        assert verify_subdivision(g, cert, exact_length=4).ok

    def test_failure_is_structured(self):
        g = new_graph(4, [(0, 2), (2, 3)])
        res = build_subdivision(g, [0, 1], [2, 3])
        assert isinstance(res, BuildFailure)
        assert res.failed_pair == (0, 1)
        assert res.placed == 0

    def test_pool_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            build_subdivision(complete(4), [0, 1], [1, 2])

    def test_lexicographic_path_choice(self):
        # two parallel paths; the lex-smaller interior wins
        g = new_graph(8, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)])
        cert = build_subdivision(g, [0, 1], range(2, 8))
        assert cert.paths[(0, 1)] == (0, 2, 3, 4, 1)

    def test_deterministic(self):
        g = gen_gnp(60, 0.7, 2)
        a = build_subdivision(g, range(8), range(8, 60))
        b = build_subdivision(g, range(8), range(8, 60))
        assert isinstance(a, SubdivisionCertificate)
        assert a.branch == b.branch and a.paths == b.paths

    def test_greedy_safety_property(self, rng):
        # when every missing pair has >= 3M+1 disjoint length-4 paths
        # through the pool, the greedy builder cannot fail
        successes = 0
        while successes < 120:
            n = rng.randint(45, 70)
            g = random_graph(rng, n, rng.uniform(0.7, 0.92))
            k = rng.randint(3, 5)
            s_set = rng.sample(range(n), k)
            missing = [
                (u, v)
                for i, u in enumerate(sorted(s_set))
                for v in sorted(s_set)[i + 1 :]
                if not g.has_edge(u, v)
            ]
            if not (1 <= len(missing) <= 3):
                continue
            need = 3 * len(missing) + 1
            # cheap prefilter keeps the exact search away from exhaustion
            if (n - k) // 3 < need + 2:
                continue
            if any(
                count_disjoint_paths4(g, u, v, set(s_set) - {u, v}, limit=need) < need
                for u, v in missing
            ):
                continue
            pool = [v for v in range(n) if v not in set(s_set)]
            cert = build_subdivision(g, s_set, pool)
            assert isinstance(cert, SubdivisionCertificate), (
                f"builder failed despite the disjoint-path hypothesis: {cert}"
            )
            assert verify_subdivision(g, cert, exact_length=4).ok
            successes += 1


class TestMissingPairs:
    def test_matches_pairwise_listing(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 40))
            branch = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
            expected = [
                (u, v) for u, v in combinations(branch, 2) if not g.has_edge(u, v)
            ]
            assert _missing_pairs(g.rows, branch) == expected


class TestPathInteriors:
    def test_matches_brute_force(self, rng):
        # every simple u-v path with the given number of edges and its
        # interior in avail, listed from all orderings of interior vertices
        for _ in range(300):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.9))
            u, v = rng.sample(range(n), 2)
            others = [w for w in range(n) if w not in (u, v)]
            avail = [w for w in others if rng.random() < 0.8]
            mask = sum(1 << w for w in avail)
            length = rng.randint(2, 6)
            lo = rng.choice([0, rng.randint(0, n)])
            want = sorted(
                interior
                for interior in permutations(avail, length - 1)
                if interior[0] >= lo
                and all(g.has_edge(a, b) for a, b in zip((u, *interior), (*interior, v)))
            )
            got = list(_path_interiors(g.rows, u, v, mask, length, lo))
            assert got == want, (n, u, v, avail, length, lo)


class TestVerifier:
    def _built(self, seed=1):
        g = gen_gnp(40, 0.75, seed)
        cert = build_subdivision(g, range(7), range(7, 40))
        assert isinstance(cert, SubdivisionCertificate)
        assert verify_subdivision(g, cert).ok
        return g, cert

    def test_tamper_interior_overlap(self):
        g, cert = self._built()
        pairs = sorted(cert.paths)
        assert len(pairs) >= 2
        p0, p1 = pairs[0], pairs[1]
        a, b, c = cert.paths[p1][1:-1]
        donor = cert.paths[p0][2]
        tampered = dict(cert.paths)
        tampered[p1] = (p1[0], a, donor, c, p1[1])
        bad = SubdivisionCertificate(branch=cert.branch, paths=tampered)
        res = verify_subdivision(g, bad)
        assert not res.ok
        assert res.clause in ("interior overlap", "non-edge on path")

    def test_tamper_remove_edge(self):
        g, cert = self._built()
        (u, v), path = sorted(cert.paths.items())[0]
        edges = [e for e in g.edges() if e != (min(path[1], path[2]), max(path[1], path[2]))]
        g2 = new_graph(g.n, edges)
        res = verify_subdivision(g2, cert)
        assert not res.ok
        assert res.clause == "non-edge on path"

    def test_tamper_interior_into_branch(self):
        g, cert = self._built()
        (u, v), path = sorted(cert.paths.items())[0]
        other_branch = next(w for w in cert.branch if w not in (u, v))
        tampered = dict(cert.paths)
        tampered[(u, v)] = (u, path[1], other_branch, path[3], v)
        bad = SubdivisionCertificate(branch=cert.branch, paths=tampered)
        res = verify_subdivision(g, bad)
        assert not res.ok
        assert res.clause in ("path interior touches the branch set", "non-edge on path")

    def test_missing_path_detected(self):
        g, cert = self._built()
        tampered = dict(cert.paths)
        tampered.popitem()
        bad = SubdivisionCertificate(branch=cert.branch, paths=tampered)
        assert verify_subdivision(g, bad).clause == "missing path for nonadjacent branch pair"

    def test_extra_path_detected(self):
        g, cert = self._built()
        adj_pair = next(
            (a, b)
            for i, a in enumerate(cert.branch)
            for b in cert.branch[i + 1 :]
            if g.has_edge(a, b)
        )
        tampered = dict(cert.paths)
        tampered[adj_pair] = (adj_pair[0],) + cert.paths[sorted(cert.paths)[0]][1:-1] + (adj_pair[1],)
        bad = SubdivisionCertificate(branch=cert.branch, paths=tampered)
        assert not verify_subdivision(g, bad).ok

    def test_wrong_length_flagged_in_strict_mode(self):
        g = cycle(5)
        cert = SubdivisionCertificate(
            branch=(0, 1, 2), paths={(0, 2): (0, 4, 3, 2)}
        )
        assert verify_subdivision(g, cert).ok  # sound witness, any length
        strict = verify_subdivision(g, cert, exact_length=4)
        assert not strict.ok and "length" in strict.clause


class TestCertValue:
    def test_order_from_verified(self):
        cert = build_subdivision(complete(6), range(6), [])
        verify_subdivision(complete(6), cert)
        assert sigma_lower_from_cert(cert) == 6

    def test_unverified_rejected(self):
        cert = SubdivisionCertificate(branch=(0, 1), paths={})
        with pytest.raises(ValueError, match="verified"):
            sigma_lower_from_cert(cert)

    def test_petersen_cert_from_oracle(self):
        g = petersen()
        res = sigma_exact_tiny(g, 4)
        assert verify_subdivision(g, res.certificate).ok
        assert sigma_lower_from_cert(res.certificate) == 4

    def test_order_at_most_n(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9))
            res = sigma_exact_tiny(g, min(3, g.n))
            if res.status == "yes":
                verify_subdivision(g, res.certificate)
                assert sigma_lower_from_cert(res.certificate) <= g.n


class TestSoundness:
    def test_verified_order_below_exact_sigma(self, rng):
        # builder certificates never overshoot the exact subdivision number
        from cliquesub.oracles import sigma_exact_value

        done = 0
        while done < 120:
            n = rng.randint(4, 11)
            g = random_graph(rng, n, rng.uniform(0.4, 0.95))
            k = rng.randint(2, min(6, n))
            s_set = rng.sample(range(n), k)
            pool = [v for v in range(n) if v not in set(s_set)]
            cert = build_subdivision(g, s_set, pool)
            if isinstance(cert, BuildFailure):
                continue
            assert verify_subdivision(g, cert).ok
            exact, _ = sigma_exact_value(g)
            assert cert.order <= exact.value
            done += 1


class TestJsonFormat:
    def test_round_trip(self):
        g = gen_gnp(30, 0.8, 4)
        cert = build_subdivision(g, range(6), range(6, 30))
        text = cert.to_json()
        back = SubdivisionCertificate.from_json(text)
        assert back.branch == cert.branch and back.paths == cert.paths

    def test_stable_field_order(self):
        cert = SubdivisionCertificate(branch=(0, 1, 2), paths={(0, 2): (0, 4, 3, 2)})
        data = json.loads(cert.to_json())
        assert list(data.keys()) == ["order", "branch", "paths"]
        assert data["paths"][0] == {"pair": [0, 2], "via": [4, 3]}

    @pytest.mark.parametrize(
        "data, field",
        [
            ({}, "branch"),
            ([], "JSON object"),
            ({"branch": [0, 1]}, "paths"),
            ({"branch": [0, 1], "paths": [{"pair": [0, 1]}]}, "paths[0].via"),
            ({"branch": [0, 1], "paths": [{"pair": [0], "via": [2]}]}, "paths[0].pair"),
            ({"branch": [0, 1], "paths": ["x"]}, "paths[0].pair"),
            ({"branch": [0], "order": "one", "paths": []}, "order"),
        ],
    )
    def test_malformed_json_names_the_field(self, data, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            SubdivisionCertificate.from_json_dict(data)

    def test_relabel_then_verify(self):
        from cliquesub.graphs import induced

        g = gen_gnp(40, 0.8, 9)
        sub, mapping = induced(g, range(5, 35))
        cert = build_subdivision(sub, range(5), range(5, sub.n))
        assert isinstance(cert, SubdivisionCertificate)
        lifted = relabel_certificate(cert, mapping)
        assert not lifted.verified
        assert verify_subdivision(g, lifted).ok

    def test_relabel_composes(self):
        """Lifting through two induced levels at once equals lifting one
        level at a time, as the sparse route's single lift relies on."""
        from cliquesub.graphs import induced

        g = gen_gnp(60, 0.8, 3)
        mid, outer = induced(g, [*range(3, 60, 2), *range(4, 40, 3)])
        sub, inner = induced(mid, [v for v in range(mid.n) if v % 5])
        cert = build_subdivision(sub, range(0, 12, 2), range(12, sub.n))
        assert isinstance(cert, SubdivisionCertificate) and cert.paths
        stepwise = relabel_certificate(relabel_certificate(cert, inner), outer)
        at_once = relabel_certificate(cert, tuple(outer[v] for v in inner))
        assert at_once.to_json_dict() == stepwise.to_json_dict()
        assert verify_subdivision(g, at_once).ok
