import pytest

from simspec.errors import InvalidStarMatrixError, NotForestError, ResourceGuardError
from simspec.fields import QQ
from simspec.matrices import Mat
from simspec.stargraph import (
    FWD,
    REV,
    Digraph,
    StarMatrix,
    disjoint_witness,
    enumerate_forests,
    forest_from_star,
    is_forest,
    matches,
    star_from_forest,
    undirected_path,
)


# independent acyclicity oracle: undirected multigraph is a forest iff
# #edges = #vertices - #components
def _is_forest_oracle(n, arrows):
    edges = list(arrows)
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = 0
    for v in range(1, n + 1):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u])
    return len(edges) == n - comps


def test_is_forest_examples():
    assert is_forest(Digraph(2, []))
    assert not is_forest(Digraph(2, [(1, 2), (2, 1)]))
    assert is_forest(Digraph(4, [(4, 1), (2, 1), (2, 3)]))
    assert not is_forest(Digraph(3, [(1, 2), (2, 3), (3, 1)]))


def test_is_forest_against_oracle():
    n = 3
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for bits in range(1 << len(positions)):
        arrows = [e for k, e in enumerate(positions) if bits >> k & 1]
        assert is_forest(Digraph(n, arrows)) == _is_forest_oracle(n, arrows)


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph(2, [(1, 3)])


def test_star_from_forest_n2():
    assert star_from_forest(Digraph(2, [])).text_rows() == ["*0", "0*"]
    assert star_from_forest(Digraph(2, [(1, 2)])).text_rows() == ["*1", "**"]
    assert star_from_forest(Digraph(2, [(2, 1)])).text_rows() == ["*0", "1*"]


def test_star_from_forest_n4_chains():
    path = Digraph(4, [(1, 2), (2, 3), (3, 4)])
    assert star_from_forest(path).text_rows() == ["*100", "**10", "***1", "****"]
    rev = Digraph(4, [(2, 1), (3, 2), (4, 3)])
    assert star_from_forest(rev).text_rows() == ["*000", "1*00", "01*0", "001*"]


def test_star_from_forest_worked_example():
    G = Digraph(4, [(4, 1), (2, 1), (2, 3)])
    assert star_from_forest(G).text_rows() == ["*000", "1*10", "***0", "1***"]


def test_star_from_forest_rejects_cycles():
    with pytest.raises(NotForestError):
        star_from_forest(Digraph(2, [(1, 2), (2, 1)]))


def test_forest_from_star_examples():
    S = StarMatrix.from_text_rows(["*0", "1*"])
    assert forest_from_star(S) == Digraph(2, [(2, 1)])
    S = StarMatrix.from_text_rows(["*00", "0*0", "00*"])
    assert forest_from_star(S) == Digraph(3, [])
    S = StarMatrix.from_text_rows(["*000", "1*10", "***0", "1***"])
    assert forest_from_star(S) == Digraph(4, [(4, 1), (2, 1), (2, 3)])


def test_forest_from_star_rejects_invalid():
    with pytest.raises(InvalidStarMatrixError):
        forest_from_star(StarMatrix.from_text_rows(["*1", "1*"]))
    with pytest.raises(InvalidStarMatrixError):
        # (2,1) must be * (path arrow (1,2) < (2,1)), not 0
        forest_from_star(StarMatrix.from_text_rows(["*1", "0*"]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_roundtrip_exhaustive(n):
    stars = set()
    for G in enumerate_forests(n):
        S = star_from_forest(G)
        assert forest_from_star(S) == G
        stars.add(S)
    # distinct forests give distinct canonical patterns
    assert len(stars) == len(enumerate_forests(n))


def _star_by_definition(G):
    """1 at arrows, * on the diagonal and where the connecting path's arrows
    are all lex-smaller than the position, else 0: one path per cell."""
    cells = []
    for i in range(1, G.n + 1):
        row = []
        for j in range(1, G.n + 1):
            path = None if i == j else undirected_path(G, i, j)
            if (i, j) in G.arrows:
                row.append("1")
            elif i == j or (path is not None
                            and all(arrow < (i, j) for arrow in path.arrows())):
                row.append("*")
            else:
                row.append("0")
        cells.append(row)
    return StarMatrix(cells)


def test_star_from_forest_against_definition():
    forests = [G for n in range(1, 6) for G in enumerate_forests(n)]
    assert len(forests) == 3305
    for G in forests:
        assert star_from_forest(G) == _star_by_definition(G), G


def test_matches():
    S = StarMatrix.from_text_rows(["*1", "**"])
    assert matches(S, Mat(QQ, [[5, 1], [2, 3]]))
    assert not matches(S, Mat(QQ, [[5, 0], [2, 3]]))
    G = Digraph(4, [(4, 1), (2, 1), (2, 3)])
    S4 = star_from_forest(G)
    A2 = Mat(QQ, [[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 2, 0]])
    assert matches(S4, A2)
    assert not matches(S4, Mat.identity(QQ, 4))


def test_enumerate_forests_counts():
    assert len(enumerate_forests(1)) == 1
    assert len(enumerate_forests(2)) == 3
    assert len(enumerate_forests(3)) == 19
    assert len(enumerate_forests(4)) == 201


def test_enumerate_forests_against_brute():
    # independent count: all arrow subsets that are forests by the oracle,
    # which also confirms uniqueness of the enumeration
    for n in (2, 3):
        positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        brute = 0
        for bits in range(1 << len(positions)):
            arrows = [e for k, e in enumerate(positions) if bits >> k & 1]
            if _is_forest_oracle(n, arrows):
                brute += 1
        got = enumerate_forests(n)
        assert len(got) == brute
        assert len(set(got)) == len(got)


def test_enumerate_forests_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_forests(6)


def test_undirected_path():
    G = Digraph(2, [(1, 2)])
    path = undirected_path(G, 1, 2)
    assert path.vertices == (1, 2) and path.flags == (FWD,)

    G = Digraph(4, [(4, 1), (2, 1), (2, 3)])
    path = undirected_path(G, 4, 3)
    assert path.vertices == (4, 1, 2, 3)
    assert path.flags == (FWD, REV, FWD)
    assert path.arrows() == [(4, 1), (2, 1), (2, 3)]
    path = undirected_path(G, 3, 2)
    assert path.vertices == (3, 2) and path.flags == (REV,)
    assert undirected_path(Digraph(3, [(1, 2)]), 1, 3) is None
    with pytest.raises(ValueError):
        undirected_path(G, 2, 2)


def test_path_presence_matches_components():
    for G in enumerate_forests(4):
        uf = {v: v for v in range(1, 5)}

        def find(v):
            while uf[v] != v:
                v = uf[v]
            return v

        for a, b in G.sorted_arrows():
            uf[find(a)] = find(b)
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    path = undirected_path(G, i, j)
                    assert (path is not None) == (find(i) == find(j))


def test_disjoint_witness_examples():
    S1 = StarMatrix.from_text_rows(["*1", "**"])
    S2 = StarMatrix.from_text_rows(["*0", "1*"])
    assert disjoint_witness(S1, S1) is None
    assert disjoint_witness(S1, S2) == (1, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_disjoint_witness_exhaustive(n):
    stars = [star_from_forest(G) for G in enumerate_forests(n)]
    for i, S1 in enumerate(stars):
        for S2 in stars[i + 1:]:
            assert disjoint_witness(S1, S2) is not None
