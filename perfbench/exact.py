"""The benchmark's own exact linear algebra, kept apart from simspec.

Matrices are lists of rows.  Over F_p (``p`` an int) entries are Python ints
in 0..p-1; over Q (``p`` is None) they are ``Fraction``s.  Python ints never
overflow, so these routines serve as the independent reference that every
answer of the program is checked against.
"""

from fractions import Fraction


def red(x, p):
    return x % p if p else x


def recip(x, p):
    return pow(x, -1, p) if p else Fraction(1) / x


def matmul(A, B, p):
    cols = list(zip(*B))
    return [[red(sum(a * b for a, b in zip(row, col)), p) for col in cols]
            for row in A]


def diag(values, p):
    zero = 0 if p else Fraction(0)
    n = len(values)
    return [[values[i] if i == j else zero for j in range(n)] for i in range(n)]


def det(A, p):
    M = [list(row) for row in A]
    n = len(M)
    d = 1 if p else Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return 0 if p else Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            d = red(-d, p)
        d = red(d * M[c][c], p)
        inv = recip(M[c][c], p)
        for r in range(c + 1, n):
            if M[r][c] != 0:
                f = red(M[r][c] * inv, p)
                M[r] = [red(x - f * y, p) for x, y in zip(M[r], M[c])]
    return d


def inverse(A, p):
    """Gauss-Jordan inverse; None when A is singular."""
    n = len(A)
    one, zero = (1, 0) if p else (Fraction(1), Fraction(0))
    M = [list(row) + [one if i == j else zero for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return None
        M[c], M[piv] = M[piv], M[c]
        inv = recip(M[c][c], p)
        M[c] = [red(x * inv, p) for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [red(x - f * y, p) for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def conjugate(h, mats, p):
    """h X h^-1 for each X in mats."""
    hinv = inverse(h, p)
    return [matmul(matmul(h, X, p), hinv, p) for X in mats]


def greedy_forest(n, nonzero):
    """Arrows (i, j), 1-based, picked in row-major order at nonzero positions
    joining two components: the type forest the paper's reduction selects."""
    comp = list(range(n + 1))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    arrows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and nonzero(i, j):
                a, b = find(i), find(j)
                if a != b:
                    comp[a] = b
                    arrows.append((i, j))
    return arrows


def forest_path_arrows(n, arrows, i, j):
    """Arrows on the undirected forest path from i to j, or None."""
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in arrows:
        adj[a].append((b, (a, b)))
        adj[b].append((a, (a, b)))
    prev = {i: None}
    todo = [i]
    while todo:
        u = todo.pop()
        for v, arrow in adj[u]:
            if v not in prev:
                prev[v] = (u, arrow)
                todo.append(v)
    if j not in prev:
        return None
    out = []
    while prev[j] is not None:
        j, arrow = prev[j]
        out.append(arrow)
    return out


def star_pattern(n, arrows):
    """The {0,1,*} pattern of a type forest: 1 at arrows, * on the diagonal
    and where the connecting path uses only row-major-smaller arrows."""
    cells = [["0"] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                cells[i - 1][j - 1] = "*"
            elif (i, j) in arrows:
                cells[i - 1][j - 1] = "1"
            else:
                path = forest_path_arrows(n, arrows, i, j)
                if path is not None and all(a < (i, j) for a in path):
                    cells[i - 1][j - 1] = "*"
    return tuple("".join(row) for row in cells)
