"""Independent oracles for cross-checking the fast implementations.

Everything here is deliberately naive: cofactor expansion instead of the
division-free recurrence, full matrix scans instead of the per-column
decomposition.  Slow and obviously correct is the point.
"""

from itertools import product

from piregular import (
    IntegersMod,
    MalformedPayload,
    NCPolynomial,
    SquareMatrix,
    enumerate_elements,
    parse_ring_spec,
    poly_ring,
    sample_element,
)
from piregular.freealg import deglex_key
from piregular.rings import _KERNEL_CAP


def cofactor_det(mat: SquareMatrix):
    """Laplace expansion along the first row."""
    return _cofactor(mat.ring, [list(row) for row in mat.entries])


def _cofactor(ring, rows):
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = ring.zero()
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * _cofactor(ring, minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def naive_char_poly(mat: SquareMatrix):
    """det(xI - A) by the Samuelson-Berkowitz recurrence started from the
    empty block, one leading principal block at a time, with no closed form
    for the first two: the recurrence as written before its 2x2 seed."""
    ring, rows, m = mat.ring, mat.rows, mat.dim
    dot, neg = ring.p_dot, ring.p_neg
    coeffs = [ring.one_payload()]  # leading-first
    for k in range(1, m + 1):
        block = [row[:k - 1] for row in rows[:k - 1]]
        row = rows[k - 1][:k - 1]
        toeplitz = [ring.one_payload(), neg(rows[k - 1][k - 1])]
        vec = [rows[i][k - 1] for i in range(k - 1)]
        for _ in range(k - 1):
            toeplitz.append(neg(dot(row, vec)))
            vec = [dot(block_row, vec) for block_row in block]
        rev = toeplitz[::-1]
        coeffs = [dot(rev[k - i:], coeffs[:i + 1]) for i in range(k)] + [dot(rev[:k], coeffs)]
    return poly_ring(ring).wrap(tuple(coeffs[::-1]))


def matrix_polynomial(coeffs):
    """The matrix over poly_ring(R) whose x^k coefficient is ``coeffs[k]``,
    one entry at a time: M_m(R)[x] read as M_m(R[x])."""
    spec, dim = coeffs[0].ring, coeffs[0].dim
    return SquareMatrix.from_rows(poly_ring(spec), [
        [[c.rows[i][j] for c in coeffs] for j in range(dim)] for i in range(dim)])


def all_matrices(spec, dim):
    """Every dim-by-dim matrix over a finite ring, row-major enumeration
    order (the tie-break order witness searches promise to honor)."""
    elements = list(enumerate_elements(spec))
    for flat in product(elements, repeat=dim * dim):
        yield SquareMatrix.from_rows(
            spec, [flat[i * dim:(i + 1) * dim] for i in range(dim)])


def naive_right_witness(mat: SquareMatrix, n: int):
    """First X in full-scan order with A^n = A^(n+1) X, or None."""
    lhs = mat ** n
    rhs = mat ** (n + 1)
    for candidate in all_matrices(mat.ring, mat.dim):
        if rhs * candidate == lhs:
            return candidate
    return None


def naive_left_witness(mat: SquareMatrix, n: int):
    lhs = mat ** n
    rhs = mat ** (n + 1)
    for candidate in all_matrices(mat.ring, mat.dim):
        if candidate * rhs == lhs:
            return candidate
    return None


def permutation_standard_identity(mats):
    """Textbook alternating sum over itertools.permutations with the sign
    computed by counting inversions."""
    from itertools import permutations

    ring = mats[0].ring
    dim = mats[0].dim
    total = SquareMatrix.zeros(ring, dim)
    for perm in permutations(range(len(mats))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                         if perm[i] > perm[j])
        prod = mats[perm[0]]
        for index in perm[1:]:
            prod = prod * mats[index]
        total = total + prod if inversions % 2 == 0 else total - prod
    return total


def naive_product(ring, lhs, rhs):
    """Entry rows of a product, each entry summed from ring.zero() with the
    entries' own operators; ``lhs``/``rhs`` are ``mat.entries`` rows."""
    dim = len(lhs)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = ring.zero()
            for k in range(dim):
                acc = acc + lhs[i][k] * rhs[k][j]
            row.append(acc)
        out.append(row)
    return out


def naive_power(ring, rows, exponent):
    """Entry rows of rows^exponent by repeated naive products."""
    dim = len(rows)
    out = [[ring.one() if i == j else ring.zero() for j in range(dim)] for i in range(dim)]
    for _ in range(exponent):
        out = naive_product(ring, out, rows)
    return out


def naive_certificate_identities(doc) -> dict:
    """name -> holds for the seven identities of a certificate document
    whose fields are all well typed, every power of A a chain of naive
    products and p compared with x^N times the reversed ``naive_char_poly``
    of X; only the ring's own JSON loader reads the entries."""
    ring = parse_ring_spec(doc["ring"])
    n, big_n, zero = doc["n"], doc["N"], ring.zero()
    a, x, c, w, y = ([[ring.wrap(ring.payload_from_json(e)) for e in row] for row in doc[key]]
                     for key in ("A", "X", "C", "w", "Y"))
    p = [ring.wrap(ring.payload_from_json(e)) for e in doc["p_coeffs"]]
    chi = naive_char_poly(SquareMatrix.from_rows(ring, x)).payload
    expected = [zero] * big_n + [ring.wrap(s) for s in chi[::-1]]
    for coeffs in (p, expected):
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
    a_n, a_n1, a_big, a_big1 = (naive_power(ring, a, k) for k in (n, n + 1, big_n, big_n + 1))
    return {
        "right_witness": a_n == naive_product(ring, a_n1, x),
        "exponent_is_n_times_dim": big_n == n * doc["dim"],
        "char_poly_factor_shape": p == expected,
        "raised_right_witness": a_big == naive_product(ring, a_big1, c),
        "commuting_witness": naive_product(ring, a, w) == naive_product(ring, w, a),
        "raised_left_witness": a_big == naive_product(ring, w, a_big1),
        "left_witness": a_n == naive_product(ring, y, a_n1),
    }


def naive_sum(lhs, rhs):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(lhs, rhs)]


def naive_difference(lhs, rhs):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(lhs, rhs)]


def count_products(monkeypatch):
    """Count the matrix products over Z_k: each call of a product bound by
    ``matmul(dim)`` (a SquareMatrix product is one) or a signed term bound by
    ``accumulate(dim)``, as the witness pipeline, the verifier and the
    standard identity make them on payload rows.  Above the kernel cap both
    bindings end in the loop ``p_matmul``, which is counted instead, so
    their calls are counted once."""
    calls = []
    plain_matmul = IntegersMod.p_matmul

    def counted(plain):
        def bound(self, dim):
            op = plain(self, dim)
            if dim > _KERNEL_CAP:
                return op
            return lambda *args: calls.append(1) or op(*args)
        return bound

    monkeypatch.setattr(IntegersMod, "p_matmul",
                        lambda self, a, b: calls.append(1) or plain_matmul(self, a, b))
    monkeypatch.setattr(IntegersMod, "matmul", counted(IntegersMod.matmul))
    monkeypatch.setattr(IntegersMod, "accumulate", counted(IntegersMod.accumulate))
    return calls


def random_matrix(spec, dim, rng, bound=None):
    return SquareMatrix.from_rows(
        spec, [[sample_element(spec, rng, bound) for _ in range(dim)]
               for _ in range(dim)])


def naive_col_map(spec, base):
    """For each target code of v -> base*v (``base`` a SquareMatrix), the
    first v in lexicographic order, by full enumeration with payload
    arithmetic; -1 marks unreachable targets.  Vectors and targets are coded
    as base-q digits over ``spec.payloads()``, first coordinate most
    significant, as the engine codes them."""
    payloads = list(spec.payloads())
    q, m = len(payloads), base.dim
    position = {p: i for i, p in enumerate(payloads)}
    table = [-1] * q ** m
    for vcode, vec in enumerate(product(payloads, repeat=m)):
        code = 0
        for row in base.rows:
            acc = spec.zero_payload()
            for entry, coord in zip(row, vec):
                acc = spec.p_add(acc, spec.p_mul(entry, coord))
            code = code * q + position[acc]
        if table[code] < 0:
            table[code] = vcode
    return table


def reference_solve(engine, target, base, transposed=False):
    """The engine's right search as a loop over the target's columns, as it
    stood before the solves were generated: the first X in row-major order
    with target = base X (X^T if ``transposed``), or None."""
    q = engine.q
    table = engine.col_maps[base]
    chosen = []
    for column in zip(*target):
        code = 0
        for t in column:
            code = code * q + t
        vcode = table.find(chr(code))
        if vcode < 0:
            return None
        chosen.append(engine.vectors[vcode])
    return tuple(chosen) if transposed else tuple(zip(*chosen))


def reference_solve_left(engine, target, base):
    """The first Y in row-major order with target = Y base, or None: the
    transpose of :func:`reference_solve` on the transposes."""
    return reference_solve(engine, tuple(zip(*target)), tuple(zip(*base)), transposed=True)


def naive_normal_form(poly, system, strategy="leftmost"):
    """(normal form, rewrite steps) of ``poly`` under ``system``, re-sorting
    every term in deglex order on every step to find the largest reducible
    word; the earliest listed rule applies at its leftmost or rightmost
    occurrence."""
    terms = poly.terms()
    steps = 0
    while True:
        target = None
        for word in sorted(terms, key=deglex_key, reverse=True):
            for rule in system:
                pos = word.find(rule.lead) if strategy == "leftmost" else word.rfind(rule.lead)
                if pos >= 0:
                    target = (word, rule, pos)
                    break
            if target:
                break
        if target is None:
            return NCPolynomial(terms), steps
        steps += 1
        word, rule, pos = target
        coeff = terms.pop(word)
        left, right = word[:pos], word[pos + len(rule.lead):]
        for rep_word, rep_coeff in rule.replacement.terms().items():
            new = left + rep_word + right
            total = terms.get(new, 0) + coeff * rep_coeff
            if total:
                terms[new] = total
            else:
                terms.pop(new, None)


def _spelled(path):
    return "$" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


def reference_check_exact(obj, path=()):
    """The path-spelling exactness walk of ``jsonio`` as it stood before the
    one-pass check for plain documents: accept what canonical JSON carries
    exactly, refuse the first other node with its path."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return
    if isinstance(obj, float):
        raise MalformedPayload(f"floating point value at {_spelled(path)}; all numbers must be exact")
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            if type(item) not in (str, int, bool, type(None)):
                reference_check_exact(item, (*path, i))
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise MalformedPayload(f"non-string key {key!r} at {_spelled(path)}")
            if type(value) not in (str, int, bool, type(None)):
                reference_check_exact(value, (*path, key))
        return
    raise MalformedPayload(f"unserializable value {obj!r} at {_spelled(path)}")
