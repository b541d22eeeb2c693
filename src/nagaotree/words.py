"""Normal-form calculus for the free product Delta = V_1 * ... * V_k and for
the semidirect product Gamma = Gamma0 x| Delta.

Representation (plain tuples: hashable, comparable, cheap):

  payload:  ((j, u), ...)      finitely supported V-element; j >= 1 ascending,
                               u a non-identity index of U_j
  syllable: (s, payload)       an element of V_s = gamma_s V gamma_s^-1,
                               payload nonempty, 1 <= s <= k
  word:     (syllable, ...)    free-product normal form: adjacent ray indices
                               distinct, every syllable nontrivial
  gamma:    (g0, word)         the element g0 * word, g0 an index in Gamma0

The identity word is the empty tuple.  Words multiply by concatenation with
cascading reduction at the junction; Gamma0 acts on words by conjugation,
permuting ray indices via the coset navigation table and twisting payload
entries by the h0-action.

The kernels rely on two facts about normal forms (Serre, Trees, ch. I 1.2):
reduction happens only at the junction of two normal forms, so a product
never looks past the syllables that meet at the seam; and payload positions
ascend, so canonicalising modulo a vertex stabilizer cuts a suffix off the
last payload.  The multiplication table, identity, inverses and h0-action
rows of U_j live on the datum (`d.root_tables[j]`), and the Gamma0 side reads
`d.nav` and the Gamma0 table directly.
"""

from __future__ import annotations

from .datum import NagaoDatum

Payload = tuple  # ((j, u), ...)
Syllable = tuple  # (s, payload)
Word = tuple  # (syllable, ...)
Gamma = tuple  # (g0, word)

EMPTY: Word = ()


def payload_mul(d: NagaoDatum, a: Payload, b: Payload) -> Payload:
    """Componentwise product in the restricted direct sum of the U_j."""
    out = []
    ia, ib = 0, 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        ja, ua = a[ia]
        jb, ub = b[ib]
        if ja < jb:
            out.append(a[ia])
            ia += 1
        elif jb < ja:
            out.append(b[ib])
            ib += 1
        else:
            table, identity, _, _ = d.root_tables[ja]
            u = table[ua][ub]
            if u != identity:
                out.append((ja, u))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def payload_inv(d: NagaoDatum, a: Payload) -> Payload:
    tables = d.root_tables
    return tuple((j, tables[j][2][u]) for j, u in a)


def syllable_word(s: int, payload: Payload) -> Word:
    """Single-syllable word; the empty word when the payload is trivial."""
    if not payload:
        return EMPTY
    return ((s, payload),)


def generator(s: int, j: int, u: int) -> Word:
    """The word for the single root element u in U_{j,s}."""
    return ((s, ((j, u),)),)


def delta_mul(d: NagaoDatum, a: Word, b: Word) -> Word:
    """Product in Delta: concatenation, reduced at the junction only.

    Both factors are normal forms, so only the syllables meeting at the
    seam can merge or cancel: the cascade walks back from the seam while
    the last ray of the left part equals the first ray of the right part.
    """
    if not a or not b or a[-1][0] != b[0][0]:
        return a + b
    ia, ib, lb = len(a) - 1, 0, len(b)
    while True:
        s, pay_a = a[ia]
        pay = payload_mul(d, pay_a, b[ib][1])
        if pay:
            return a[:ia] + ((s, pay),) + b[ib + 1:]
        # a[ia] and b[ib] cancel: go on while the next pair meets at one ray
        ib += 1
        if not ia or ib == lb or a[ia - 1][0] != b[ib][0]:
            return a[:ia] + b[ib:]
        ia -= 1


def delta_inv(d: NagaoDatum, a: Word) -> Word:
    return tuple((s, payload_inv(d, p)) for s, p in reversed(a))


def gamma0_conj(d: NagaoDatum, g0: int, w: Word) -> Word:
    """Conjugation g0 * w * g0^-1, computed syllable-wise.

    A syllable in V_s moves to V_{s'} where g0 * gamma_s = gamma_{s'} * h,
    and its payload entries are twisted by the h0-action of h.  Since
    s -> s' is a bijection, the result is already in normal form.
    """
    ident0 = d.ident0
    if g0 == ident0 or not w:
        return w
    nav, tables = d.nav[g0], d.root_tables
    out = []
    for s, pay in w:
        sp, h = nav[s - 1]
        if h != ident0:
            pay = tuple((j, tables[j][3][h][u]) for j, u in pay)
        out.append((sp, pay))
    return tuple(out)


def gamma_mul(d: NagaoDatum, a: Gamma, b: Gamma) -> Gamma:
    """(g, w)(g', w') = (g g', conj(g'^-1, w) * w')."""
    g, w = a
    gp, wp = b
    g0 = d.gamma0.table[g][gp]
    return (g0, delta_mul(d, gamma0_conj(d, d.gamma0.inverse[gp], w), wp))


def gamma_inv(d: NagaoDatum, a: Gamma) -> Gamma:
    """(g, w)^-1 = (g^-1, conj(g, w^-1))."""
    g, w = a
    gi = d.gamma0.inv(g)
    return (gi, gamma0_conj(d, g, delta_inv(d, w)))


def word_times_gamma_s(d: NagaoDatum, w: Word, s: int) -> Gamma:
    """The element w * gamma_s in Gamma0 x| Delta form."""
    rep = d.reps[s - 1]
    return (rep, gamma0_conj(d, d.gamma0.inv(rep), w))


def canon_coset(d: NagaoDatum, w: Word, i: int, s: int) -> Word:
    """Canonical representative of the right coset w * Stab_Delta(x_{i,s}).

    The stabilizer is U_{1,s} x ... x U_{i,s}, i.e. single syllables at ray s
    supported at positions <= i.  Canonicalization deletes the positions <= i
    from the final syllable when its ray index is s; payload positions
    ascend, so what is kept is a suffix.  If that empties the syllable it is
    removed (no cascade is possible: the previous syllable has a different
    ray index).
    """
    if i == 0 or not w:
        return w
    s_last, pay = w[-1]
    if s_last != s or pay[0][0] > i:
        return w
    for n in range(1, len(pay)):
        if pay[n][0] > i:
            return w[:-1] + ((s, pay[n:]),)
    return w[:-1]


def is_normal_form(d: NagaoDatum, w: Word) -> bool:
    prev = 0
    for s, pay in w:
        if not 1 <= s <= d.k or s == prev or not pay:
            return False
        prev = s
        last_j = 0
        for j, u in pay:
            if j <= last_j:
                return False
            table, identity, _, _ = d.root_tables[j]
            if not 0 <= u < len(table) or u == identity:
                return False
            last_j = j
    return True


def word_to_json(w: Word) -> list:
    return [{"s": s, "t": {str(j): u for j, u in pay}} for s, pay in w]


def word_from_json(d: NagaoDatum, obj: list) -> Word:
    out = []
    for item in obj:
        pay = tuple(sorted((int(j), int(u)) for j, u in item["t"].items()))
        out.append((int(item["s"]), pay))
    w = tuple(out)
    if not is_normal_form(d, w):
        raise ValueError(f"word is not in normal form: {obj}")
    return w


def enumerate_payloads(d: NagaoDatum, positions: list[int]) -> list[Payload]:
    """All payloads (including the trivial one) supported in `positions`."""
    out: list[Payload] = [()]
    for j in sorted(positions):
        grp = d.root(j).group
        extended = []
        for pay in out:
            extended.append(pay)
            for u in range(grp.order):
                if u != grp.identity:
                    extended.append(pay + ((j, u),))
        out = extended
    return out


def enumerate_words(d: NagaoDatum, max_len: int, positions: list[int]) -> list[Word]:
    """All normal-form words with at most `max_len` syllables whose payloads
    are supported in `positions`.  Ordered by length, then lexicographically."""
    payloads = [p for p in enumerate_payloads(d, positions) if p]
    syllables = [(s, p) for s in range(1, d.k + 1) for p in sorted(payloads)]
    words: list[Word] = [EMPTY]
    frontier: list[Word] = [EMPTY]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            last = w[-1][0] if w else 0
            for syl in syllables:
                if syl[0] != last:
                    nxt.append(w + (syl,))
        words.extend(nxt)
        frontier = nxt
    return words
