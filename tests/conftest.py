from braidoka.words import FreeWord


def all_free_words(maxlen, rank=2):
    """Every freely reduced word of length <= maxlen in the given rank."""
    alphabet = [(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    out = [FreeWord.identity()]
    frontier = [()]
    for _ in range(maxlen):
        nxt = []
        for w in frontier:
            for let in alphabet:
                if w and w[-1][0] == let[0] and w[-1][1] == -let[1]:
                    continue
                nxt.append(w + (let,))
        out.extend(FreeWord(tuple(w)) for w in nxt)
        frontier = nxt
    return out


def brute_force_free_conjugate(w1, w2, conj_maxlen):
    """Search for c with c * w1 * c^-1 == w2 among short conjugators."""
    for c in all_free_words(conj_maxlen):
        if c * w1 * c.inv() == w2:
            return True
    return False
