"""Finite-horizon backward induction state by state, the oracle for
`gatekeeper.solve.backward_induction`.

This loop walks epoch t from T down to 1 and, within it, every idle and
holding state, then every attempt x and congestion state (Q, A) in Python,
reading values past the horizon T + 1 from the terminal conditions' affine
extension as it needs them.  The package runs the same recursion as one
array step per epoch over a block of instances, so its V and argmax must
equal these, bit for bit.
"""
import numpy as np

from gatekeeper.evaluate import I0, I1, W0, W1, c_index, congestion_probs, n_states
from gatekeeper.model import CONGESTION_STATES, ProblemInstance
from gatekeeper.solve import TerminalConditions


def backward_induction_loop(
    inst: ProblemInstance, T: int, terms: TerminalConditions
) -> tuple[np.ndarray, np.ndarray]:
    """V (T+2, n) and argmax (T+1, S-1, 4), row 0 unused in both, with ties
    resolved Continue > Warm > Cold within 1e-9 relative."""
    if T < 1:
        raise ValueError("T must be >= 1")
    S = inst.S
    q, a = inst.traffic.q, inst.traffic.a
    tau = inst.profile.tau
    rho = inst.profile.rho
    r, c_w, c_c, tau_w = inst.econ.r, inst.econ.c_w, inst.econ.c_c, inst.econ.tau_w
    p_qa = congestion_probs(q, a)

    n = n_states(S)
    V = np.zeros((T + 2, n))
    V[T + 1] = terms.v_end
    argmax = np.zeros((T + 1, max(S - 1, 0), 4), dtype=np.int8)

    def look(t: int) -> np.ndarray:
        return V[t] if t <= T + 1 else terms.value(t, T)

    for t in range(T, 0, -1):
        row = V[t]
        nxt = look(t + 1)
        row[I0] = (1 - q) * nxt[I0] + q * nxt[I1]
        row[I1] = float(p_qa @ look(t + tau[0])[c_index(1, 0):c_index(1, 0) + 4])
        row[W0] = (1 - a) * nxt[W0] + a * nxt[W1]
        after_handoff = look(t + tau_w)
        row[W1] = (1 - q) * after_handoff[I0] + q * after_handoff[I1]
        for x in range(1, S + 1):
            if x < S:
                cont_next = look(t + tau[x])[c_index(x + 1, 0):c_index(x + 1, 0) + 4]
                cont = float(p_qa @ cont_next)
            for qa, (qf, af) in enumerate(CONGESTION_STATES):
                resolve = r + row[I1 if qf else I0]
                if x == S:
                    row[c_index(x, qa)] = resolve
                    continue
                warm = (r - c_w) + row[W1 if af else W0]
                cold = (r - c_c) + row[I1 if qf else I0]
                vals = (cont, warm, cold)
                best = max(vals)
                near = 1e-9 * max(1.0, abs(best))
                act = next(i for i, v in enumerate(vals) if v >= best - near)
                argmax[t, x - 1, qa] = act
                row[c_index(x, qa)] = rho[x - 1] * resolve + (1 - rho[x - 1]) * best

    return V, argmax
